import ast
import importlib.util
from pathlib import Path

import klhom


def test_every_export_resolves():
    missing = [name for name in klhom.__all__ if not hasattr(klhom, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(set(klhom.__all__)) == len(klhom.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from klhom import *", namespace)
    assert set(klhom.__all__) <= namespace.keys()


def test_traced_benchmark_hooks_resolve():
    # perfbench/spans.py wraps klhom functions by (module, name); a rename
    # here would otherwise surface only as a crash of the traced benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module_name, fn_name, _, _ in spans.WRAPPED:
        module = importlib.import_module(f"klhom.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"klhom.{module_name}.{fn_name}"


def _package_imports_of(top: str) -> tuple[list, list]:
    """The modules of src/klhom, and the file:line of each import of ``top``."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "klhom").glob("*.py"))
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == top]
    return sources, offenders


def test_sympy_stays_out_of_the_package():
    # sympy is a test-time oracle only; the package must run without it
    sources, offenders = _package_imports_of("sympy")
    assert sources and not offenders, offenders


def test_fractions_stay_out_of_the_package():
    # every coefficient is an int: generator coefficients are ±1, so the
    # rewriting search divides by multiplying
    sources, offenders = _package_imports_of("fractions")
    assert sources and not offenders, offenders
