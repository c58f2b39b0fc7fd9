import ast
import importlib
from collections import Counter
from pathlib import Path

import klhom
from klhom.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in klhom.__all__ if not hasattr(klhom, name)]
    assert not missing


def test_no_duplicate_exports():
    assert len(set(klhom.__all__)) == len(klhom.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from klhom import *", namespace)
    assert set(klhom.__all__) <= namespace.keys()


def _traced_hooks() -> list:
    """The (module, function, span name, tally) hooks of perfbench/spans.py.
    The file is compiled and run in memory, so no bytecode cache is written
    beside it."""
    path = ROOT / "perfbench" / "spans.py"
    namespace: dict = {"__name__": "perfbench_spans"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["WRAPPED"]


def test_traced_benchmark_hooks_resolve():
    # perfbench/spans.py wraps klhom functions by (module, name); a rename
    # here would otherwise surface only as a crash of the traced benchmark
    hooks = _traced_hooks()
    assert len(hooks) > 20
    for module_name, fn_name, _, _ in hooks:
        module = importlib.import_module(f"klhom.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"klhom.{module_name}.{fn_name}"


def test_traced_benchmark_layers_get_calls(monkeypatch, tmp_path):
    # a call moved out of a wrapped namespace would bill its layer's time to
    # the traced run's root spans; an S_4 census reaches every layer except
    # minors.enumerate, which the closed-form count replaced
    calls: Counter = Counter()

    def counted(fn, span):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    hooks = _traced_hooks()
    for module_name, fn_name, span, _ in hooks:
        module = importlib.import_module(f"klhom.{module_name}")
        monkeypatch.setattr(module, fn_name, counted(getattr(module, fn_name), span))
    out = tmp_path / "s4.jsonl"
    assert main(["sweep", "--n", "4", "--workers", "1", "--out", str(out)]) == 0
    idle = {span for _, _, span, _ in hooks if not calls[span]}
    assert idle == {"minors.enumerate"}


def test_table_scripts_imports_resolve():
    # perfbench/make_golden.py and make_reference.py regenerate the golden
    # and reference tables; a rename here would otherwise surface only then
    names = []
    for script in ("make_golden.py", "make_reference.py"):
        path = ROOT / "perfbench" / script
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "klhom":
                names += [(script, node.module, alias.name) for alias in node.names]
    assert {script for script, _, _ in names} == {"make_golden.py", "make_reference.py"}
    missing = [f"{script}: {module}.{name}" for script, module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_unused_classifier_imports_are_traced_hooks():
    # classifier.py imports some names only so that perfbench/spans.py can
    # wrap them there; any other unused import is dead, and a hook dropped
    # from the benchmark takes its import with it
    path = ROOT / "src" / "klhom" / "classifier.py"
    imported, used = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
    hooks = {fn_name for module_name, fn_name, _, _ in _traced_hooks()
             if module_name == "classifier"}
    unused = imported - used
    assert unused <= hooks, sorted(unused - hooks)
    assert unused == {"enumerate_defining_minors", "is_longest_element", "verify_certificate"}


def _package_imports_of(top: str) -> tuple[list, list]:
    """The modules of src/klhom, and the file:line of each import of ``top``."""
    sources = sorted((ROOT / "src" / "klhom").glob("*.py"))
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


def test_oracle_derives_the_pattern_itself():
    # the oracles check the pivot maps and the zero rule of zmatrix, so they
    # must not read them: v's pattern comes from v's word
    path = ROOT / "src" / "klhom" / "oracle.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert not names & {"prow", "pcol", "nonzero"}
