"""
Write ``data/reference.csv``: the class of the ideal of every pair in
S_4 x S_4 and S_5 x S_5, computed without the classifier.

Empty and unit pairs come from the benchmark's own rank count
(:func:`tables.gate`).  For every other pair the ideal is generated by the
cofactor-expansion determinant (``klhom.oracle.laplace_determinant``) of every
defining minor (``enumerate_defining_minors``, not the pruned set), and it is
homogeneous iff its reduced grevlex Groebner basis is (Cox-Little-O'Shea,
*Ideals, Varieties, and Algorithms*, ch. 2 and 8).  sympy does the Groebner
basis; it is needed only here, never by a benchmark run.

Run from the repository root:  python3 perfbench/make_reference.py
"""
from __future__ import annotations

import csv
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import sympy  # noqa: E402

from klhom.minors import enumerate_defining_minors  # noqa: E402
from klhom.oracle import laplace_determinant  # noqa: E402
from klhom.permutations import Permutation  # noqa: E402
from klhom.zmatrix import build_z  # noqa: E402

import tables  # noqa: E402


def groebner_class(v: tuple[int, ...], w: tuple[int, ...]) -> str:
    z = build_z(Permutation(v))
    symbols: dict = {}
    exprs = []
    for m in enumerate_defining_minors(Permutation(v), Permutation(w)).minors:
        poly = laplace_determinant(m, z)
        expr = sympy.Integer(0)
        for mono, coeff in poly.terms():
            term = sympy.Integer(coeff)
            for cell, exp in mono:
                sym = symbols.setdefault(cell, sympy.Symbol(f"z_{cell.row}_{cell.col}"))
                term *= sym ** exp
            expr += term
        if expr != 0:
            exprs.append(expr)
    if not exprs:
        return "homogeneous"
    gens = [symbols[c] for c in sorted(symbols)]
    basis = sympy.groebner(exprs, *gens, order="grevlex")
    if list(basis.exprs) == [1]:
        return "unit"
    homogeneous = all(sympy.Poly(g, *gens).is_homogeneous for g in basis.exprs)
    return "homogeneous" if homogeneous else "inhomogeneous"


def main() -> None:
    rows = []
    for n in (4, 5):
        t0 = time.perf_counter()
        counts: Counter = Counter()
        for v, w in tables.all_pairs(n):
            cls = tables.gate(v, w) or groebner_class(v, w)
            counts[cls] += 1
            rows.append((tables.text(v), tables.text(w), cls))
        print(f"n={n}: {dict(sorted(counts.items()))} in {time.perf_counter() - t0:.1f} s")
    with tables.REFERENCE.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["v", "w", "class"])
        writer.writerows(rows)


if __name__ == "__main__":
    main()
