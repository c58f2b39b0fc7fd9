"""
Exact sparse multivariate polynomials.

A monomial (``Mono``) is a sorted tuple of ``(variable, exponent)`` pairs.
Variables are any mutually orderable hashable values; matrix cells and plain
strings are the two kinds used here.  The terms of a determinant are
squarefree (a path hits each row and column at most once), so
:func:`mono_from_vars` builds them straight from a path's variable cells.

Coefficients are exact integers.  Every determinant coefficient here is
±1, and the rewriting search only ever divides by such a coefficient, so no
quotient leaves the integers.
"""
from __future__ import annotations

from typing import Hashable, Iterable

from .zmatrix import Cell, cell_name

Var = Hashable
Mono = tuple[tuple[Var, int], ...]
Coeff = int

EMPTY_MONO: Mono = ()


def mono_from_vars(vars_: Iterable[Var]) -> Mono:
    """Squarefree monomial over the given variables (must not repeat)."""
    vs = sorted(vars_)
    if len(set(vs)) != len(vs):
        raise ValueError(f"repeated variable in squarefree monomial: {vs}")
    return tuple((v, 1) for v in vs)


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    exps: dict[Var, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_divides(a: Mono, b: Mono) -> bool:
    exps = dict(b)
    return all(exps.get(v, 0) >= e for v, e in a)


def mono_div(a: Mono, b: Mono) -> Mono:
    """Exact quotient a / b; raises if b does not divide a."""
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            raise ValueError(f"{b} does not divide {a}")
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def _mono_str(m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for v, e in m:
        name = cell_name(v) if isinstance(v, Cell) else str(v)
        parts.append(name if e == 1 else f"{name}^{e}")
    return "·".join(parts)


def mono_sort_key(m: Mono):
    """Canonical order: total degree, then the sorted variable tuple."""
    return (mono_degree(m), m)


class Polynomial:
    """An immutable exact polynomial, stored as monomial -> coefficient."""

    __slots__ = ("_terms", "_hash", "_order")

    def __init__(self, terms: dict[Mono, Coeff] | None = None):
        self._terms = {m: c for m, c in terms.items() if c} if terms else {}
        self._hash: int | None = None
        # canonical term order, filled on first use; not part of the value
        self._order: tuple[tuple[Mono, Coeff], ...] | None = None

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: Coeff) -> "Polynomial":
        return Polynomial({EMPTY_MONO: c})

    @staticmethod
    def from_terms(terms: Iterable[tuple[Coeff, Mono]]) -> "Polynomial":
        acc: dict[Mono, Coeff] = {}
        for c, m in terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[Mono, Coeff], ...]:
        """Terms in canonical order (descending degree, then variable order)."""
        if self._order is None:
            self._order = tuple((m, self._terms[m]) for m in
                                sorted(self._terms, key=mono_sort_key, reverse=True))
        return self._order

    def coeff(self, m: Mono) -> Coeff:
        return self._terms.get(m, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return Polynomial(acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) - c
        return Polynomial(acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        acc: dict[Mono, Coeff] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = mono_mul(ma, mb)
                acc[m] = acc.get(m, 0) + ca * cb
        return Polynomial(acc)

    def scaled(self, c: Coeff) -> "Polynomial":
        return Polynomial({m: c * v for m, v in self._terms.items()})

    def degrees(self) -> set[int]:
        return {mono_degree(m) for m in self._terms}

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree_slice(self, d: int) -> "Polynomial":
        return Polynomial({m: c for m, c in self._terms.items() if mono_degree(m) == d})

    @property
    def is_unit_constant(self) -> bool:
        """True iff the polynomial is exactly +1 or -1."""
        return len(self._terms) == 1 and self._terms.get(EMPTY_MONO) in (1, -1)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for m, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = _mono_str(m) if mag == 1 and m else f"{mag}" + ("" if not m else "·" + _mono_str(m))
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self})"

