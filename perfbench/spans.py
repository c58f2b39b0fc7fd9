"""
Span recorder for the traced run, installed from outside the program.

Each wrapped function records one span per call under a span name; a span's
self time is its duration minus the durations of the spans it encloses.
``classifier`` imports its callees by name, so they are wrapped where
``classifier`` looks them up (patching ``klhom.paths.determinant`` would
record nothing); ``mutation`` looks its own helpers up in its own namespace.
``polynomials`` runs under every layer and is not wrapped: its time counts
as self time of whichever span calls it.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, function, span name, tally of the result or None)
WRAPPED = [
    ("classifier", "classify", "classifier.self", None),
    ("classifier", "necessary_condition_fails", "classifier.witness_search",
     lambda out: out is not None),
    ("classifier", "verify_inhomogeneity_witness", "classifier.witness_verify", None),
    ("classifier", "is_longest_element", "permutations.gate", None),
    ("classifier", "rank_matrix", "permutations.gate", None),
    ("classifier", "dominates", "permutations.gate", None),
    ("classifier", "avoids_pattern", "permutations.pattern", None),
    ("classifier", "enumerate_defining_minors", "minors.enumerate", len),
    ("classifier", "pruned_defining_minors", "minors.prune", len),
    ("classifier", "is_singular", "paths.singular", bool),
    ("classifier", "is_inhomogeneous_det", "paths.inhom", None),
    ("classifier", "determinant", "paths.det", len),
    ("classifier", "homogeneous_components", "paths.other", None),
    ("classifier", "is_unit_determinant", "paths.other", None),
    ("classifier", "exists_dividing_term_structural", "divisibility.search", bool),
    ("classifier", "run_mutation", "mutation.run", lambda out: out.terminated),
    ("classifier", "verify_certificate", "mutation.cert_verify", None),
    ("mutation", "stage0_setup", "mutation.node", None),
    ("mutation", "mutation_step", "mutation.node", None),
    ("mutation", "cancel_outstanding", "mutation.cancel", None),
    ("mutation", "verify_certificate", "mutation.cert_verify", None),
    ("cli", "sweep", "classifier.sweep", None),
]


class Tracer:
    """Self time, call count and result tally per span name."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.tally: Counter = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def call(self, span: str, fn, args=(), kwargs=None, tally=None):
        """fn(*args, **kwargs) inside a span; ``tally(result)`` adds to its tally."""
        children = [0.0]
        self._stack.append(children)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.self_s[span] += dt - children[0]
            self.calls[span] += 1
            if self._stack:
                self._stack[-1][0] += dt
        if tally is not None:
            self.tally[span] += tally(out)
        return out

    def install(self, klhom_modules: dict) -> None:
        for module_name, fn_name, span, tally in WRAPPED:
            module = klhom_modules[module_name]
            fn = getattr(module, fn_name)
            setattr(module, fn_name, self._wrap(fn, span, tally))
            self._restore.append((module, fn_name, fn))

    def _wrap(self, fn, span: str, tally):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(span, fn, args, kwargs, tally)
        return wrapper

    def uninstall(self) -> None:
        for module, fn_name, fn in reversed(self._restore):
            setattr(module, fn_name, fn)
        self._restore.clear()
