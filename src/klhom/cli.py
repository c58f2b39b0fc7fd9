"""
Command-line interface.

Subcommands:
  classify   verdict for one pair, optionally as JSON
  sweep      classify all of S_n x S_n to CSV or JSONL
  show       print the variable matrix, rank matrix and pruned generators
  verify     run the brute-force cross-check suite

Each command returns its exit code and its output text, and raises on
failure; ``main`` alone writes stdout and maps each failure to an exit code
with one ``error:`` line on stderr.  Exit codes: 0 success, 1 verification
mismatch, 2 invalid input, 3 resource limit, memory exhausted or a sweep
worker killed.  A reader that closes stdout early loses the text but not the
command's exit code.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import BrokenExecutor

from .classifier import ClassifierConfig, classify, sweep
from .errors import ConsistencyError
from .minors import pruned_defining_minors, relevant_rows_for_column, si_sequence_raw
from .mutation import MutationConfig
from .oracle import run_verification
from .paths import determinant, is_inhomogeneous_det, is_singular
from .permutations import Permutation, rank_matrix
from .zmatrix import build_z, format_matrix

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

# the failures a command raises, each mapped to its exit code; a ConsistencyError
# (a verdict's exact re-check failed) is a verification mismatch, and a
# BrokenProcessPool (a sweep worker killed by a signal, as by the kernel's
# out-of-memory killer) a resource limit.  It is matched by its base class,
# whose module does not load multiprocessing
FAILURES = {ValueError: EXIT_INVALID, ConsistencyError: EXIT_MISMATCH,
            ResourceWarning: EXIT_RESOURCE, MemoryError: EXIT_RESOURCE,
            BrokenExecutor: EXIT_RESOURCE}


def _perm(text: str) -> Permutation:
    try:
        return Permutation.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _config(args: argparse.Namespace) -> ClassifierConfig:
    return ClassifierConfig(
        pattern_shortcut=not args.no_pattern_shortcut,
        mutation=MutationConfig(depth_limit=args.mutation_depth),
    )


def _pair(args: argparse.Namespace) -> tuple[Permutation, Permutation]:
    if args.v.n != args.w.n:
        raise ValueError("v and w must have the same size")
    return args.v, args.w


def cmd_classify(args: argparse.Namespace) -> tuple[int, str]:
    r = classify(*_pair(args), _config(args))
    if args.json:
        return EXIT_OK, r.line() + "\n"
    return EXIT_OK, (
        f"v={r.v} w={r.w}  verdict={r.verdict.kind.value} ({r.verdict.reason})\n"
        f"generators: {r.gens_before} defining, {r.gens_after} kept after pruning "
        f"({r.n_singular} singular dropped), {r.n_inhomogeneous} inhomogeneous\n"
        f"digest={r.verdict.digest()}  wall={round(r.wall_ms, 3)}ms\n")


def cmd_sweep(args: argparse.Namespace) -> tuple[int, str]:
    fmt = args.format
    if fmt is None:
        fmt = "jsonl" if (args.out or "").endswith(".jsonl") else "csv"
    census = sweep(args.n, _config(args), out=args.out, fmt=fmt,
                   workers=args.workers, resume=args.resume)
    total = sum(census.values())
    held = ""
    if args.resume and args.out:
        # sweep counts only the new pairs; the file now holds every pair
        held = f", {math.factorial(args.n) ** 2 - total} already in the file"
    lines = [f"{total} pairs classified{held}" + (f" -> {args.out}" if args.out else "")]
    lines += [f"  {verdict}: {census[verdict]}" for verdict in sorted(census)]
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_show(args: argparse.Namespace) -> tuple[int, str]:
    v, w = _pair(args)
    z = build_z(v)
    lines = [f"Z matrix of v={v}:", format_matrix(z), f"\nrank matrix of w={w}:",
             str(rank_matrix(w)), "\nwindow rows kept per column:"]
    lines += [f"  t={t}: raw heights {si_sequence_raw(w, t)} -> rows "
              f"{relevant_rows_for_column(w, t)}" for t in range(1, w.n + 1)]
    gens = pruned_defining_minors(v, w)
    lines.append(f"\npruned defining minors ({len(gens)}):")
    for m in gens.minors:
        if is_singular(m, z):
            status = "singular"
        else:
            det = determinant(m, z)
            degrees = sorted(det.degrees())
            kind = "inhomogeneous" if is_inhomogeneous_det(m, z) else "homogeneous"
            status = f"{kind}, degrees {degrees}, det = {det}"
        lines.append(f"  {m} from windows {list(m.windows)}: {status}")
    return EXIT_OK, "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    if args.n > 4:
        raise ResourceWarning("the cross-check suite is budgeted for n <= 4")
    report = run_verification(args.n)
    return EXIT_OK if report.passed else EXIT_MISMATCH, report.summary() + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klhom",
        description="Exact homogeneity classifier for the determinantal ideals "
                    "attached to permutation pairs (v, w).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--v", type=_perm, required=True, help="one-line word, e.g. 2314")
        p.add_argument("--w", type=_perm, required=True, help="one-line word, e.g. 4213")

    def add_cfg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-pattern-shortcut", action="store_true",
                       help="disable the pattern-avoidance shortcut")
        p.add_argument("--mutation-depth", type=int, default=8, metavar="K",
                       help="stage limit for the rewriting search (default 8)")

    p = sub.add_parser("classify", help="classify one pair")
    add_pair(p)
    add_cfg(p)
    p.add_argument("--json", action="store_true", help="emit one JSON record")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify all pairs in S_n x S_n")
    p.add_argument("--n", type=int, required=True)
    add_cfg(p)
    p.add_argument("--out", default=None, help="output path (csv or jsonl)")
    p.add_argument("--format", choices=["csv", "jsonl"], default=None,
                   help="defaults to the --out extension, else csv")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--resume", action="store_true",
                   help="skip the first pairs of the sweep that the output file holds "
                        "and append the rest; a file holding anything else is invalid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("show", help="print the matrices and pruned generators")
    add_pair(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("verify", help="run the brute-force cross-check suite")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input, which matches the contract
        return int(exc.code) if exc.code is not None else EXIT_INVALID
    try:
        code, text = args.func(args)
    except tuple(FAILURES) as exc:
        # a MemoryError usually carries no message of its own
        message = f"out of memory {exc}".rstrip() if isinstance(exc, MemoryError) else exc
        print(f"error: {message}", file=sys.stderr)
        return next(c for kind, c in FAILURES.items() if isinstance(exc, kind))
    try:
        sys.stdout.write(text)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader left early (klhom ... | head); Python flushes stdout at
        # exit too ("Note on SIGPIPE", signal docs), so point it at devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
