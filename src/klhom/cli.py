"""
Command-line interface.

Subcommands:
  classify   verdict for one pair, optionally as JSON
  sweep      classify all of S_n x S_n to CSV or JSONL
  show       print the variable matrix, rank matrix and pruned generators
  verify     run the brute-force cross-check suite

Exit codes: 0 success, 1 verification mismatch, 2 invalid input,
3 resource limit.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classifier import ClassifierConfig, classify, held_pairs, sweep
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


def cmd_classify(args: argparse.Namespace) -> int:
    if args.v.n != args.w.n:
        print("error: v and w must have the same size", file=sys.stderr)
        return EXIT_INVALID
    report = classify(args.v, args.w, _config(args))
    rec = report.to_record()
    if args.json:
        print(json.dumps(rec, sort_keys=True))
    else:
        print(f"v={rec['v']} w={rec['w']}  verdict={rec['verdict']} ({rec['reason']})")
        print(f"generators: {rec['gens_before']} defining, "
              f"{rec['gens_after']} kept after pruning "
              f"({rec['n_singular']} singular dropped), "
              f"{rec['n_inhomogeneous']} inhomogeneous")
        print(f"digest={rec['digest']}  wall={rec['wall_ms']}ms")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    fmt = args.format
    if fmt is None:
        fmt = "jsonl" if (args.out or "").endswith(".jsonl") else "csv"
    try:
        records = sweep(args.n, _config(args), out=args.out, fmt=fmt,
                        workers=args.workers, resume=args.resume)
    except ResourceWarning as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
    total = sum(counts.values())
    held = ""
    if args.resume and args.out:
        # sweep returns only the new records; the file holds the earlier ones too
        held = f", {held_pairs(Path(args.out), args.n, fmt) - total} already in the file"
    print(f"{total} pairs classified{held}" + (f" -> {args.out}" if args.out else ""))
    for verdict in sorted(counts):
        print(f"  {verdict}: {counts[verdict]}")
    return EXIT_OK


def cmd_show(args: argparse.Namespace) -> int:
    v, w = args.v, args.w
    if v.n != w.n:
        print("error: v and w must have the same size", file=sys.stderr)
        return EXIT_INVALID
    z = build_z(v)
    print(f"Z matrix of v={v}:")
    print(format_matrix(z))
    print(f"\nrank matrix of w={w}:")
    print(rank_matrix(w))
    print("\nwindow rows kept per column:")
    for t in range(1, w.n + 1):
        print(f"  t={t}: raw heights {si_sequence_raw(w, t)} -> rows "
              f"{relevant_rows_for_column(w, t)}")
    gens = pruned_defining_minors(v, w)
    print(f"\npruned defining minors ({len(gens)}):")
    for m in gens.minors:
        if is_singular(m, z):
            status = "singular"
        else:
            det = determinant(m, z)
            degrees = sorted(det.degrees())
            kind = "inhomogeneous" if is_inhomogeneous_det(m, z) else "homogeneous"
            status = f"{kind}, degrees {degrees}, det = {det}"
        print(f"  {m} from windows {list(m.windows)}: {status}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n > 4:
        print("error: the cross-check suite is budgeted for n <= 4", file=sys.stderr)
        return EXIT_RESOURCE
    report = run_verification(args.n)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_MISMATCH


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
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as exc:
        # a verdict's exact re-check failed: a verification mismatch
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
