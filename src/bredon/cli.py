"""Command-line interface.

Subcommands: ``weight0`` (one group), ``grid`` (a table of groups),
``derive`` (replay the weight-1 / sign-weight inductions, optionally with
axiom traces), ``check`` (run comparison suites), ``export`` (write a grid
to a file).  The exit code is 0 only when every requested check passes.
"""

from __future__ import annotations

import argparse
import sys

from . import sigmacx
from .abgrp import COEFF_TEXT
from .chaincx import explain
from .formal import PROFILE_ALIASES, get_profile
from .tables import DERIVED_WEIGHTS, GridSpec, export_grid, render_grid
from .tables.checks import SUITES, check


def _coeff(value: str) -> int:
    """A coefficient, written as its modulus or its text."""
    for m, text in COEFF_TEXT.items():
        if value in (str(m), text):
            return m
    raise argparse.ArgumentTypeError("coefficients must be Z or 2")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bredon",
        description="exact calculator for the two-graded equivariant cohomology tables")
    sub = parser.add_subparsers(dest="command", required=True)

    w0 = sub.add_parser("weight0", help="one weight-0 group from the cycle complexes")
    w0.add_argument("--a", type=int, required=True)
    w0.add_argument("--p", type=int, required=True)
    w0.add_argument("--coeff", type=_coeff, default=0)
    w0.add_argument("--explain", action="store_true",
                    help="also print the complex, its Morse model, the Smith diagonals "
                         "and the provenance")

    # options shared by grid and export; each keeps its own --format default
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--weight", choices=["0", *DERIVED_WEIGHTS], default="0")
    table.add_argument("--p-range", type=int, default=3)
    table.add_argument("--a-min", type=int, default=None)
    table.add_argument("--a-max", type=int, default=None)
    table.add_argument("--coeff", type=_coeff, default=0)
    table.add_argument("--profile", default="general", choices=list(PROFILE_ALIASES))
    table.add_argument("--source", default=None, choices=["computed", "fixture", "derived"])

    grid = sub.add_parser("grid", parents=[table], help="render a grid of groups")
    grid.add_argument("--format", dest="fmt", default="text",
                      choices=["text", "json", "csv"])

    derive = sub.add_parser("derive", help="replay the table derivations")
    derive.add_argument("--weight", choices=list(DERIVED_WEIGHTS), required=True)
    derive.add_argument("--profile", required=True, choices=list(PROFILE_ALIASES))
    derive.add_argument("--n-max", type=int, default=8)
    derive.add_argument("--coeff", type=_coeff, default=0)
    derive.add_argument("--trace", action="store_true",
                        help="print the axiom trail of every entry")

    chk = sub.add_parser("check", help="run comparison suites")
    chk.add_argument("suites", nargs="+",
                     help=f"suite names ({', '.join(sorted(SUITES))}) or 'all'")
    chk.add_argument("--p-max", type=int, default=8)
    chk.add_argument("--n-max", type=int, default=16)
    chk.add_argument("--verbose", action="store_true")

    exp = sub.add_parser("export", parents=[table], help="write a grid to a file")
    exp.add_argument("--format", dest="fmt", default="json", choices=["text", "json", "csv"])
    exp.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _spec_from_args(args) -> GridSpec:
    return GridSpec(weight=args.weight, coeff=args.coeff, p_range=args.p_range,
                    a_min=args.a_min, a_max=args.a_max, profile=args.profile,
                    source=args.source)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        for name in ("p_max", "n_max", "p_range"):
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name.replace('_', '-')} must be nonnegative, "
                                 f"got {getattr(args, name)}")
        if args.command == "check" and {"cone-tower", "all"} & set(args.suites) \
                and args.p_max >= sigmacx.SHIFT_BOUND:
            raise ValueError(f"cone-tower checks shift p_max + 1, so --p-max must be below "
                             f"{sigmacx.SHIFT_BOUND}, got {args.p_max}")
        return _dispatch(args)
    except KeyError as exc:     # unknown check suite
        print(f"bredon: error: {exc.args[0]}", file=sys.stderr)
    except ValueError as exc:   # bad range, shift, table or fixture input; unwritable --out
        print(f"bredon: error: {exc}", file=sys.stderr)
    return 2


def _dispatch(args) -> int:
    if args.command == "weight0":
        group = sigmacx.weight0(args.a, args.p, args.coeff)
        print(group.render())
        if args.explain:
            c = sigmacx.build_sigma_complex(sigmacx.SigmaSpec(args.p, sigmacx.FIXED))
            print(f"fixed-point complex of the shift p = {args.p}, degree a = {args.a}")
            for line in explain(c, args.a, args.coeff):
                print(line)
            print("provenance: computed, from "
                  + ("the ranks mod 2" if args.coeff else "the Smith diagonals")
                  + " of d_in and d_out")
        return 0

    if args.command == "grid":
        sys.stdout.write(render_grid(_spec_from_args(args), args.fmt))
        return 0

    if args.command == "export":
        text = export_grid(_spec_from_args(args), args.fmt, args.out)
        if args.out is None:
            sys.stdout.write(text)
        else:
            print(f"wrote {args.out}")
        return 0

    if args.command == "derive":
        profile = get_profile(args.profile)
        tables = DERIVED_WEIGHTS[args.weight][0](profile, args.n_max, coeff=args.coeff)
        for cone in ("positive", "negative"):
            table = tables[cone]
            print(f"# weight {args.weight}, {cone} cone, profile {profile.name}, "
                  f"coeff {COEFF_TEXT[args.coeff]}")
            for p in table.derived_shifts():
                entries = table.columns.get(p, {})
                for a in sorted(entries):
                    e = entries[a]
                    line = f"  (a={a:+d}, p={p:+d})  {e.group.render() if e.group else '?'}"
                    if args.trace:
                        line += "   [" + ", ".join(e.trail) + "]"
                    print(line)
            for note in table.notes:
                print(f"  note: {note}")
        return 0

    if args.command == "check":
        reports = []
        for suite in args.suites:
            reports.extend(check(suite, p_max=args.p_max, n_max=args.n_max))
        failed = False
        for report in reports:
            print(report.summary())
            shown = report.failures if not args.verbose else report.cells
            for cell in shown[:20]:
                mark = "ok " if cell.ok else "FAIL"
                print(f"  {mark} {cell.key}: got {cell.got}, expected {cell.expected}"
                      + (f"  [{cell.citation}]" if cell.citation else ""))
            failed |= not report.passed
        return 1 if failed else 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
