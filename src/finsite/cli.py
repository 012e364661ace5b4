"""Command-line driver: every engine verdict behind one deterministic CLI.

Exit codes: 0 = PASS, 1 = FAIL (with witness in the report), 2 = input error,
3 = internal error (an unexpected exception; traceback on stderr).
"""

from __future__ import annotations

import argparse
import sys

from . import io, randsuite
from .category import validate_site
from .cosheaf import (Precosheaf, check_cosheaf, cosheafify, costalk,
                      is_smooth)
from .errors import EngineError
from .report import CheckReport
from .sheaf import Presheaf, check_sheaf, sheafify
from .spaces import builtin_demos, demo_by_name
from .towers import is_rudimentary_at_depth


def _count(text: str) -> int:
    """The argparse type of --depth and --cases: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finsite",
                                description="exact (co)sheaf checks on finite sites")
    sub = p.add_subparsers(dest="command")

    q = sub.add_parser("validate", help="site axioms")
    q.add_argument("site")

    q = sub.add_parser("check-cosheaf", help="classify a precosheaf")
    q.add_argument("precosheaf")
    q.add_argument("--depth", type=_count, default=6)

    q = sub.add_parser("check-sheaf", help="classify a presheaf")
    q.add_argument("presheaf")

    q = sub.add_parser("cosheafify", help="double plus construction")
    q.add_argument("precosheaf")
    q.add_argument("--depth", type=_count, default=6)
    q.add_argument("--out")

    q = sub.add_parser("sheafify", help="double plus construction, presheaf side")
    q.add_argument("presheaf")
    q.add_argument("--out")

    q = sub.add_parser("costalk", help="costalk tower at a declared point")
    q.add_argument("precosheaf")
    q.add_argument("--point", required=True)
    q.add_argument("--depth", type=_count, default=6)

    q = sub.add_parser("smooth", help="smoothness verdict")
    q.add_argument("precosheaf")
    q.add_argument("--depth", type=_count, default=6)

    q = sub.add_parser("demo", help="run a named demo bundle")
    q.add_argument("name")
    q.add_argument("--depth", type=_count, default=6)

    q = sub.add_parser("oracle-suite", help="randomized property suite")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--cases", type=_count, default=25)
    return p


def _emit(report: CheckReport) -> int:
    sys.stdout.write(io.dumps(report.to_json()))
    return 0 if report.passed else 1


def _fail_input(message: str) -> int:
    sys.stdout.write(io.dumps({"kind": "report", "verdict": "INPUT-ERROR",
                               "witnesses": [message], "trace": []}))
    return 2


def _fail_internal(exc: Exception) -> int:
    """An engine fault is neither a verdict nor an input error: report it
    apart from both, with the traceback on stderr."""
    import traceback  # only the fault path needs it; keeps it off every start
    traceback.print_exc(file=sys.stderr)
    sys.stdout.write(io.dumps({"kind": "report", "verdict": "INTERNAL-ERROR",
                               "witnesses": [f"{type(exc).__name__}: {exc}"], "trace": []}))
    return 3


def _load(path: str, kind: type, depth: int = 6):
    """The document at path, which must hold a `kind` (a Precosheaf or a
    Presheaf); precosheaves are read at `depth`."""
    value = io.load(path, depth=depth)
    if not isinstance(value, kind):
        raise EngineError(f"document is not a {kind.__name__.lower()}")
    return value


def _tower_profile(t) -> list[str]:
    out = []
    for lv in t.levels:
        if hasattr(lv, "elements"):
            out.append(f"size {len(lv.elements)}")
        else:
            torsion, free = lv.invariants()
            out.append(f"invariants {list(torsion)} free {free}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.command is None:
        parser.print_usage(sys.stdout)
        return 2

    try:
        if args.command == "validate":
            spec = io.load(args.site)
            return _emit(validate_site(spec))

        if args.command == "check-cosheaf":
            a = _load(args.precosheaf, Precosheaf, args.depth)
            return _emit(check_cosheaf(a, args.depth))

        if args.command == "check-sheaf":
            return _emit(check_sheaf(_load(args.presheaf, Presheaf)))

        if args.command == "cosheafify":
            result = cosheafify(_load(args.precosheaf, Precosheaf, args.depth), args.depth)
            if args.out:
                io.save(result.precosheaf, args.out)
            return _emit(result.report)

        if args.command == "sheafify":
            result = sheafify(_load(args.presheaf, Presheaf))
            if args.out:
                io.save(result.presheaf, args.out)
            return _emit(result.report)

        if args.command == "costalk":
            a = _load(args.precosheaf, Precosheaf, args.depth)
            p = a.point_filter(args.point)
            tower = costalk(a, p, args.depth)
            rv = is_rudimentary_at_depth(tower, args.depth)
            trace = [f"level {k}: {line}" for k, line in enumerate(_tower_profile(tower))]
            return _emit(CheckReport.on(a.site, tower.depth, rv.verdict, trace=trace))

        if args.command == "smooth":
            return _emit(is_smooth(_load(args.precosheaf, Precosheaf, args.depth), args.depth))

        if args.command == "demo":
            try:
                demo = demo_by_name(args.name)
            except EngineError:
                names = ", ".join(d.name for d in builtin_demos())
                return _fail_input(f"unknown demo {args.name!r}; available: {names}")
            _, data = demo.make(args.depth)
            if demo.kind == "check-cosheaf":
                inner = check_cosheaf(data, args.depth)
            elif demo.kind == "smooth":
                inner = is_smooth(data, args.depth)
            else:
                inner = check_sheaf(data)
            actual = inner.classification
            if demo.expected == "NOT-SHEAF":
                matched = actual in ("SEPARATED", "NOT-SEPARATED")
            else:
                matched = actual == demo.expected
            witnesses = () if matched else inner.witnesses or (
                f"verdict mismatch: expected {demo.expected}, got {actual}",)
            return _emit(CheckReport(
                depth=inner.depth,
                classification=actual,
                witnesses=witnesses,
                trace=(f"expected: {demo.expected}", f"actual: {actual}", *inner.trace),
            ))

        if args.command == "oracle-suite":
            report = randsuite.oracle_suite(args.seed, args.cases)
            return _emit(report)
    except EngineError as exc:
        return _fail_input(str(exc))
    except Exception as exc:
        return _fail_internal(exc)
    return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
