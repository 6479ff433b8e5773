"""Command-line front end: enumerate, verify, census, rank, dump-presentation,
check-generators.

Exit codes: 0 success/verified, 1 refuted, 2 usage error, 3 budget exhausted.
All subcommands take --json for a structured report; default output is
human-readable (the enumerate dump and the census CSV are timing-free, so
repeated runs are byte-identical).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__
from .errors import BudgetExceededError
from .graphs import (
    EndoClass,
    cardinality_formula,
    enumerate_class,
    standard_generators,
)
from .monoid import format_monoid, is_generating_set, rank_exact
from .presentations import (
    end_star_presentation,
    full_transf_presentation,
    partial_transf_presentation,
    presentation_to_json,
    swend_star_presentation,
    sym_presentation,
    wend_star_presentation,
)
from .verify import Verdict, verify_presentation

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

CLASS_BY_NAME = {
    "end": EndoClass.END,
    "send": EndoClass.STRONG_END,
    "swend": EndoClass.STRONG_WEAK_END,
    "wend": EndoClass.WEAK_END,
    "aut": EndoClass.AUT,
}

PRESENTATION_BUILDERS = {
    "end": end_star_presentation,
    "swend": swend_star_presentation,
    "wend": wend_star_presentation,
}

CENSUS_CLASSES = ["end", "swend", "wend", "aut"]


def _report(argv: list[str], parameters: dict, results: dict, timings_ms: dict) -> dict:
    return {
        "command": "starendo " + " ".join(argv),
        "version": __version__,
        "parameters": parameters,
        "results": results,
        "timings_ms": timings_ms,
    }


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def cmd_enumerate(args, argv: list[str]) -> int:
    cls = CLASS_BY_NAME[args.cls]
    t0 = time.perf_counter()
    monoid = enumerate_class(args.n, cls, max_degree=args.budget_scan)
    elapsed = (time.perf_counter() - t0) * 1000.0
    dump = format_monoid(monoid)
    results = {"degree": args.n, "class": args.cls, "size": len(monoid)}
    if args.output:
        _emit(dump, args.output)
        results["output"] = args.output
    if args.json:
        if not args.output:
            results["dump_lines"] = dump.splitlines()
        _print_json(
            _report(argv, {"n": args.n, "class": args.cls}, results, {"enumerate": elapsed})
        )
    else:
        if not args.output:
            sys.stdout.write(dump)
        print(f"enumerated {args.cls} n={args.n}: size {len(monoid)}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args, argv: list[str]) -> int:
    if args.cls not in PRESENTATION_BUILDERS:
        print(f"verify supports classes {sorted(PRESENTATION_BUILDERS)}", file=sys.stderr)
        return EXIT_USAGE
    if args.n < 3:
        print("verify needs --n at least 3 (presentations start there)", file=sys.stderr)
        return EXIT_USAGE
    cls = CLASS_BY_NAME[args.cls]
    t0 = time.perf_counter()
    pres = PRESENTATION_BUILDERS[args.cls](args.n)
    target = enumerate_class(args.n, cls, max_degree=args.budget_scan)
    assignment = dict(standard_generators(args.n, cls))
    report = verify_presentation(
        pres,
        target,
        assignment,
        presentation_id=f"{args.cls}_star_presentation({args.n})",
        target_id=f"{args.cls}(n={args.n})",
        max_classes=args.budget_classes,
    )
    elapsed = (time.perf_counter() - t0) * 1000.0
    doc = _report(
        argv,
        {"n": args.n, "class": args.cls},
        report.to_dict(),
        {"verify": elapsed},
    )
    if args.json:
        _print_json(doc)
    else:
        d = report.to_dict()
        for key in ("verdict", "quotient_size", "target_size", "relations_satisfied"):
            print(f"{key}: {d[key]}")
    if report.verdict is Verdict.VERIFIED:
        return EXIT_OK
    if report.verdict is Verdict.INCONCLUSIVE_BUDGET:
        return EXIT_BUDGET
    return EXIT_REFUTED


def cmd_census(args, argv: list[str]) -> int:
    lo, hi = args.range
    t0 = time.perf_counter()
    rows = []
    all_match = True
    for n in range(lo, hi + 1):
        for name in CENSUS_CLASSES:
            cls = CLASS_BY_NAME[name]
            try:
                formula = cardinality_formula(n, cls)
            except ValueError:  # outside the formula's validity range
                continue
            enumerated = len(enumerate_class(n, cls, max_degree=args.budget_scan))
            match = formula == enumerated
            all_match = all_match and match
            rows.append(
                {
                    "n": n,
                    "class": name,
                    "formula": formula,
                    "enumerated": enumerated,
                    "match": match,
                }
            )
    elapsed = (time.perf_counter() - t0) * 1000.0
    if args.json:
        _print_json(
            _report(argv, {"range": f"{lo}..{hi}"}, {"rows": rows, "all_match": all_match},
                    {"census": elapsed})
        )
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n", "class", "formula", "enumerated", "match"])
        for r in rows:
            writer.writerow([r["n"], r["class"], r["formula"], r["enumerated"],
                             str(r["match"]).lower()])
        _emit(buf.getvalue(), args.output)
    return EXIT_OK if all_match else EXIT_REFUTED


def cmd_rank(args, argv: list[str]) -> int:
    cls = CLASS_BY_NAME[args.cls]
    t0 = time.perf_counter()
    target = enumerate_class(args.n, cls, max_degree=args.budget_scan)
    started = time.monotonic()
    rank = rank_exact(target, args.max_k, time_budget_s=args.budget_seconds)
    budget_hit = rank is None and (time.monotonic() - started) >= args.budget_seconds
    elapsed = (time.perf_counter() - t0) * 1000.0
    if rank is not None:
        verdict = "exact"
    elif budget_hit:
        verdict = "unknown-budget"
    else:
        verdict = "unknown-no-subset"
    results = {
        "degree": args.n,
        "class": args.cls,
        "max_k": args.max_k,
        "rank": rank,
        "verdict": verdict,
    }
    if args.json:
        _print_json(
            _report(argv, {"n": args.n, "class": args.cls, "max_k": args.max_k},
                    results, {"rank": elapsed})
        )
    else:
        shown = rank if rank is not None else f"unknown ({verdict})"
        print(f"rank: {shown}")
    return EXIT_BUDGET if verdict == "unknown-budget" else EXIT_OK


def cmd_dump_presentation(args, argv: list[str]) -> int:
    builders = {
        "sym": sym_presentation,
        "tfull": full_transf_presentation,
        "tpartial": partial_transf_presentation,
        **PRESENTATION_BUILDERS,
    }
    pres = builders[args.which](args.n)
    _emit(presentation_to_json(pres), args.output)
    return EXIT_OK


def cmd_check_generators(args, argv: list[str]) -> int:
    if args.cls not in PRESENTATION_BUILDERS:
        print(f"check-generators supports classes {sorted(PRESENTATION_BUILDERS)}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.n < 3:
        print("check-generators needs --n at least 3", file=sys.stderr)
        return EXIT_USAGE
    cls = CLASS_BY_NAME[args.cls]
    t0 = time.perf_counter()
    target = enumerate_class(args.n, cls, max_degree=args.budget_scan)
    gens = standard_generators(args.n, cls)
    ok = is_generating_set(target, [t for _, t in gens])
    elapsed = (time.perf_counter() - t0) * 1000.0
    results = {
        "degree": args.n,
        "class": args.cls,
        "generators": {nm: t.format() for nm, t in gens},
        "generates": ok,
        "target_size": len(target),
    }
    if args.json:
        _print_json(
            _report(argv, {"n": args.n, "class": args.cls}, results, {"check": elapsed})
        )
    else:
        print(f"generates: {str(ok).lower()}")
    return EXIT_OK if ok else EXIT_REFUTED


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected e.g. 3..5")
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return lo_i, hi_i


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starendo",
        description="Endomorphism-type monoids of star graphs: enumeration and "
                    "presentation certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, classes, *, needs_n=True):
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="number of vertices")
        p.add_argument("--class", dest="cls", choices=classes, required=True)
        p.add_argument("--json", action="store_true", help="structured report on stdout")
        p.add_argument("--budget-scan", type=int, default=8,
                       help="largest degree the exhaustive scan accepts")

    p = sub.add_parser("enumerate", help="enumerate one endomorphism-type monoid")
    add_common(p, sorted(CLASS_BY_NAME))
    p.add_argument("--output", help="write the monoid dump to this path")

    p = sub.add_parser("verify", help="certify a star presentation against the monoid")
    add_common(p, sorted(CLASS_BY_NAME))
    p.add_argument("--budget-classes", type=int, default=10**6,
                   help="class budget for quotient enumeration")

    p = sub.add_parser("census", help="closed-form sizes vs exhaustive scan over a range")
    p.add_argument("--range", type=_parse_range, required=True, help="e.g. 3..5")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget-scan", type=int, default=8)
    p.add_argument("--output", help="write the CSV to this path")

    p = sub.add_parser("rank", help="minimum generating set size by exhaustive search")
    add_common(p, sorted(CLASS_BY_NAME))
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--budget-seconds", type=float, default=600.0)

    p = sub.add_parser("dump-presentation", help="write a presentation as structured text")
    p.add_argument("--which", choices=["sym", "tfull", "tpartial", "end", "swend", "wend"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output")

    p = sub.add_parser("check-generators", help="standard generators generate the monoid")
    add_common(p, sorted(PRESENTATION_BUILDERS))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
        "census": cmd_census,
        "rank": cmd_rank,
        "dump-presentation": cmd_dump_presentation,
        "check-generators": cmd_check_generators,
    }
    try:
        return handlers[args.command](args, argv)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
