"""Command-line front end: enumerate, verify, census, rank, dump-presentation,
check-generators.

Exit codes: 0 success/verified, 1 refuted, 2 usage error, 3 budget exhausted.
Every subcommand except dump-presentation takes --json for a structured
report; default output is human-readable (the enumerate dump and the census
CSV are timing-free, so repeated runs are byte-identical).

Each ``cmd_*`` handler returns (exit code, results, text).  :func:`main`
times the handler and writes either ``text`` or the JSON report built
around ``results``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

from . import __version__
from .errors import BudgetExceededError, NotGeneratingError, _require_count, _require_seconds
from .graphs import (
    MAX_SCAN_DEGREE,
    EndoClass,
    _scan_counts,
    cardinality_formula,
    count_class,
    enumerate_class,
    standard_generators,
)
from .monoid import DEFAULT_TIME_BUDGET_S, format_monoid, rank_exact
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

PRESENTATION_BUILDERS = {
    "end": end_star_presentation,
    "swend": swend_star_presentation,
    "wend": wend_star_presentation,
}

CENSUS_CLASSES = ["end", "swend", "wend", "aut"]


def _dump_builders() -> dict:
    """dump-presentation's builders by name; read at call time, so that a
    replaced entry of ``PRESENTATION_BUILDERS`` applies."""
    return {
        "sym": sym_presentation,
        "tfull": full_transf_presentation,
        "tpartial": partial_transf_presentation,
        **PRESENTATION_BUILDERS,
    }


def _emit(text: str, output: str | None) -> str:
    """Write ``text`` to the ``output`` path, if one is given, and return
    what is left for stdout.  A path that cannot be written is a usage error.
    """
    if not output:
        return text
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {output}: {exc.strerror or exc}") from exc
    return ""


def cmd_enumerate(args) -> tuple[int, dict, str]:
    monoid = enumerate_class(args.n, EndoClass(args.cls))
    dump = format_monoid(monoid)
    results = {"degree": args.n, "class": args.cls, "size": len(monoid)}
    if args.output:
        results["output"] = args.output
    elif args.json:
        results["dump_lines"] = dump.splitlines()
    if not args.json:
        print(f"enumerated {args.cls} n={args.n}: size {len(monoid)}", file=sys.stderr)
    return EXIT_OK, results, _emit(dump, args.output)


def cmd_verify(args) -> tuple[int, dict, str]:
    # before the presentation and the class scan, not after them
    _require_count("--budget-classes", args.budget_classes)
    cls = EndoClass(args.cls)
    report = verify_presentation(
        PRESENTATION_BUILDERS[args.cls](args.n),
        enumerate_class(args.n, cls),
        dict(standard_generators(args.n, cls)),
        presentation_id=f"{args.cls}_star_presentation({args.n})",
        target_id=f"{args.cls}(n={args.n})",
        max_classes=args.budget_classes,
    )
    results = report.to_dict()
    text = "".join(
        f"{key}: {results[key]}\n"
        for key in ("verdict", "quotient_size", "target_size", "relations_satisfied")
    )
    code = {Verdict.VERIFIED: EXIT_OK, Verdict.INCONCLUSIVE_BUDGET: EXIT_BUDGET}.get(
        report.verdict, EXIT_REFUTED
    )
    return code, results, text


def cmd_census(args) -> tuple[int, dict, str]:
    """Each closed form against two independent counts: the scan's bucket size
    (``enumerated``, empty above the scan limit) and the leaf-orbit count
    (``counted``).  No monoid is built, so generation is not checked here;
    that is ``check-generators``' job.
    """
    lo, hi = args.range
    rows = []
    for n in range(lo, hi + 1):
        scanned = _scan_counts(n) if n <= MAX_SCAN_DEGREE else None
        for name in CENSUS_CLASSES:
            cls = EndoClass(name)
            try:
                formula = cardinality_formula(n, cls)
            except ValueError:  # outside the formula's validity range
                continue
            enumerated = None if scanned is None else scanned[cls]
            counted = count_class(n, cls)
            rows.append({"n": n, "class": name, "formula": formula,
                         "enumerated": enumerated, "counted": counted,
                         "match": formula == counted and enumerated in (None, formula)})
    all_match = all(r["match"] for r in rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "class", "formula", "enumerated", "counted", "match"])
    writer.writerows([r["n"], r["class"], r["formula"], r["enumerated"], r["counted"],
                      str(r["match"]).lower()] for r in rows)
    results = {"rows": rows, "all_match": all_match}
    if args.output:
        results["output"] = args.output
    return EXIT_OK if all_match else EXIT_REFUTED, results, _emit(buf.getvalue(), args.output)


def cmd_rank(args) -> tuple[int, dict, str]:
    # before the class scan, not after it
    _require_count("--max-k", args.max_k, 0)
    _require_seconds("--budget-seconds", args.budget_seconds)
    target = enumerate_class(args.n, EndoClass(args.cls))
    try:
        rank = rank_exact(target, args.max_k, time_budget_s=args.budget_seconds)
    except BudgetExceededError:
        rank, verdict, lower_bound = None, "unknown-budget", None
    else:
        if rank is not None:
            verdict, lower_bound = "exact", rank
        else:  # proved: no subset of size <= max_k generates the monoid
            verdict, lower_bound = "lower-bound", args.max_k + 1
    results = {
        "degree": args.n,
        "class": args.cls,
        "max_k": args.max_k,
        "rank": rank,
        "lower_bound": lower_bound,
        "verdict": verdict,
    }
    shown = {
        "exact": rank,
        "lower-bound": f"> {args.max_k} (lower-bound)",
        "unknown-budget": "unknown (unknown-budget)",
    }[verdict]
    return EXIT_BUDGET if verdict == "unknown-budget" else EXIT_OK, results, f"rank: {shown}\n"


def cmd_dump_presentation(args) -> tuple[int, dict, str]:
    pres = _dump_builders()[args.which](args.n)
    return EXIT_OK, {}, _emit(presentation_to_json(pres), args.output)


def cmd_check_generators(args) -> tuple[int, dict, str]:
    """The class monoid is built on the standard generators, and building it
    proves that they generate the scanned class; a failed proof is the answer
    false."""
    cls = EndoClass(args.cls)
    try:
        ok, size = True, len(enumerate_class(args.n, cls))
    except NotGeneratingError:
        ok, size = False, _scan_counts(args.n)[cls]
    gens = standard_generators(args.n, cls)
    results = {
        "degree": args.n,
        "class": args.cls,
        "generators": {nm: t.format() for nm, t in gens},
        "generates": ok,
        "target_size": size,
    }
    return EXIT_OK if ok else EXIT_REFUTED, results, f"generates: {str(ok).lower()}\n"


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first :func:`main` call.

    Reusing it is safe: ``parse_args`` returns a fresh namespace each time,
    and the handlers it dispatches to look up their engines at call time.
    """
    parser = argparse.ArgumentParser(
        prog="starendo",
        description="Endomorphism-type monoids of star graphs: enumeration and "
                    "presentation certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    all_classes = sorted(c.value for c in EndoClass)

    def add_common(p, classes):
        p.add_argument("--n", type=int, required=True, help="number of vertices")
        p.add_argument("--class", dest="cls", choices=classes, required=True)
        p.add_argument("--json", action="store_true", help="structured report on stdout")

    p = sub.add_parser("enumerate", help="enumerate one endomorphism-type monoid")
    add_common(p, all_classes)
    p.add_argument("--output", help="write the monoid dump to this path")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="certify a star presentation against the monoid")
    add_common(p, sorted(PRESENTATION_BUILDERS))
    p.add_argument("--budget-classes", type=int, default=10**6,
                   help="class budget for quotient enumeration")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "census",
        help=f"closed-form sizes vs the exhaustive scan (n <= {MAX_SCAN_DEGREE}) and the "
             "leaf-orbit count, over a range",
    )
    p.add_argument("--range", type=_parse_range, required=True, help="e.g. 3..5")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", help="write the CSV to this path")
    p.set_defaults(handler=cmd_census)

    p = sub.add_parser("rank", help="minimum generating set size, one J-class at a time")
    add_common(p, all_classes)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--budget-seconds", type=float, default=DEFAULT_TIME_BUDGET_S)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("dump-presentation", help="write a presentation as structured text")
    p.add_argument("--which", choices=list(_dump_builders()), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(handler=cmd_dump_presentation)

    p = sub.add_parser("check-generators", help="standard generators generate the monoid")
    add_common(p, sorted(PRESENTATION_BUILDERS))
    p.set_defaults(handler=cmd_check_generators)
    return parser


def _parameters(args) -> dict:
    """The inputs a --json report echoes."""
    if args.command == "census":
        lo, hi = args.range
        return {"range": f"{lo}..{hi}"}
    parameters = {"n": args.n, "class": args.cls}
    if args.command == "rank":
        parameters["max_k"] = args.max_k
        seconds = args.budget_seconds  # JSON has no infinity; null reads as no limit
        parameters["budget_seconds"] = None if seconds == float("inf") else seconds
    if args.command == "verify":
        parameters["budget_classes"] = args.budget_classes
    return parameters


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    t0 = time.perf_counter()
    try:
        code, results, text = args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "json", False):
        report = {
            "command": "starendo " + " ".join(argv),
            "version": __version__,
            "parameters": _parameters(args),
            "results": results,
            "timings_ms": {args.command: (time.perf_counter() - t0) * 1000.0},
        }
        text = json.dumps(report, indent=2) + "\n"
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
