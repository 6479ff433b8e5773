"""The four workloads: their operations, inputs and reference answers.

Every expected value below is written out by hand (from the paper's closed
forms and from exact runs), so the benchmark never asks the program under
test what the right answer is.  The seed only permutes the operations of a
pass; the set of operations of a workload never changes.
"""

from __future__ import annotations

import csv
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Iterator

# Monoid sizes on the star with n vertices, n = 3..7.
REF_SIZES = {
    "end": {3: 6, 4: 30, 5: 260, 6: 3130, 7: 46662},
    "swend": {3: 9, 4: 34, 5: 265, 6: 3136, 7: 46669},
    "wend": {3: 17, 4: 88, 5: 689, 6: 7936, 7: 118033},
    "aut": {3: 2, 4: 6, 5: 24, 6: 120, 7: 720},
}
REF_RANKS = {
    (3, "end"): 2, (3, "swend"): 3, (3, "wend"): 3,
    (4, "end"): 4, (4, "swend"): 5, (4, "wend"): 5,
    (5, "end"): 4,
}
REF_ORACLE = {
    "end_star_presentation(5)": 260,
    "swend_star_presentation(5)": 265,
    "full_transf_presentation(4)": 256,
    "partial_transf_presentation(4)": 625,
}
# Class budgets of the refutations: the default cap max(24*|END_n| + 2048, 8192)
# of enumerate_quotient, passed explicitly so a change of default cannot
# change the work done.
REFUTE_BUDGETS = {4: 8192, 5: 8288, 6: 77168}

CLASSES = ("end", "swend", "wend")
CENSUS_CLASSES = ("end", "swend", "wend", "aut")
WORKLOADS = ("census", "certify", "structure", "oracle")


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects how it runs, ``expected`` is its answer."""

    id: str
    kind: str
    n: int
    cls: str
    expected: object


def operations(workload: str) -> list[Op]:
    """The fixed operations of one pass of ``workload``, in canonical order."""
    if workload == "census":
        return [
            Op(f"census:{n}", "census", n, "",
               {c: REF_SIZES[c][n] for c in CENSUS_CLASSES})
            for n in range(3, 8)
        ]
    if workload == "certify":
        ops = [
            Op(f"verify:{c}:{n}", "verify", n, c, REF_SIZES[c][n])
            for c in CLASSES for n in range(3, 7)
        ]
        ops += [
            Op(f"refute:end:{n}", "refute", n, "end", REF_SIZES["end"][n])
            for n in sorted(REFUTE_BUDGETS)
        ]
        return ops
    if workload == "structure":
        ops = [
            Op(f"gens:{c}:{n}", "gens", n, c, True)
            for c in CLASSES for n in range(3, 7)
        ]
        ops += [
            Op(f"regular:{c}:{n}", "regular", n, c, REF_SIZES[c][n])
            for c in CLASSES for n in range(3, 6)
        ]
        ops += [
            Op(f"rank:{c}:{n}", "rank", n, c, r) for (n, c), r in REF_RANKS.items()
        ]
        return ops
    if workload == "oracle":
        return [Op(f"oracle:{name}", "oracle", 0, name, size)
                for name, size in REF_ORACLE.items()]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def pass_orders(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless seeded permutations of the workload's operations, one per pass."""
    rng = random.Random(seed)
    while True:
        ops = operations(workload)
        rng.shuffle(ops)
        yield ops


def without_zz_relation(se, n: int):
    """``end_star_presentation(n)`` minus its ``z z = (e0 b0)^(n-3) e0`` relation."""
    pres = se.end_star_presentation(n)
    dropped = (("z", "z"), ("e0", "b0") * (n - 3) + ("e0",))
    kept = [r for r in pres.relations if r != dropped]
    if len(kept) != len(pres.relations) - 1:
        raise ValueError(f"relation z z = (e0 b0)^{n - 3} e0 not found at n={n}")
    return se.Presentation(pres.alphabet, kept)


def build_inputs(se, workload: str) -> dict:
    """Presentations an operation takes as input; built once per process."""
    if workload == "certify":
        return {n: without_zz_relation(se, n) for n in REFUTE_BUDGETS}
    if workload == "oracle":
        return {
            "end_star_presentation(5)": se.end_star_presentation(5),
            "swend_star_presentation(5)": se.swend_star_presentation(5),
            "full_transf_presentation(4)": se.full_transf_presentation(4),
            "partial_transf_presentation(4)": se.partial_transf_presentation(4),
        }
    return {}


def _cli(se, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = se.cli.main(argv)
    return code, out.getvalue()


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def execute(se, op: Op, inputs: dict) -> str | None:
    """Run ``op`` through the package's public entry points.

    Returns None when the answer matches ``op.expected``, else a one-line
    reason.  Exit codes and verdicts are part of the answer.
    """
    if op.kind == "census":
        code, out = _cli(se, ["census", "--range", f"{op.n}..{op.n}"])
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {r["class"]: (int(r["formula"]), int(r["enumerated"]), r["match"])
               for r in rows}
        want = {c: (size, size, "true") for c, size in op.expected.items()}
        if code != 0 or got != want:
            return f"exit {code}, rows {got}, expected {want}"
        return None
    if op.kind == "verify":
        code, out = _cli(se, ["verify", "--n", str(op.n), "--class", op.cls])
        got = _fields(out)
        size = str(op.expected)
        want = {"verdict": "verified", "quotient_size": size, "target_size": size,
                "relations_satisfied": "True"}
        if code != 0 or got != want:
            return f"exit {code}, report {got}, expected {want}"
        return None
    if op.kind == "refute":
        cls = se.EndoClass(op.cls)
        target = se.enumerate_class(op.n, cls)
        report = se.verify_presentation(
            inputs[op.n], target, dict(se.standard_generators(op.n, cls)),
            max_classes=REFUTE_BUDGETS[op.n],
        )
        not_verified = (se.Verdict.REFUTED_SIZE, se.Verdict.INCONCLUSIVE_BUDGET)
        if (report.verdict not in not_verified or not report.relations_satisfied
                or report.target_size != op.expected):
            return (f"verdict {report.verdict.value}, relations "
                    f"{report.relations_satisfied}, target {report.target_size}")
        return None
    if op.kind == "gens":
        code, out = _cli(se, ["check-generators", "--n", str(op.n), "--class", op.cls])
        want = f"generates: {str(op.expected).lower()}\n"
        if code != 0 or out != want:
            return f"exit {code}, output {out!r}, expected {want!r}"
        return None
    if op.kind == "regular":
        monoid = se.enumerate_class(op.n, se.EndoClass(op.cls))
        regular = se.is_regular_monoid(monoid)
        if len(monoid) != op.expected or regular is not True:
            return f"size {len(monoid)} (expected {op.expected}), regular {regular}"
        return None
    if op.kind == "rank":
        code, out = _cli(se, ["rank", "--n", str(op.n), "--class", op.cls,
                              "--max-k", "5"])
        want = f"rank: {op.expected}\n"
        if code != 0 or out != want:
            return f"exit {code}, output {out!r}, expected {want!r}"
        return None
    if op.kind == "oracle":
        size = se.word_closure_size(inputs[op.cls])
        if size != op.expected:
            return f"size {size}, expected {op.expected}"
        return None
    raise ValueError(f"unknown operation kind {op.kind!r}")
