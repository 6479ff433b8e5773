"""Guess-and-prove verification of a presentation against a concrete monoid.

A presentation defines a given finite monoid when (1) the chosen generators
satisfy every relation and (2) the presented quotient has exactly the
monoid's cardinality: condition (1) gives a surjection from the quotient
onto the monoid, and equal finite sizes force that surjection to be an
isomorphism.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass
from typing import Mapping, Optional

from .congruence import QuotientExceeded, QuotientStats, enumerate_quotient
from .errors import _require_count
from .monoid import TransformationMonoid, check_relation, is_generating_set
from .presentations import Presentation, Relation
from .transform import Transformation

SOUNDNESS_NOTE = (
    "generators satisfying every relation induce a surjection from the presented "
    "quotient onto the monoid; quotient size equal to monoid size forces that "
    "surjection to be an isomorphism"
)


class Verdict(enum.Enum):
    VERIFIED = "verified"
    REFUTED_RELATIONS = "refuted-relations"
    REFUTED_SIZE = "refuted-size"
    INCONCLUSIVE_BUDGET = "inconclusive-budget"


@dataclass(frozen=True)
class VerificationReport:
    presentation_id: str
    target_id: str
    relations_satisfied: bool
    failing_relations: tuple[Relation, ...]
    quotient_size: Optional[int]  # exact size when known, else None
    quotient_exceeded: bool
    classes_reached: Optional[int]
    target_size: int
    verdict: Verdict
    note: str
    counters: Optional[QuotientStats] = None  # None when no enumeration ran

    def to_dict(self) -> dict:
        return {
            "presentation_id": self.presentation_id,
            "target_id": self.target_id,
            "relations_satisfied": self.relations_satisfied,
            "failing_relations": [
                [list(u), list(v)] for u, v in self.failing_relations
            ],
            "quotient_size": "exceeded" if self.quotient_exceeded and self.quotient_size is None else self.quotient_size,
            "classes_reached": self.classes_reached,
            "target_size": self.target_size,
            "verdict": self.verdict.value,
            "note": self.note,
            "counters": None if self.counters is None else asdict(self.counters),
        }


def satisfies_relations(
    assignment: Mapping[str, Transformation], pres: Presentation
) -> tuple[bool, tuple[Relation, ...]]:
    """Check every relation pointwise; return (all hold, failing relations)."""
    missing = [x for x in pres.alphabet if x not in assignment]
    if missing:
        raise ValueError(f"letters without assigned transformations: {missing}")
    failures = tuple(
        (u, v) for u, v in pres.relations if not check_relation(assignment, u, v)
    )
    return not failures, failures


def verify_presentation(
    pres: Presentation,
    target: TransformationMonoid,
    assignment: Mapping[str, Transformation],
    *,
    presentation_id: str = "presentation",
    target_id: str = "monoid",
    max_classes: int | None = None,
) -> VerificationReport:
    """Decide whether the presentation defines the target monoid.

    The assignment must cover exactly the alphabet and its images must
    generate the target (violations raise ValueError; they are precondition
    failures, not refutations), and ``max_classes``, the class budget of the
    quotient enumeration, must be None or an ``int`` of at least 1 (else
    ValueError).  A finished quotient table smaller than the target is an
    engine fault and raises AssertionError.
    """
    target_size = len(target)
    if max_classes is None:
        # enumeration can transiently hold many more classes than the final
        # quotient before collapses land, hence the generous default slack.
        # Peak live classes against the final size, from QuotientStats: end n=6
        # 55,128 / 3,130 (17.6x), wend n=6 111,781 / 7,936 (14.1x).  The slack is
        # not always enough: end n=7 passes this cap (1,121,936 for a final
        # 46,662) with 1,121,950 live classes and stops unfinished
        max_classes = max(24 * target_size + 2048, 8192)
    _require_count("max_classes", max_classes)
    if set(assignment) != set(pres.alphabet):
        raise ValueError(
            f"assignment letters {sorted(assignment)} do not match alphabet "
            f"{sorted(pres.alphabet)}"
        )
    generators = [assignment[x] for x in pres.alphabet]
    if not is_generating_set(target, generators):
        raise ValueError("assignment images do not generate the target monoid")

    ok, failures = satisfies_relations(assignment, pres)
    quotient_size = classes_reached = counters = None
    exceeded, note = False, ""
    if not ok:
        verdict = Verdict.REFUTED_RELATIONS
        note = "some relations fail on the generators; "
    else:
        result = enumerate_quotient(pres, max_classes=max_classes)
        counters = result.stats
        if isinstance(result, QuotientExceeded):
            exceeded = True
            classes_reached = result.classes_reached
            verdict = Verdict.INCONCLUSIVE_BUDGET
            note = "class budget exhausted before enumeration finished; "
        else:
            # the relations hold and the images generate the target, so the
            # quotient has at least target_size classes
            if result.size < target_size:
                raise AssertionError(
                    f"quotient table of {result.size} classes for a target of {target_size}"
                )
            quotient_size = classes_reached = result.size
            exceeded = result.size > target_size
            if exceeded:
                verdict = Verdict.REFUTED_SIZE
                note = "quotient enumeration finished above the target size; "
            else:
                verdict = Verdict.VERIFIED
    return VerificationReport(
        presentation_id=presentation_id,
        target_id=target_id,
        relations_satisfied=ok,
        failing_relations=failures,
        quotient_size=quotient_size,
        quotient_exceeded=exceeded,
        classes_reached=classes_reached,
        target_size=target_size,
        verdict=verdict,
        note=note + SOUNDNESS_NOTE,
        counters=counters,
    )
