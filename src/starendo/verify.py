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
from .transform import Transformation, _require_map

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


# the start of each report's note, before SOUNDNESS_NOTE
_NOTE_PREFIX = {
    Verdict.VERIFIED: "",
    Verdict.REFUTED_RELATIONS: "some relations fail on the generators; ",
    Verdict.REFUTED_SIZE: "quotient enumeration finished above the target size; ",
    Verdict.INCONCLUSIVE_BUDGET: "class budget exhausted before enumeration finished; ",
}


@dataclass(frozen=True)
class VerificationReport:
    presentation_id: str
    target_id: str
    relations_satisfied: bool
    failing_relations: tuple[Relation, ...]
    quotient_size: Optional[int]  # exact size when known, else None
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
            "quotient_size": (
                "exceeded" if self.verdict is Verdict.INCONCLUSIVE_BUDGET else self.quotient_size
            ),
            "classes_reached": self.classes_reached,
            "target_size": self.target_size,
            "verdict": self.verdict.value,
            "note": self.note,
            "counters": None if self.counters is None else asdict(self.counters),
        }


def satisfies_relations(
    assignment: Mapping[str, Transformation], pres: Presentation
) -> tuple[bool, tuple[Relation, ...]]:
    """Check every relation pointwise; return (all hold, failing relations).

    Raises ValueError when a letter of the alphabet has no assigned value, or
    the assigned values are not all ``Transformation``s of one degree,
    whichever relations there are.
    """
    missing = [x for x in pres.alphabet if x not in assignment]
    if missing:
        raise ValueError(f"letters without assigned transformations: {missing}")
    degree = None
    for value in assignment.values():
        degree = _require_map(value, degree).degree
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
    max_classes: int,
) -> VerificationReport:
    """Decide whether the presentation defines the target monoid.

    The assignment must cover exactly the alphabet and its images must
    generate the target (violations raise ValueError; they are precondition
    failures, not refutations), and ``max_classes``, the class budget of the
    quotient enumeration, is the caller's and must be an ``int`` of at least 1
    (else ValueError).  A finished quotient table smaller than the target is
    an engine fault and raises AssertionError.
    """
    _require_count("max_classes", max_classes)
    if set(assignment) != set(pres.alphabet):
        raise ValueError(
            f"assignment letters {sorted(assignment)} do not match alphabet "
            f"{sorted(pres.alphabet)}"
        )
    if not is_generating_set(target, [assignment[x] for x in pres.alphabet]):
        raise ValueError("assignment images do not generate the target monoid")

    target_size = len(target)
    ok, failures = satisfies_relations(assignment, pres)
    result = enumerate_quotient(pres, max_classes=max_classes) if ok else None
    if result is None:
        verdict, quotient_size, classes_reached = Verdict.REFUTED_RELATIONS, None, None
    elif isinstance(result, QuotientExceeded):
        verdict, quotient_size = Verdict.INCONCLUSIVE_BUDGET, None
        classes_reached = result.classes_reached
    elif result.size < target_size:
        # the relations hold and the images generate the target, so the
        # quotient has at least target_size classes
        raise AssertionError(f"quotient of {result.size} classes for a target of {target_size}")
    else:
        verdict = Verdict.VERIFIED if result.size == target_size else Verdict.REFUTED_SIZE
        quotient_size = classes_reached = result.size
    return VerificationReport(
        presentation_id=presentation_id,
        target_id=target_id,
        relations_satisfied=ok,
        failing_relations=failures,
        quotient_size=quotient_size,
        classes_reached=classes_reached,
        target_size=target_size,
        verdict=verdict,
        note=_NOTE_PREFIX[verdict] + SOUNDNESS_NOTE,
        counters=None if result is None else result.stats,
    )
