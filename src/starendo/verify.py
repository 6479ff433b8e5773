"""Guess-and-prove verification of a presentation against a concrete monoid.

A presentation defines a given finite monoid when (1) the chosen generators
satisfy every relation and (2) the presented quotient's finished table,
renumbered breadth-first from the class of the empty word, equals entry for
entry the monoid's breadth-first walk from the identity over the images of
the letters in alphabet order.  Condition (1) gives a surjection
[w] -> phi(w) from the quotient onto the monoid.  The enumerator merges only
congruent words, so the words that reach one class of its table are
congruent.  Both tables are standardized in Sims' sense, so by (2) class q
and element q are reached by the same words: words with one image are
congruent, and the surjection is a bijection, an isomorphism.  (2) also
implies that every relation u = v holds at every class, since at the class
of element x both sides reach x*phi(u) = x*phi(v); so ``verify`` runs no
separate ``CongruenceTable.check``.  A finished table of the target's size
that differs from the walk, or one smaller than the target, is an engine
fault and raises AssertionError.  A larger one is checked against every
relation before it refutes the size.

The finished table comes from ``_level_walk``, which enumerates by
alphabet-prefix levels (for the star builders Z_2, S_(n-1), T_(n-1), then
END_n and SWEND_n, or PT_(n-1) and WEND_n), each level's run extending the
finished table of the level below; the README gives the soundness argument.
The certificate is the equality above, of the last level's table.

Before any enumeration, a presentation whose relations hold on the
generators is searched for a relation-invariant weight (Book and Otto,
*String-Rewriting Systems*, ch. 2): a map w from letters to Q with
w(u) = w(v) for every relation u = v and w(x) != 0 for some letter x.
Extended additively to words, w is constant on each congruence class, since
replacing a side of a relation inside a word keeps its sum, so it is a
homomorphism from the presented monoid onto a submonoid of (Q, +).  The
words x^k map to the distinct k*w(x), so the presented monoid is infinite
and cannot be the finite target: ``refuted-size``, with no enumeration.  The
weight is found by exact elimination over ``Fraction``s and recounted on
every relation by a checker that shares no code with the search; a weight
that fails the recount is an engine fault and raises AssertionError.  The
same test skips the proper levels of the walk that present infinite
monoids.  A presentation with no weight may still be infinite, and then
ends ``inconclusive-budget`` when its run fills the class budget.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .congruence import QuotientStats, _checked_table, _standardized
from .errors import _require_count
from .monoid import (
    TransformationMonoid, _generating_walk, _require_assignment, _require_monoid, check_relation,
)
from .presentations import Presentation, Relation, _require_presentation
from .transform import Transformation, _require_map

SOUNDNESS_NOTE = (
    "generators satisfying every relation induce a surjection from the presented "
    "quotient onto the monoid; a finished quotient table equal entry for entry to "
    "the monoid's breadth-first walk over the generators proves that surjection an "
    "isomorphism, and that every relation holds at every class"
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
_WEIGHT_NOTE_PREFIX = "a relation-invariant weight proves the quotient infinite; "


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
    # the relation-invariant weight that proves the quotient infinite, letters
    # of weight 0 left out; None when none was found
    weight: Optional[dict[str, Fraction]] = None

    def to_dict(self) -> dict:
        """The fields in order, with the verdict as its value, the quotient
        size as ``"exceeded"`` when the class budget ran out and as
        ``"infinite"`` when a weight proves it, and the weight's values as
        strings such as ``"1"`` or ``"-1/2"``."""
        report = asdict(self)
        report["verdict"] = self.verdict.value
        if self.verdict is Verdict.INCONCLUSIVE_BUDGET:
            report["quotient_size"] = "exceeded"
        if self.weight is not None:
            report["quotient_size"] = "infinite"
            report["weight"] = {x: str(w) for x, w in self.weight.items()}
        return report


def satisfies_relations(
    assignment: Mapping[str, Transformation], pres: Presentation
) -> tuple[bool, tuple[Relation, ...]]:
    """Check every relation pointwise; return (all hold, failing relations).

    Raises ValueError when the assignment is not a Mapping, a letter of the
    alphabet has no assigned value, or the assigned values are not all
    ``Transformation``s of one degree, whichever relations there are.
    """
    _require_assignment(assignment)
    missing = [x for x in _require_presentation(pres).alphabet if x not in assignment]
    if missing:
        raise ValueError(f"letters without assigned transformations: {missing}")
    degree = None
    for value in assignment.values():
        degree = _require_map(value, degree).degree
    failures = tuple(
        (u, v) for u, v in pres.relations if not check_relation(assignment, u, v)
    )
    return not failures, failures


def _find_weight(pres: Presentation) -> Optional[dict[str, Fraction]]:
    """A relation-invariant weight of ``pres``, letters of weight 0 left out,
    or None when the zero map is the only one.

    Each relation u = v is the row of count(x in u) - count(x in v) over the
    letters x; a weight is a nonzero vector of the rows' null space.  Gaussian
    elimination over ``Fraction``s brings the distinct nonzero rows to
    reduced echelon form, which does not depend on their order; the first
    column without a pivot gets weight 1, every later one 0, and each
    pivot's letter is solved from its row.
    """
    col = {x: i for i, x in enumerate(pres.alphabet)}
    distinct = set()
    for u, v in pres.relations:
        row = [0] * len(col)
        for x in u:
            row[col[x]] += 1
        for x in v:
            row[col[x]] -= 1
        if any(row):
            distinct.add(tuple(row))
    rows = [[Fraction(a) for a in row] for row in distinct]
    pivots = []  # pivots[i] is the column of row i's leading 1
    for c in range(len(col)):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [a / lead for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = row[c]
                rows[i] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    free = next((c for c in range(len(col)) if c not in pivots), None)
    if free is None:
        return None
    weight = {pres.alphabet[free]: Fraction(1)}
    for row, c in zip(rows, pivots):
        if row[free]:
            weight[pres.alphabet[c]] = -row[free]
    return weight


def _check_weight(pres: Presentation, weight: Mapping[str, Fraction]) -> None:
    """Raise AssertionError unless ``weight`` (letter -> value, missing
    letters 0) gives both sides of every relation of ``pres`` one sum and
    some letter a nonzero value.  Independent of ``_find_weight``."""
    if not set(weight) <= set(pres.alphabet):
        raise AssertionError(f"weight {weight} names letters outside {pres.alphabet}")
    if all(w == 0 for w in weight.values()):
        raise AssertionError(f"weight {weight} is zero on every letter")
    for u, v in pres.relations:
        if sum(weight.get(x, 0) for x in u) != sum(weight.get(x, 0) for x in v):
            raise AssertionError(f"weight {weight} differs on the sides of {u} = {v}")


def _certified_weight(pres: Presentation) -> Optional[dict[str, Fraction]]:
    """``_find_weight(pres)``, recounted by ``_check_weight`` when found."""
    weight = _find_weight(pres)
    if weight is not None:
        _check_weight(pres, weight)
    return weight


# A proper level's run is capped at this many times the target's size.  The
# star builders' proper levels peak at 6 to 25 times it (T_3 under END_4 to
# T_6 under END_7), so the cap lets them finish, and it bounds what a level
# that presents an infinite monoid costs before it is given up.
LEVEL_CAP_FACTOR = 64


def _level_walk(pres: Presentation, max_classes: int, level_cap: int):
    """The finished, standardized quotient table by alphabet-prefix levels:
    (flat table, live classes, counters), the table None on budget.

    Level i is the presentation of the relations whose letters all lie in
    the first i letters of the alphabet, and the last level is ``pres``
    itself, run under ``max_classes``.  Each proper level runs under
    ``level_cap`` from the last finished table below it, and is
    skipped without a run when it has a relation-invariant weight (its
    monoid is then infinite).  The first proper level that runs out of
    ``level_cap`` ends the walk: ``pres`` then runs from the last finished
    table.  The README gives the soundness argument.  The counters sum
    ``classes_defined`` and ``coincidences`` and take the largest
    ``peak_live`` over the levels the table stands on, so
    ``classes_defined - coincidences`` is its live count.
    """
    pos = {x: i for i, x in enumerate(pres.alphabet)}
    reach = [max(map(pos.__getitem__, u + v), default=-1) for u, v in pres.relations]
    levels, start = [], None
    for i in range(1, len(pres.alphabet)):
        level = Presentation(
            pres.alphabet[:i], [r for r, top in zip(pres.relations, reach) if top < i]
        )
        if _certified_weight(level) is not None:
            continue
        flat, size, stats = _standardized(level, level_cap, start)
        if flat is None:
            break
        levels.append(stats)
        start = flat, size, i
    flat, size, stats = _standardized(pres, max_classes, start)
    levels.append(stats)
    return flat, size, QuotientStats(
        classes_defined=sum(s.classes_defined for s in levels),
        peak_live=max(s.peak_live for s in levels),
        coincidences=sum(s.coincidences for s in levels),
    )


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

    The assignment must be a Mapping that covers exactly the alphabet and
    its images must generate the target (violations raise ValueError; they
    are precondition failures, not refutations), and ``max_classes``, the
    class budget of the quotient enumeration, is the caller's and must be an
    ``int`` of at least 1 (else ValueError).

    ``verified`` means that the finished quotient table, renumbered
    breadth-first, equals the target's breadth-first walk over the images in
    alphabet order (the target's own walk when they are its generators in
    order, else the walk of the closure that proves they generate it).  That
    equality proves the isomorphism and implies every relation at every
    class, so no ``CongruenceTable.check`` runs.  A finished table of the
    target's size that differs from the walk, or one smaller than the
    target, is an engine fault and raises AssertionError.  A larger table is
    built and checked against every relation before it is ``refuted-size``.
    The table and the counters are ``_level_walk``'s.  When the relations
    hold and ``_certified_weight`` finds a weight, the verdict is
    ``refuted-size`` with that weight, no enumeration runs, and the size, the
    classes reached and the counters are None.
    """
    _require_presentation(pres)
    _require_count("max_classes", max_classes)
    if set(_require_assignment(assignment)) != set(pres.alphabet):
        raise ValueError(
            f"assignment letters {sorted(assignment)} do not match alphabet "
            f"{sorted(pres.alphabet)}"
        )
    _require_monoid(target)
    images = [_require_map(assignment[x], target.degree) for x in pres.alphabet]
    walk = _generating_walk(target, images)
    if walk is None:
        raise ValueError("assignment images do not generate the target monoid")

    target_size = len(target)
    ok, failures = satisfies_relations(assignment, pres)
    weight = _certified_weight(pres) if ok else None
    flat = size = stats = None
    if ok and weight is None:
        level_cap = min(max_classes, LEVEL_CAP_FACTOR * target_size)
        flat, size, stats = _level_walk(pres, max_classes, level_cap)
    if not ok:
        verdict, quotient_size, classes_reached = Verdict.REFUTED_RELATIONS, None, None
    elif weight is not None:
        verdict, quotient_size, classes_reached = Verdict.REFUTED_SIZE, None, None
    elif flat is None:
        verdict, quotient_size, classes_reached = Verdict.INCONCLUSIVE_BUDGET, None, size
    elif size < target_size:
        # the relations hold and the images generate the target, so the
        # quotient has at least target_size classes
        raise AssertionError(f"quotient of {size} classes for a target of {target_size}")
    elif size == target_size:
        if flat != walk:
            raise AssertionError(
                f"quotient table of {size} classes differs from the target's walk"
            )
        verdict, quotient_size, classes_reached = Verdict.VERIFIED, size, size
    else:
        _checked_table(pres, flat, size, stats)
        verdict, quotient_size, classes_reached = Verdict.REFUTED_SIZE, size, size
    return VerificationReport(
        presentation_id=presentation_id,
        target_id=target_id,
        relations_satisfied=ok,
        failing_relations=failures,
        quotient_size=quotient_size,
        classes_reached=classes_reached,
        target_size=target_size,
        verdict=verdict,
        note=(_NOTE_PREFIX[verdict] if weight is None else _WEIGHT_NOTE_PREFIX)
        + SOUNDNESS_NOTE,
        counters=stats,
        weight=weight,
    )
