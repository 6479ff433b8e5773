"""``rank_exact`` against the exhaustive subset search it replaced.

``reference_rank`` tries every subset of the pool, smallest first, with two
sound prunes: the permutations in a generating set must generate the group
of units, and if some element moves the hub (vertex 0) then so must some
generator, because products of hub-fixing maps fix the hub.
"""

import sys
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from starendo import (
    BudgetExceededError,
    EndoClass,
    Transformation,
    TransformationMonoid,
    enumerate_class,
    generate,
    identity,
    is_regular_monoid,
    rank_exact,
    standard_generators,
)
import starendo.monoid as monoid_module
from starendo.monoid import _generates_exactly


def _generating_unit_subsets(units_pool, unit_group, size, degree):
    """Subsets of the unit pool of the given size whose closure is the unit group."""
    if size == 0:
        return [()] if len(unit_group) == 1 else []
    return [su for su in combinations(units_pool, size)
            if _generates_exactly(degree, su, len(unit_group))]


def reference_rank(target, max_subset_size, candidate_pool=None):
    """Smallest k <= max_subset_size such that some k-subset of the pool
    generates the target, by exhaustive search; None if there is none."""
    degree = target.degree
    ident = tuple(range(degree))
    target_images = [t.images for t in target.elements]
    source = target.elements if candidate_pool is None else candidate_pool
    pool = sorted({t.images for t in source} - {ident})
    if len(target) == 1:
        return 0 if max_subset_size >= 0 else None

    unit_group = frozenset(im for im in target_images if len(set(im)) == degree)
    units_pool = [im for im in pool if len(set(im)) == degree]
    nonunits_pool = [im for im in pool if len(set(im)) < degree]
    needs_hub_mover = any(im[0] != 0 for im in target_images)
    is_group = len(unit_group) == len(target)
    unit_subsets = {}
    for k in range(1, max_subset_size + 1):
        for j in range(0, min(k, len(units_pool)) + 1):
            if j not in unit_subsets:
                unit_subsets[j] = _generating_unit_subsets(units_pool, unit_group, j, degree)
            r = k - j
            if not unit_subsets[j] or r > len(nonunits_pool):
                continue
            if r == 0:
                if is_group:
                    return k
                continue
            for su in unit_subsets[j]:
                for sn in combinations(nonunits_pool, r):
                    if needs_hub_mover and all(im[0] == 0 for im in su + sn):
                        continue
                    if _generates_exactly(degree, su + sn, len(target)):
                        return k
    return None


CASES = [(n, cls) for n in range(1, 5) for cls in EndoClass]


@pytest.mark.parametrize("n,cls", CASES, ids=[f"{c.value}-{n}" for n, c in CASES])
def test_matches_reference_at_and_below_rank(n, cls):
    target = enumerate_class(n, cls)
    rank = rank_exact(target, 6)
    assert rank is not None
    assert rank_exact(target, rank) == reference_rank(target, rank) == rank
    if rank == 0:  # the trivial monoid: no budget lies below it
        with pytest.raises(ValueError, match="max_subset_size"):
            rank_exact(target, rank - 1)
    else:
        assert rank_exact(target, rank - 1) is reference_rank(target, rank - 1) is None


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Transformation),
            min_size=1,
            max_size=4,
        )
    ),
    st.integers(0, 4),
)
def test_matches_reference_on_random_monoids(gens, max_k):
    target = generate([(f"g{i}", t) for i, t in enumerate(gens)])
    assert rank_exact(target, max_k) == reference_rank(target, max_k)


def _end3_declared_with(gens):
    """END_3's elements, declared with generators that may not generate them."""
    return TransformationMonoid(
        3, enumerate_class(3, EndoClass.END).elements,
        [nm for nm, _ in gens], [t for _, t in gens],
    )


MISDECLARED = {
    "too-few": [("a0", Transformation((0, 2, 1)))],
    "too-many": standard_generators(3, EndoClass.WEAK_END),
}


@pytest.mark.parametrize("gens", MISDECLARED.values(), ids=list(MISDECLARED))
def test_misdeclared_generators_are_rejected(gens):
    with pytest.raises(ValueError):
        rank_exact(_end3_declared_with(gens), 3)
    with pytest.raises(ValueError):
        is_regular_monoid(_end3_declared_with(gens))


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        rank_exact(enumerate_class(4, EndoClass.WEAK_END), 5, time_budget_s=0.0)


def test_subset_loop_checks_the_deadline(monkeypatch):
    # the clock reads 0 until the subset loop of one J-class reads it (the
    # loop counts its subsets in ``tried``), and expires there: only the
    # loop's own check can stop the search
    def monotonic():
        return 1e9 if "tried" in sys._getframe(1).f_locals else 0.0

    monkeypatch.setattr(monoid_module, "time", SimpleNamespace(monotonic=monotonic))
    with pytest.raises(BudgetExceededError) as raised:
        rank_exact(enumerate_class(5, EndoClass.WEAK_END), 5)
    assert raised.traceback[-1].locals["tried"] == 64


def test_time_budget_must_be_a_number_at_least_zero():
    end3 = enumerate_class(3, EndoClass.END)
    # a NaN deadline fails every comparison, so the search would never stop
    # "5", None and True are not numbers of seconds, though True would pass as 1
    for budget in (float("nan"), -1.0, -1e-9, "5", None, True):
        with pytest.raises(ValueError, match="time budget"):
            rank_exact(end3, 2, time_budget_s=budget)
    assert rank_exact(end3, 2, time_budget_s=float("inf")) == 2
    # the subset budget is an int of at least 0: None would read as a
    # proved lower bound
    for max_k in (-1, True, False, 2.5, "2"):
        with pytest.raises(ValueError, match="max_subset_size"):
            rank_exact(end3, max_k)
    assert rank_exact(end3, 0) is None
    assert rank_exact(TransformationMonoid.from_elements([identity(3)], []), 0) == 0
