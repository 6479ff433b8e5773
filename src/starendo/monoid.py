"""Finite transformation monoids: closure enumeration, membership, ranks.

The closure enumeration is breadth-first from the identity: elements are
discovered in shortlex order of their witness words (shorter words first,
generator-list order breaking ties), which makes element order, witness
words and the right Cayley table fully deterministic.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import BudgetExceededError
from .transform import Transformation, _compose_images, _left_factor

Word = tuple[str, ...]

DEFAULT_ELEMENT_BUDGET = 10**6


def _closure(
    degree: int,
    gen_images: Sequence[tuple[int, ...]],
    cap: int,
    *,
    structure: bool = False,
) -> Optional[tuple[list, Optional[list], Optional[list]]]:
    """Breadth-first closure on raw image tuples, or None past ``cap`` elements.

    Returns (elements in discovery order, witness words, right Cayley rows).
    Element 0 is the identity.  With ``structure`` the witness words (tuples
    of generator indices, the empty word for the identity) and the Cayley
    rows are recorded on the way; without it both are None and the loop
    only collects the element set.
    """
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    words: Optional[list[tuple[int, ...]]] = [()] if structure else None
    flat: Optional[list[int]] = [] if structure else None
    for i, f in enumerate(elements):  # grows while it is walked: breadth-first
        times_f = _left_factor(f)
        for j, g in enumerate(gen_images):
            h = times_f(g)
            k = index.get(h)
            if k is None:
                if len(elements) >= cap:
                    return None
                k = index[h] = len(elements)
                elements.append(h)
                if words is not None:
                    words.append(words[i] + (j,))
            if flat is not None:
                flat.append(k)
    if flat is None:
        return elements, None, None
    r = len(gen_images)
    return elements, words, [flat[i * r : (i + 1) * r] for i in range(len(elements))]


def _generates_exactly(degree: int, gen_images: Sequence[tuple[int, ...]], size: int) -> bool:
    """True iff the closure of the given maps has exactly ``size`` elements."""
    found = _closure(degree, gen_images, size)
    return found is not None and len(found[0]) == size


def _closure_within_budget(
    degree: int, gen_images: Sequence[tuple[int, ...]], max_elements: int, *, structure: bool
):
    """:func:`_closure`, raising BudgetExceededError past ``max_elements``."""
    result = _closure(degree, gen_images, max_elements, structure=structure)
    if result is None:
        raise BudgetExceededError(f"monoid closure exceeded element budget {max_elements}")
    return result


class TransformationMonoid:
    """An enumerated monoid of transformations with generator metadata.

    Fields: ``elements`` (canonically ordered), ``generator_names`` /
    ``generators``, one shortlex ``witness_word`` per element, and the
    ``right_cayley`` table mapping (element index, generator index) to the
    index of the product.  When the words and the table are not given they
    are computed from the generators on first access and then kept; the
    generators must then generate exactly ``elements``.
    """

    def __init__(
        self,
        degree: int,
        elements: Sequence[Transformation],
        generator_names: Sequence[str],
        generators: Sequence[Transformation],
        witness_words: Optional[Sequence[Word]] = None,
        right_cayley: Optional[Sequence[Sequence[int]]] = None,
    ):
        if (witness_words is None) != (right_cayley is None):
            raise ValueError("give both witness words and the Cayley table, or neither")
        self.degree = degree
        self.elements = tuple(elements)
        self.generator_names = tuple(generator_names)
        self.generators = tuple(generators)
        self._words: Optional[tuple[Word, ...]] = None
        self._cayley: Optional[tuple[tuple[int, ...], ...]] = None
        if witness_words is not None:
            self._words = tuple(tuple(w) for w in witness_words)
            self._cayley = tuple(tuple(row) for row in right_cayley)
        self._index = {t.images: i for i, t in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")

    @property
    def witness_words(self) -> tuple[Word, ...]:
        if self._words is None:
            self._build_structure()
        return self._words

    @property
    def right_cayley(self) -> tuple[tuple[int, ...], ...]:
        if self._cayley is None:
            self._build_structure()
        return self._cayley

    def _build_structure(self) -> None:
        """Shortlex witness words and right Cayley rows, in element order.

        One structure-recording closure from the identity (Froidure-Pin
        style), then its discovery order is mapped onto ``elements``.
        """
        n = len(self.elements)
        found = _closure(
            self.degree, [t.images for t in self.generators], n, structure=True
        )
        # discovery index -> element index
        perm = None if found is None else [self._index.get(e) for e in found[0]]
        if perm is None or len(perm) != n or None in perm:
            raise ValueError("generators do not generate the element set")
        _, words, cayley = found
        words_out: list[Word] = [()] * n
        cayley_out: list[tuple[int, ...]] = [()] * n
        names = self.generator_names
        for i, p in enumerate(perm):
            words_out[p] = tuple(names[j] for j in words[i])
            cayley_out[p] = tuple(perm[k] for k in cayley[i])
        self._words, self._cayley = tuple(words_out), tuple(cayley_out)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Transformation]:
        return iter(self.elements)

    def __contains__(self, f: object) -> bool:
        return isinstance(f, Transformation) and f.images in self._index

    def index_of(self, f: Transformation) -> Optional[int]:
        if f.degree != self.degree:
            raise ValueError(f"degree mismatch: {f.degree} vs {self.degree}")
        return self._index.get(f.images)

    def __repr__(self) -> str:
        return (
            f"<TransformationMonoid degree={self.degree} size={len(self)} "
            f"generators={list(self.generator_names)}>"
        )

    @classmethod
    def generate(
        cls,
        named_generators: Sequence[tuple[str, Transformation]],
        *,
        max_elements: int = DEFAULT_ELEMENT_BUDGET,
    ) -> "TransformationMonoid":
        """Enumerate the monoid generated by the named transformations.

        Elements appear in discovery (shortlex witness) order; the identity
        is element 0 with the empty witness word even when it is not among
        the generators.
        """
        if not named_generators:
            raise ValueError("need at least one generator")
        names = [nm for nm, _ in named_generators]
        gens = [t for _, t in named_generators]
        degree = gens[0].degree
        for t in gens:
            if t.degree != degree:
                raise ValueError("generators must share one degree")
        elems, words, cayley = _closure_within_budget(
            degree, [t.images for t in gens], max_elements, structure=True
        )
        return cls(
            degree,
            [Transformation(e) for e in elems],
            names,
            gens,
            [tuple(names[j] for j in w) for w in words],
            cayley,
        )

    @classmethod
    def from_elements(
        cls,
        elements: Iterable[Transformation],
        named_generators: Sequence[tuple[str, Transformation]],
        *,
        max_elements: int = DEFAULT_ELEMENT_BUDGET,
    ) -> "TransformationMonoid":
        """Package a known element set in lexicographic order.

        The named generators must generate exactly the given set; this is
        checked here, by a closure that collects elements only.  Witness
        words and the Cayley table against these generators are built on
        first access.  The given ``Transformation`` objects are kept, not
        rebuilt.  An empty generator list generates only the trivial
        monoid.
        """
        by_images = {t.images: t for t in elements}
        if not by_images:
            raise ValueError("element set is empty")
        elems = sorted(by_images)
        degree = len(elems[0])
        if any(len(e) != degree for e in elems):
            raise ValueError("elements must share one degree")
        names = [nm for nm, _ in named_generators]
        gens = [t for _, t in named_generators]
        discovered, _, _ = _closure_within_budget(
            degree, [t.images for t in gens], max_elements, structure=False
        )
        if len(discovered) != len(elems) or not all(map(by_images.__contains__, discovered)):
            raise ValueError("generators do not generate the given element set")
        return cls(degree, [by_images[e] for e in elems], names, gens)


def generate(
    named_generators: Sequence[tuple[str, Transformation]],
    *,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> TransformationMonoid:
    """Module-level alias for :meth:`TransformationMonoid.generate`."""
    return TransformationMonoid.generate(named_generators, max_elements=max_elements)


def contains(monoid: TransformationMonoid, f: Transformation) -> bool:
    """Membership by lookup; degrees must match."""
    return monoid.index_of(f) is not None


def word_for(monoid: TransformationMonoid, f: Transformation) -> Optional[Word]:
    """The stored shortlex witness word for ``f``, or None if absent."""
    i = monoid.index_of(f)
    return None if i is None else monoid.witness_words[i]


def is_generating_set(
    target: TransformationMonoid, transformations: Iterable[Transformation]
) -> bool:
    """True iff the closure of the given maps equals the target's element set."""
    gens = list(transformations)
    if not gens:
        return len(target) == 1
    if any(t.degree != target.degree for t in gens):
        raise ValueError("degree mismatch with target monoid")
    if any(t not in target for t in gens):
        return False
    return _generates_exactly(target.degree, [t.images for t in gens], len(target))


def evaluate_word(
    assignment: Mapping[str, Transformation], word: Sequence[str], degree: int | None = None
) -> Transformation:
    """Evaluate a word left-to-right under a letter assignment.

    The empty word evaluates to the identity; its degree is taken from the
    assignment unless given explicitly.
    """
    if degree is None:
        if not assignment:
            raise ValueError("cannot infer degree from an empty assignment")
        degree = next(iter(assignment.values())).degree
    result = tuple(range(degree))
    for letter in word:
        try:
            t = assignment[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} has no assigned transformation") from None
        if t.degree != degree:
            raise ValueError(f"letter {letter!r} has degree {t.degree}, expected {degree}")
        result = _compose_images(result, t.images)
    return Transformation(result)


def check_relation(
    assignment: Mapping[str, Transformation], lhs: Sequence[str], rhs: Sequence[str]
) -> bool:
    """True iff both words evaluate to the same transformation."""
    if not assignment and not lhs and not rhs:
        return True
    return evaluate_word(assignment, lhs) == evaluate_word(assignment, rhs)


def _generating_unit_subsets(
    units_pool: Sequence[tuple[int, ...]],
    unit_group: frozenset[tuple[int, ...]],
    size: int,
    degree: int,
) -> list[tuple[tuple[int, ...], ...]]:
    """Subsets of the unit pool of the given size whose closure is the whole unit group."""
    if size == 0:
        return [()] if len(unit_group) == 1 else []
    out = []
    for su in combinations(units_pool, size):
        if _generates_exactly(degree, su, len(unit_group)):
            out.append(su)
    return out


def rank_exact(
    target: TransformationMonoid,
    max_subset_size: int,
    candidate_pool: Optional[Sequence[Transformation]] = None,
    *,
    time_budget_s: float = 600.0,
) -> Optional[int]:
    """Smallest k <= max_subset_size such that some k-subset generates the target.

    Exhaustive subset search with two sound prunes:

    * unit-group pruning: a product of transformations is a permutation only
      if every factor is, so the permutation members of a generating set
      must generate the target's group of units;
    * hub pruning: products of hub-fixing maps fix the hub (vertex 0), so if
      the target contains a map moving 0 then so must any generating set.

    Returns None ("unknown") when no generating subset of size
    <= max_subset_size exists among the pruned candidates, or when the
    wall-clock budget runs out before the search completes.
    """
    degree = target.degree
    ident = tuple(range(degree))
    target_images = [t.images for t in target.elements]

    if candidate_pool is None:
        pool = [im for im in target_images if im != ident]
    else:
        pool = []
        for t in candidate_pool:
            if t not in target:
                raise ValueError("candidate pool must be a subset of the target monoid")
            if t.images != ident:
                pool.append(t.images)
        pool = sorted(set(pool))

    if len(target) == 1:
        return 0 if max_subset_size >= 0 else None

    unit_group = frozenset(im for im in target_images if len(set(im)) == degree)
    units_pool = sorted(im for im in pool if len(set(im)) == degree)
    nonunits_pool = sorted(im for im in pool if len(set(im)) < degree)
    needs_hub_mover = any(im[0] != 0 for im in target_images)
    target_size = len(target)
    is_group = len(unit_group) == target_size

    deadline = time.monotonic() + time_budget_s
    unit_subset_cache: dict[int, list[tuple[tuple[int, ...], ...]]] = {}
    checks = 0

    for k in range(1, max_subset_size + 1):
        for j in range(0, min(k, len(units_pool)) + 1):
            if j not in unit_subset_cache:
                unit_subset_cache[j] = _generating_unit_subsets(
                    units_pool, unit_group, j, degree
                )
            unit_subsets = unit_subset_cache[j]
            if not unit_subsets:
                continue
            r = k - j
            if r > len(nonunits_pool):
                continue
            if r == 0:
                if is_group:
                    return k
                continue
            for su in unit_subsets:
                for sn in combinations(nonunits_pool, r):
                    if needs_hub_mover and all(im[0] == 0 for im in su + sn):
                        continue
                    checks += 1
                    if checks % 256 == 0 and time.monotonic() > deadline:
                        return None
                    if _generates_exactly(degree, su + sn, target_size):
                        return k
    return None


def format_monoid(monoid: TransformationMonoid) -> str:
    """Line-based dump: header, then ``index: images : witness-word`` per element."""
    lines = [f"degree {monoid.degree} size {len(monoid)}"]
    for i, t in enumerate(monoid.elements):
        word = " ".join(monoid.witness_words[i])
        lines.append(f"{i}: {t.format()} : {word}".rstrip())
    return "\n".join(lines) + "\n"
