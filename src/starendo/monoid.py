"""Finite transformation monoids: closure enumeration, membership, ranks.

A monoid stores each element once, encoded by :func:`_encoder`: the
``bytes`` of its images up to degree 256, the image tuple above.  One tuple
holds them in canonical order, one index is keyed by them, and every
product in this module goes through the degree's :func:`_multiplication`
pair.  ``Transformation`` objects exist only at the API edge: ``elements``
and iteration build them once, on first use, and ``in``, ``index_of`` and
the functions that take maps encode the maps they are given.

A monoid is always the monoid its generators generate.  Everything the
package derives from them comes from one breadth-first walk of the
generators from the identity (Froidure-Pin style), run by the constructor
or by :func:`generate`: it proves generation, and its tree and table give
the witness words, both Cayley tables and the J-classes.  It discovers the
elements in shortlex order of their witness words (shorter words first,
generator-list order breaking ties).  The generators are walked once.

Regularity and rank are decided per J-class.  Two elements are
J-related when each is a two-sided multiple of the other; the J-classes are
the strongly connected components of the graph with edges x -> x*g and
x -> g*x over the generators, and x lies J-above y when y is reachable
from x.
"""

from __future__ import annotations

import operator
import time
from array import array
from collections.abc import Mapping
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, NotGeneratingError, _require_count, _require_seconds
from .transform import Transformation, _compose_images, _require_map, _trusted

Word = tuple[str, ...]

DEFAULT_ELEMENT_BUDGET = 10**6
DEFAULT_TIME_BUDGET_S = 600.0


# a bytes.translate table has 256 entries, one per byte value
_BYTE_DEGREE = 256


def _encoder(degree: int) -> type:
    """The type a monoid of this degree stores its elements in: bytes or tuple.

    Both accept an image tuple or a :class:`Transformation`, which iterates
    over its images, and return a value already of their type unchanged.
    """
    return bytes if degree <= _BYTE_DEGREE else tuple


def _multiplication(degree: int) -> tuple[Callable, Callable]:
    """The pair (operand, product): ``product(f, operand(g))`` is the encoded
    ``f*g`` (h[i] = g[f[i]]) for an encoded ``f`` and any image sequence ``g``.

    Up to degree 256 the operand is g's images padded to 256 bytes and the
    product one ``bytes.translate`` call; above it they are g's image tuple
    and :func:`transform._compose_images`.  Build an operand once per factor.
    """
    if degree <= _BYTE_DEGREE:
        return (lambda g: bytes(g).ljust(_BYTE_DEGREE, b"\0")), bytes.translate
    return tuple, _compose_images


def _closure(
    degree: int, gen_images: Sequence[tuple[int, ...]], cap: int
) -> Optional[tuple[list, array]]:
    """Breadth-first closure of the given maps, or None past ``cap`` elements.

    The generators are image sequences; the elements are encoded and
    multiplied by the degree's :func:`_multiplication` pair.  Returns the
    encoded elements in discovery order, element 0 the identity, and the
    walk's right table: with r generators, entry ``i*r + j`` is the
    discovery index of element i times generator j.  Raises ValueError when
    a generator's degree is not ``degree``.
    """
    for g in gen_images:
        if len(g) != degree:
            raise ValueError(f"generator of degree {len(g)} in a closure of degree {degree}")
    operand, product = _multiplication(degree)
    operands = list(map(operand, gen_images))
    ident = _encoder(degree)(range(degree))
    elements = [ident]
    index = {ident: 0}
    walk = array("i")
    for f in elements:  # grows while it is walked: breadth-first
        for g in operands:
            h = product(f, g)
            k = index.get(h)
            if k is None:
                k = len(elements)
                if k >= cap:
                    return None
                index[h] = k
                elements.append(h)
            walk.append(k)
    return elements, walk


def _tree_edges(table: Sequence[int], k: int) -> Iterator[tuple[int, int, int]]:
    """The breadth-first tree of a standardized table as (x, p, h) with
    x = p * letter h, each parent before its children.  ``table`` is flat,
    ``k`` entries a row, numbered in table order as :func:`_closure` and
    ``enumerate_quotient`` number theirs, so the first entry equal to x,
    ``p*k + h``, is x's tree edge."""
    last = 0
    for e, x in enumerate(table):
        if x > last:
            last = x
            p, h = divmod(e, k)
            yield x, p, h


def _generates_exactly(
    degree: int, gen_images: Sequence[tuple[int, ...]], size: int
) -> Optional[array]:
    """The right table of the closure of the given maps when it has exactly
    ``size`` elements, else None."""
    found = _closure(degree, gen_images, size)
    return found[1] if found is not None and len(found[0]) == size else None


def _checked_generators(
    names: Sequence[str], generators: Sequence[Transformation]
) -> tuple[tuple[str, ...], tuple[Transformation, ...]]:
    """The names and the generators as tuples; raises ValueError unless each
    generator is a ``Transformation`` with its own ``str`` name."""
    names, generators = tuple(names), tuple(map(_require_map, generators))
    for nm in names:
        if not isinstance(nm, str):
            raise ValueError(f"generator name {nm!r} is not a str")
    if not len(set(names)) == len(names) == len(generators):
        raise ValueError(f"need one distinct name per generator: {names}")
    return names, generators


def _strong_components(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, iteratively.

    A component is emitted only after every component it reaches.
    """
    order = [-1] * len(successors)
    low = [0] * len(successors)
    on_stack = [False] * len(successors)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(len(successors)):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        path = [(root, iter(successors[root]))]
        while path:
            v, edges = path[-1]
            for w in edges:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    path.append((w, iter(successors[w])))
                    break
                if on_stack[w] and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
                if low[v] == order[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


class TransformationMonoid:
    """The monoid of transformations generated by the given generators.

    Fields: ``elements`` (canonically ordered; stored encoded, built as
    ``Transformation`` objects on first access), ``generator_names`` /
    ``generators``, one shortlex ``witness_word`` per element, and the
    ``right_cayley`` table mapping (element index, generator index) to the
    index of the product.  Each of these, and the J-classes, is built on its
    own first access and then kept: the words, the table and the J-classes
    from the walk that proved the generators, which the monoid keeps.

    The constructor takes the degree (an ``int`` of at least 1), the
    elements as ``Transformation`` objects, image sequences or encoded
    values (the scan's ``bytes`` rows are kept as they are), which it
    encodes once, and one distinct ``str`` name per ``Transformation``
    generator (ValueError otherwise).  Input already
    strictly increasing is kept in its order; any other is deduplicated and
    sorted.  It then proves that the generators generate exactly that set,
    by one closure that stops past the set's size, and raises ValueError
    otherwise; that also rejects a generator or an element of another
    degree and any image sequence that is not a map.  An empty generator
    list generates only the trivial monoid.
    """

    # the proving closure's walk: (discovery index -> element index, its right table)
    _walk: tuple[Sequence[int], array]

    def __init__(
        self,
        degree: int,
        elements: Iterable[Transformation | Sequence[int]],
        generator_names: Sequence[str],
        generators: Sequence[Transformation],
    ):
        encoded = tuple(map(_encoder(_require_count("degree", degree)), elements))
        if not all(map(operator.lt, encoded, islice(encoded, 1, None))):
            encoded = tuple(sorted(dict.fromkeys(encoded)))
        self._store(degree, encoded, *_checked_generators(generator_names, generators))
        found = _closure(degree, [t.images for t in self.generators], len(encoded))
        # the closure's elements are distinct, so as many of them as the set
        # has, each with an index in it, are the set
        order = list(map(self._index.get, found[0])) if found else []
        if len(order) != len(encoded) or None in order:
            raise NotGeneratingError("generators do not generate the given element set")
        self._walk = (order, found[1])

    def _store(
        self,
        degree: int,
        encoded: tuple,
        generator_names: tuple[str, ...],
        generators: tuple[Transformation, ...],
    ) -> None:
        """Set the stored facts from distinct encoded elements in their final
        order and checked generators; the caller sets ``_walk``."""
        self.degree = degree
        self.generator_names = generator_names
        self.generators = generators
        self._encode = _encoder(degree)
        self._operand, self._product = _multiplication(degree)
        self._encoded = encoded
        self._index = dict(zip(encoded, range(len(encoded))))

    @cached_property
    def elements(self) -> tuple[Transformation, ...]:
        """The elements as ``Transformation`` objects, built on first access."""
        return tuple(map(_trusted, map(tuple, self._encoded)))

    @cached_property
    def witness_words(self) -> tuple[Word, ...]:
        """The shortlex witness words in element order, from the walk's tree."""
        names = self.generator_names
        order, walk = self._walk
        words: list[Word] = [()] * len(self)
        for x, p, h in _tree_edges(walk, len(names)):
            words[order[x]] = words[order[p]] + (names[h],)
        return tuple(words)

    @cached_property
    def right_cayley(self) -> tuple[tuple[int, ...], ...]:
        """The right Cayley rows in element order, from the walk's table."""
        order, walk = self._walk
        r = len(self.generators)
        cayley: list[tuple[int, ...]] = [()] * len(order)
        for i, x in enumerate(order):
            cayley[x] = tuple(map(order.__getitem__, walk[i * r : (i + 1) * r]))
        return tuple(cayley)

    @cached_property
    def _j_classes(self) -> tuple[tuple[int, ...], ...]:
        """The J-classes as sorted tuples of element indices, each listed
        after every class above it, so that class 0 is the group of units;
        built on first access from the right Cayley table and a left table."""
        right = self.right_cayley
        columns = self._left_columns()  # x -> g * x
        successors = list(map(tuple.__add__, right, zip(*columns))) if columns else right
        components = reversed(_strong_components(successors))  # top down
        return tuple(tuple(sorted(m)) for m in components)

    def _left_columns(self) -> list[list[int]]:
        """The left Cayley table by columns, ``columns[j][x]`` the index of
        generator j times element x: Froidure-Pin's recurrence over the
        walk's tree, g * identity = g and g * x = (g * p) * h for x's tree
        edge x = p * h, with index lookups only."""
        right = self.right_cayley
        order, walk = self._walk
        tree = [(order[x], order[p], h) for x, p, h in _tree_edges(walk, len(self.generators))]
        root = order[0]  # the identity, discovered first
        columns = []
        for g in right[root]:
            column = [0] * len(right)
            column[root] = g
            for x, p, h in tree:
                column[x] = right[column[p]][h]
            columns.append(column)
        return columns

    def _is_idempotent(self, x: int) -> bool:
        """True iff element ``x`` (an index) is idempotent."""
        e = self._encoded[x]
        return self._product(e, self._operand(e)) == e

    def _find(self, f: object) -> Optional[int]:
        """The index of ``f``, or None for anything but an element."""
        if not isinstance(f, Transformation) or f.degree != self.degree:
            return None
        return self._index.get(self._encode(f.images))

    def __len__(self) -> int:
        return len(self._encoded)

    def __iter__(self) -> Iterator[Transformation]:
        return iter(self.elements)

    def __contains__(self, f: object) -> bool:
        return self._find(f) is not None

    def index_of(self, f: Transformation) -> Optional[int]:
        """The index of ``f``, None for a map outside; ValueError for any other value."""
        return self._find(_require_map(f, self.degree))

    def __repr__(self) -> str:
        return (
            f"<TransformationMonoid degree={self.degree} size={len(self)} "
            f"generators={list(self.generator_names)}>"
        )

    @classmethod
    def from_elements(
        cls,
        elements: Iterable[Transformation | Sequence[int]],
        named_generators: Sequence[tuple[str, Transformation]],
    ) -> "TransformationMonoid":
        """The constructor on a known element set, its degree read off the
        first element and the generators given as (name, map) pairs.

        Raises ValueError for an empty set, before the constructor's checks.
        """
        elements = tuple(elements)
        if not elements:
            raise ValueError("element set is empty")
        return cls(len(tuple(elements[0])), elements, [nm for nm, _ in named_generators],
                   [t for _, t in named_generators])


def generate(
    named_generators: Sequence[tuple[str, Transformation]],
    *,
    max_elements: int = DEFAULT_ELEMENT_BUDGET,
) -> TransformationMonoid:
    """Enumerate the monoid generated by the named transformations.

    Elements appear in discovery (shortlex witness) order; the identity
    is element 0 with the empty witness word even when it is not among
    the generators.  The closure that lists the elements is the proof
    that the generators generate them, and the walk the words and the
    tables come from; it is not run again.  Raises BudgetExceededError
    past ``max_elements`` elements, and ValueError when that budget is
    not an ``int`` of at least 1, a generator is not a ``Transformation``,
    a name is not a ``str`` or two generators share a name.
    """
    _require_count("max_elements", max_elements)
    if not named_generators:
        raise ValueError("need at least one generator")
    names, gens = _checked_generators(
        [nm for nm, _ in named_generators], [t for _, t in named_generators]
    )
    degree = gens[0].degree  # the closure rejects generators of another degree
    found = _closure(degree, [t.images for t in gens], max_elements)
    if found is None:
        raise BudgetExceededError(f"monoid closure exceeded element budget {max_elements}")
    elements, walk = found
    monoid = TransformationMonoid.__new__(TransformationMonoid)
    monoid._store(degree, tuple(elements), names, gens)
    monoid._walk = (range(len(elements)), walk)
    return monoid


def _require_monoid(value: object) -> TransformationMonoid:
    """``value`` itself when it is a :class:`TransformationMonoid`; ValueError
    otherwise.  The monoid counterpart of ``transform._require_map``."""
    if not isinstance(value, TransformationMonoid):
        raise ValueError(f"not a TransformationMonoid: {value!r}")
    return value


def is_generating_set(
    target: TransformationMonoid, transformations: Iterable[Transformation]
) -> bool:
    """True iff the closure of the given maps equals the target's element set.

    Answers at once, without a closure, when the maps' image set is that of
    the target's own generators, which generate it by construction.
    ValueError for a target or a map of the wrong type, or a map of another degree.
    """
    _require_monoid(target)
    gens = [_require_map(t, target.degree) for t in transformations]
    if {t.images for t in gens} == {t.images for t in target.generators}:
        return True
    return _generating_walk(target, gens) is not None


def _generating_walk(
    target: TransformationMonoid, gens: Sequence[Transformation]
) -> Optional[array]:
    """The right table of the target's breadth-first walk over ``gens``, maps
    of its degree, in their order; None when they do not generate it.

    The target's own walk when ``gens`` are its generators in their order,
    else the walk of the one closure that proves that they generate it.
    """
    if [t.images for t in gens] == [t.images for t in target.generators]:
        return target._walk[1]
    if any(t not in target for t in gens):
        return None
    return _generates_exactly(target.degree, [t.images for t in gens], len(target))


def _require_assignment(value: object) -> Mapping:
    """``value`` itself when it is a Mapping, as a letter assignment must
    be; ValueError otherwise."""
    if not isinstance(value, Mapping):
        raise ValueError(f"assignment {value!r} is not a Mapping of letters to Transformations")
    return value


def evaluate_word(
    assignment: Mapping[str, Transformation], word: Sequence[str], degree: int | None = None
) -> Transformation:
    """Evaluate a word left-to-right under a letter assignment.

    The empty word evaluates to the identity; its degree is taken from the
    assignment unless given explicitly, as an ``int`` of at least 1.
    Raises ValueError when the assignment is not a Mapping.
    """
    _require_assignment(assignment)
    if degree is not None:
        _require_count("degree", degree)
    elif not assignment:
        raise ValueError("cannot infer degree from an empty assignment")
    else:
        degree = _require_map(next(iter(assignment.values()))).degree
    result = tuple(range(degree))
    for letter in word:
        try:
            t = assignment[letter]
        except KeyError:
            raise ValueError(f"letter {letter!r} has no assigned transformation") from None
        result = _compose_images(result, _require_map(t, degree).images)
    return Transformation(result)


def check_relation(
    assignment: Mapping[str, Transformation], lhs: Sequence[str], rhs: Sequence[str]
) -> bool:
    """True iff both words evaluate to the same transformation.

    Raises ValueError when the assignment is not a Mapping.
    """
    if not _require_assignment(assignment) and not lhs and not rhs:
        return True
    return evaluate_word(assignment, lhs) == evaluate_word(assignment, rhs)


def rank_exact(
    target: TransformationMonoid,
    max_subset_size: int,
    *,
    time_budget_s: float = DEFAULT_TIME_BUDGET_S,
) -> Optional[int]:
    """Smallest k <= max_subset_size such that some k-subset of the target generates it.

    The search runs one J-class at a time, from the top down, on the identity
    rank(M) = sum of r_J over the J-classes J of M, where r_J is the fewest
    elements of J that together with the elements chosen so far generate
    all of J:

    * a product lies in J only if every factor lies in J or above it, so
      every generating set meets J in at least r_J elements;
    * by induction from the top, the union of the chosen sets generates M.

    Every element chosen so far lies in a class taken earlier, so one that
    is a factor of a product in J lies strictly above J; the others add
    nothing to J.  The candidates are all of the target; the identity is
    generated from the start, so it is never one.
    Returns None only when it is proved that no subset of size
    <= max_subset_size generates the target.  Raises BudgetExceededError
    when ``time_budget_s`` runs out first, and ValueError when the target
    is not a ``TransformationMonoid``, ``max_subset_size`` is not an ``int``
    of at least 0 or the time budget fails :func:`errors._require_seconds`.
    """
    _require_monoid(target)
    _require_count("max_subset_size", max_subset_size, 0)
    deadline = time.monotonic() + _require_seconds("time_budget_s", time_budget_s)
    store = target._encoded
    chosen: list[int] = []
    generated = {target._encode(range(target.degree))}  # the monoid generated by ``chosen``
    for members in target._j_classes:
        base = [store[x] in generated for x in members]
        if all(base):
            continue
        picked = _fewest_generators_of_class(
            target, members,
            base=base,
            helpers=chosen,
            max_k=max_subset_size - len(chosen),
            deadline=deadline,
        )
        if picked is None:
            return None
        chosen += picked
        generated = set(_closure(target.degree, [store[g] for g in chosen], len(target))[0])
    return len(chosen)


def _fewest_generators_of_class(
    target: TransformationMonoid,
    members: Sequence[int],
    *,
    base: Sequence[bool],
    helpers: Sequence[int],
    max_k: int,
    deadline: float,
) -> Optional[tuple[int, ...]]:
    """A smallest set A of at most ``max_k`` ``members`` of one J-class of
    the target that completes the class, or None if there is none.

    ``base[i]`` says whether ``members[i]`` is already generated by the
    ``helpers``, the elements chosen so far, all from classes above this
    one; the candidates for A are the members not yet generated, since one
    already generated adds nothing as a generator.  The members
    generated with A are the base and the closure of A under left and right
    multiplication by the helpers and A, kept inside the class: in a product
    that lands in the class, every partial product containing a factor from
    A does too.
    """
    if time.monotonic() > deadline:
        raise BudgetExceededError("rank search exceeded its time budget")
    index = target._index
    store, operand, product = target._encoded, target._operand, target._product
    local = {x: i for i, x in enumerate(members)}
    member_values = [store[x] for x in members]
    member_operands = list(map(operand, member_values))

    def steps(y: int) -> list[list[int]]:
        """For each member x, the members among x*y and y*x."""
        y_value = store[y]
        y_operand = operand(y_value)
        out = []
        for x_value, x_operand in zip(member_values, member_operands):
            products = (index[product(x_value, y_operand)], index[product(y_value, x_operand)])
            out.append([local[k] for k in products if k in local])
        return out

    fixed = [sum(edges, []) for edges in zip(*map(steps, helpers))] or [[] for _ in members]
    candidates = [i for i, known in enumerate(base) if not known]
    moves: list[Optional[list[list[int]]]] = [None] * len(candidates)  # filled on first use
    missing = len(candidates)
    tried = 0
    for k in range(1, min(max_k, len(candidates)) + 1):
        for subset in combinations(range(len(candidates)), k):
            tried += 1
            if tried % 64 == 0 and time.monotonic() > deadline:
                raise BudgetExceededError("rank search exceeded its time budget")
            for s in subset:
                if moves[s] is None:
                    moves[s] = steps(members[candidates[s]])
            seen = bytearray(len(members))
            stack = [candidates[s] for s in subset]
            unreached = missing
            for i in stack:
                seen[i] = 1
                unreached -= not base[i]
            while stack and unreached:
                i = stack.pop()
                for j in fixed[i] + [j for s in subset for j in moves[s][i]]:
                    if not seen[j]:
                        seen[j] = 1
                        unreached -= not base[j]
                        stack.append(j)
            if not unreached:
                return tuple(members[candidates[s]] for s in subset)
    return None


def format_monoid(monoid: TransformationMonoid) -> str:
    """Line-based dump: header, then ``index: images : witness-word`` per element.

    Each line is written from the stored images, as ``Transformation.format``
    would write them; no ``Transformation`` object is built.
    """
    _require_monoid(monoid)
    lines = [f"degree {monoid.degree} size {len(monoid)}"]
    digits = list(map(str, range(monoid.degree)))
    for i, (images, word) in enumerate(zip(monoid._encoded, monoid.witness_words)):
        text = ",".join(map(digits.__getitem__, images))
        lines.append(f"{i}: {text} : {' '.join(word)}".rstrip())
    return "\n".join(lines) + "\n"
