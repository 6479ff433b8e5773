"""Star graphs, the five endomorphism-type predicates, and exhaustive censuses.

The star graph on n vertices has hub 0 joined to every other vertex.  A full
transformation of the vertex set is classified against five conditions,
checked literally over vertex pairs:

* endomorphism: every edge maps to an edge;
* weak endomorphism: every edge whose endpoints stay distinct maps to an edge;
* strong endomorphism: pairs are edges exactly when their images are;
* strong weak endomorphism: the "if and only if" variant of weak;
* automorphism: bijective strong endomorphism.

``enumerate_class`` scans the maps that send every edge to an edge or to a
single vertex (a superset of all five classes, stated once by
``_leaf_images``) and filters every candidate by these predicates, so the
closed-form cardinalities and structural descriptions stay testable claims
instead of build assumptions.  The scan is a column kernel: the candidates
are one ``bytes`` column per vertex, written block by block by ``bytes``
repetition, and each vertex pair is judged across all candidates at once by
``bytes.translate`` and big-integer arithmetic with one byte per candidate.
It yields one membership mask per candidate; ``census`` counts the masks,
and only ``enumerate_class`` builds the maps' rows, as ``bytes``.

``classify`` and ``count_class`` judge one map at a time by
``_membership_mask``, a second, independent implementation of the same
definitions.

``count_class`` counts the same classes without listing them, past the
scan's degree limit.  Permuting the leaves in the domain keeps every class,
so it classifies one map per orbit of Sym(n-1) by the same predicates and
adds up the orbit sizes.  The scan and the count are independent engines
that cross-check each other for n <= ``MAX_SCAN_DEGREE``.

``enumerate_class``, ``count_class``, ``standard_generators`` and
``cardinality_formula`` take a class as an ``EndoClass`` or its value
(``"end"``, ``"wend"``, ...) and raise ValueError for an unknown class or a
degree that is not an ``int`` of at least 1 (a ``bool`` is not a degree).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import struct
from typing import Iterable, Sequence

from .errors import BudgetExceededError, _require_count
from .monoid import TransformationMonoid
from .transform import Transformation, _compose_images, _require_map

# The largest degree the scan accepts.  At n = 9 the candidates alone would
# fill 9 columns of 9**8 + 8 * 2**8 = 43,048,769 bytes each, and
# enumerate_class would build as many rows.
MAX_SCAN_DEGREE = 8


class EndoClass(enum.Enum):
    END = "end"
    WEAK_END = "wend"
    STRONG_END = "send"
    STRONG_WEAK_END = "swend"
    AUT = "aut"


class SimpleGraph:
    """An undirected graph without loops or multiple edges.

    Edges are stored as sorted vertex pairs; each edge must be a pair of
    ``int`` (not ``bool``) vertices in range, or ValueError.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        _require_count("vertex count", vertex_count)
        norm = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
            for w in (u, v):
                if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < vertex_count:
                    raise ValueError(f"edge {edge!r}: vertex {w!r} is not an int in range")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        self.vertex_count = vertex_count
        self.edges = frozenset(norm)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.vertex_count}, {sorted(self.edges)})"


def star_graph(n: int) -> SimpleGraph:
    """The star with n vertices: hub 0 joined to each of 1, ..., n-1."""
    _require_count("vertex count", n)
    return SimpleGraph(n, [(0, i) for i in range(1, n)])


def _pair_table(graph: SimpleGraph) -> tuple[list, list, list[list[bool]]]:
    """The edges and the non-edges as vertex pairs u < v, and the adjacency matrix."""
    n = graph.vertex_count
    adj = [[False] * n for _ in range(n)]
    for u, v in graph.edges:
        adj[u][v] = True
        adj[v][u] = True
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v) for u, v in pairs if adj[u][v]]
    non_edges = [(u, v) for u, v in pairs if not adj[u][v]]
    return edges, non_edges, adj


# a membership mask has bit b set when the map lies in class _CLASS_ORDER[b]
_CLASS_ORDER = (
    EndoClass.END,
    EndoClass.WEAK_END,
    EndoClass.STRONG_END,
    EndoClass.STRONG_WEAK_END,
    EndoClass.AUT,
)
# _SELECT[b][mask] is 1 when bit b of the mask is set
_SELECT = tuple(bytes(mask >> b & 1 for mask in range(256)) for b in range(len(_CLASS_ORDER)))


def _membership_mask(
    img: Sequence[int],
    edges: Sequence[tuple[int, int]],
    non_edges: Sequence[tuple[int, int]],
    adj: Sequence[Sequence[bool]],
) -> int:
    """The classes of the map ``img`` as a mask over ``_CLASS_ORDER``, from the
    literal definitions in one pass.

    The pass visits each vertex pair at most once, edges first, and judges
    it against all four definitions at once.  An edge sent to a non-edge
    breaks all four when its endpoints stay distinct, so the pass stops
    there; when they collapse it breaks only the endomorphism and strong
    endomorphism conditions.  A non-edge sent to an edge breaks the strong
    and strong weak conditions, after which no further non-edge can change
    the answer.  A pair that keeps its adjacency breaks nothing.  So the
    weak condition holds whenever the edges pass completes, and
    automorphisms are the bijective strong endomorphisms.
    """
    endo = True
    for u, v in edges:
        x = img[u]
        y = img[v]
        if not adj[x][y]:
            if x != y:
                return 0
            endo = False
    non_edges_kept = True
    for u, v in non_edges:
        if adj[img[u]][img[v]]:
            non_edges_kept = False
            break
    strong = endo and non_edges_kept
    aut = strong and len(set(img)) == len(img)
    return 2 | endo | strong << 2 | non_edges_kept << 3 | aut << 4


def classify(f: Transformation, graph: SimpleGraph) -> frozenset[EndoClass]:
    """The exact set of endomorphism classes ``f`` belongs to on ``graph``;
    ValueError for a value that is not a Transformation of the graph's degree."""
    _require_map(f, graph.vertex_count)
    mask = _membership_mask(f.images, *_pair_table(graph))
    return frozenset(c for c, select in zip(_CLASS_ORDER, _SELECT) if select[mask])


def _leaf_images(n: int) -> tuple[tuple[int, ...], ...]:
    """The images the leaves of the star may take, indexed by the hub's image.

    A map sends every edge to an edge or a single vertex exactly when it
    fixes the hub and sends the leaves anywhere, or sends the hub to a leaf
    h and every leaf to 0 or h.  Every weak endomorphism, and so every map
    of the five classes, is such a map.
    """
    return (tuple(range(n)),) + tuple((0, h) for h in range(1, n))


def _star_columns(n: int) -> tuple[bytes, ...]:
    """Every map of the star restricted by ``_leaf_images``, as one ``bytes``
    column per vertex: row r of column v is the image of v under the r-th
    map, and the rows are in lex order.

    The rows come in one block per hub image, in increasing order.  Inside a
    block whose leaves take k values, leaf i holds each value for
    k**(n-1-i) rows in turn, and that run repeats k**(i-1) times.
    """
    blocks: list[list[bytes]] = [[] for _ in range(n)]
    for hub, values in enumerate(_leaf_images(n)):
        k = len(values)
        blocks[0].append(bytes((hub,)) * k ** (n - 1))
        for leaf in range(1, n):
            run = b"".join(bytes((x,)) * k ** (n - 1 - leaf) for x in values)
            blocks[leaf].append(run * k ** (leaf - 1))
    return tuple(map(b"".join, blocks))


# the pair code x * n + y of two images fits a byte up to this degree
_PAIR_CODE_DEGREE = 16
# flag bits of one vertex pair; a map's flags are the AND over its pairs
_ENDO, _WEAK, _KEPT, _INJECTIVE = 1, 2, 8, 16


def _mask_of_flags(flags: int) -> int:
    """A map's membership mask from its ANDed pair flags, combined as in
    ``_membership_mask``."""
    if not flags & _WEAK:
        return 0
    endo, kept, injective = bool(flags & _ENDO), bool(flags & _KEPT), bool(flags & _INJECTIVE)
    strong = endo and kept
    return 2 | endo | strong << 2 | kept << 3 | (strong and injective) << 4


_MASK_OF_FLAGS = bytes(map(_mask_of_flags, range(256)))


def _pair_masks(columns: Sequence[bytes], graph: SimpleGraph) -> bytes:
    """The membership mask over ``_CLASS_ORDER`` of every row of ``columns``,
    one byte per row, from the literal definitions one vertex pair at a time.

    Columns u and v read as big integers with one byte per row give
    ``col_u * n + col_v``, whose byte r is the pair code x * n + y of the
    images of row r.  A 256-byte table reads the pair's flags off it: an
    edge keeps ``_ENDO`` when its images are adjacent and ``_WEAK`` when
    they are adjacent or equal; a non-edge keeps ``_KEPT`` when its images
    are not adjacent; every pair keeps ``_INJECTIVE`` when its images
    differ.  The flags of all pairs are ANDed as big integers, and
    ``_mask_of_flags`` combines them.  Raises ValueError above
    ``_PAIR_CODE_DEGREE`` vertices.
    """
    n = graph.vertex_count
    if n > _PAIR_CODE_DEGREE:
        raise ValueError(f"the scan handles at most {_PAIR_CODE_DEGREE} vertices, got {n}")
    rows = len(columns[0])
    _, _, adj = _pair_table(graph)
    non_edge_table, edge_table = bytearray(256), bytearray(256)
    for x in range(n):
        for y in range(n):
            injective = _INJECTIVE if x != y else 0
            edge_table[x * n + y] = injective | _KEPT | (
                _ENDO | _WEAK if adj[x][y] else _WEAK if x == y else 0
            )
            non_edge_table[x * n + y] = injective | _ENDO | _WEAK | (0 if adj[x][y] else _KEPT)
    tables = (bytes(non_edge_table), bytes(edge_table))  # indexed by adjacency
    values = [int.from_bytes(col, "big") for col in columns]
    flags = int.from_bytes(bytes((_ENDO | _WEAK | _KEPT | _INJECTIVE,)) * rows, "big")
    for u in range(n):
        scaled = values[u] * n
        for v in range(u + 1, n):
            codes = (scaled + values[v]).to_bytes(rows, "big")
            flags &= int.from_bytes(codes.translate(tables[adj[u][v]]), "big")
    return flags.to_bytes(rows, "big").translate(_MASK_OF_FLAGS)


@functools.lru_cache(maxsize=None)
def _star_scan(n: int) -> tuple[tuple[bytes, ...], bytes]:
    """The candidate columns of the star with n vertices and the membership
    mask of every row, once per degree."""
    columns = _star_columns(n)
    return columns, _pair_masks(columns, star_graph(n))


@functools.lru_cache(maxsize=None)
def _class_census(n: int) -> dict[EndoClass, tuple[bytes, ...]]:
    """The maps of each class on the star with n vertices, in lex order, as
    the ``bytes`` of their images; the classes share their row objects.

    The rows are read off the columns interleaved into one buffer, n bytes
    per row.
    """
    columns, masks = _star_scan(n)
    table = bytearray(n * len(masks))
    for v, column in enumerate(columns):
        table[v::n] = column
    rows = list(map(operator.itemgetter(0), struct.iter_unpack(f"{n}s", table)))
    return {
        c: tuple(itertools.compress(rows, masks.translate(select)))
        for c, select in zip(_CLASS_ORDER, _SELECT)
    }


def _scan_counts(n: int) -> dict[EndoClass, int]:
    """The size of each class on the star with n vertices, read off the
    scan's masks without building a row."""
    _, masks = _star_scan(n)
    return {c: masks.translate(select).count(1) for c, select in zip(_CLASS_ORDER, _SELECT)}


@functools.lru_cache(maxsize=None)
def _orbit_census(n: int) -> dict[EndoClass, int]:
    """The size of each class on the star with n vertices, counted over the
    orbits of Sym(n-1) acting on the leaves in the domain.

    An orbit is fixed by the hub's image and the multiset of leaf images, so
    one representative per orbit is the hub's image followed by the sorted
    leaf images, drawn from ``_leaf_images``, the scan's restriction.  Each
    representative is classified by ``_membership_mask``; its orbit has
    (n-1)!/prod(m!) maps, where the m are the multiplicities of the leaf
    images.
    """
    edges, non_edges, adj = _pair_table(star_graph(n))
    leaves = n - 1
    factorial = [math.factorial(m) for m in range(n)]
    by_mask = [0] * 256  # the orbit sizes of each mask byte
    for hub, values in enumerate(_leaf_images(n)):
        for leaf_images in itertools.combinations_with_replacement(values, leaves):
            mask = _membership_mask((hub,) + leaf_images, edges, non_edges, adj)
            if mask:
                stabiliser = 1
                for v in set(leaf_images):
                    stabiliser *= factorial[leaf_images.count(v)]
                by_mask[mask] += factorial[leaves] // stabiliser
    return {
        c: sum(itertools.compress(by_mask, select)) for c, select in zip(_CLASS_ORDER, _SELECT)
    }


def count_class(n: int, cls: EndoClass | str) -> int:
    """The number of maps of degree n in the given class, counted one leaf
    orbit at a time (no degree limit; all five classes are counted in one
    pass per degree and kept).  Raises ValueError for a bad degree or class.
    """
    return _orbit_census(_require_count("degree", n))[EndoClass(cls)]


# the generators of each class by name, for n >= 4; SEND is END's set
_GENERATOR_NAMES = {
    EndoClass.END: ("a0", "b0", "e0", "z"),
    EndoClass.WEAK_END: ("a0", "b0", "e0", "c0", "z"),
    EndoClass.STRONG_END: ("a0", "b0", "e0", "z"),
    EndoClass.STRONG_WEAK_END: ("a0", "b0", "e0", "z", "z0"),
    EndoClass.AUT: ("a0", "b0"),
}


def _named_generators(n: int, cls: EndoClass) -> list[tuple[str, Transformation]]:
    """The generators ``_GENERATOR_NAMES`` lists for the class on degree n
    (n >= 3); at n = 3, where a0 = b0 and e0 = z*z, without b0 and e0."""
    images = {
        "a0": (0, 2, 1) + tuple(range(3, n)),
        "b0": (0,) + tuple(range(2, n)) + (1,),
        "e0": (0, 1, 1) + tuple(range(3, n)),
        "c0": (0, 0) + tuple(range(2, n)),
        "z": (1,) + (0,) * (n - 1),
        "z0": (0,) * n,
    }
    dropped = ("b0", "e0") if n == 3 else ()
    return [(nm, Transformation(images[nm])) for nm in _GENERATOR_NAMES[cls] if nm not in dropped]


def standard_generators(n: int, cls: EndoClass | str) -> list[tuple[str, Transformation]]:
    """The named generating set of minimum size for the given class.

    Supported for the endomorphism, strong weak endomorphism and weak
    endomorphism monoids with n >= 3.  For n = 3 the reduced sets are
    returned (a0 = b0 and e0 = z*z there).
    """
    cls = EndoClass(cls)
    _require_count("degree", n, 3)
    if cls in (EndoClass.STRONG_END, EndoClass.AUT):
        raise ValueError(f"no standard generating set for class {cls.name}")
    return _named_generators(n, cls)


def _class_generators(n: int, cls: EndoClass) -> list[tuple[str, Transformation]]:
    """A generating set used to attach witness words to a census class."""
    if n == 1:
        return []
    if n == 2:
        swap = Transformation((1, 0))
        if cls in (EndoClass.END, EndoClass.STRONG_END, EndoClass.AUT):
            return [("s", swap)]
        return [("s", swap), ("z0", Transformation((0, 0)))]
    return _named_generators(n, cls)


def enumerate_class(n: int, cls: EndoClass | str) -> TransformationMonoid:
    """All transformations of degree n in the given class, in lex order.

    A scan of the star's candidates with the literal predicates as final
    filter; raises BudgetExceededError for degrees above ``MAX_SCAN_DEGREE``.
    Witness words and the Cayley table come from the generation proof's walk.
    """
    cls = EndoClass(cls)
    if _require_count("degree", n) > MAX_SCAN_DEGREE:
        raise BudgetExceededError(f"degree {n} exceeds the scan limit {MAX_SCAN_DEGREE}")
    return TransformationMonoid.from_elements(_class_census(n)[cls], _class_generators(n, cls))


def cardinality_formula(n: int, cls: EndoClass | str) -> int:
    """Closed-form size of the class monoid on the star with n vertices.

    Validity ranges: endomorphisms and weak endomorphisms for n >= 1,
    strong weak endomorphisms for n >= 2, automorphisms for n >= 3.  The
    strong endomorphism monoid coincides with the endomorphism monoid and
    shares its formula.
    """
    cls = EndoClass(cls)
    _require_count("degree", n)
    if cls in (EndoClass.END, EndoClass.STRONG_END):
        return (n - 1) ** (n - 1) + n - 1
    if cls is EndoClass.STRONG_WEAK_END:
        if n < 2:
            raise ValueError("strong weak endomorphism formula needs n >= 2")
        return (n - 1) ** (n - 1) + 2 * n - 1
    if cls is EndoClass.WEAK_END:
        return n ** (n - 1) + (n - 1) * 2 ** (n - 1)
    if n < 3:  # automorphisms
        raise ValueError("automorphism formula needs n >= 3")
    return math.factorial(n - 1)


def is_regular_element(f: Transformation, monoid: TransformationMonoid) -> bool:
    """True iff some b in the monoid satisfies f*b*f == f (brute force)."""
    if f not in monoid:
        raise ValueError("element is not in the monoid")
    fi = f.images
    for b in monoid.elements:
        if _compose_images(_compose_images(fi, b.images), fi) == fi:
            return True
    return False


def is_regular_monoid(monoid: TransformationMonoid) -> bool:
    """True iff every J-class holds an idempotent.

    In a finite monoid J = D, and a D-class either holds an idempotent and
    consists of regular elements or holds no regular element at all.
    The idempotents are tested on the monoid's stored images.
    """
    return all(any(map(monoid._is_idempotent, members)) for members in monoid._j_classes())
