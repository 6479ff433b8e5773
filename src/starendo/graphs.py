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
single vertex (a superset of all five classes, built by backtracking over
the vertices) and filters every candidate by these predicates, so the
closed-form cardinalities and structural descriptions stay testable claims
instead of build assumptions.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Iterable, Sequence

from .errors import BudgetExceededError
from .monoid import TransformationMonoid
from .transform import Transformation, _compose_images

DEFAULT_SCAN_DEGREE = 8


class EndoClass(enum.Enum):
    END = "end"
    WEAK_END = "wend"
    STRONG_END = "send"
    STRONG_WEAK_END = "swend"
    AUT = "aut"


class SimpleGraph:
    """An undirected graph without loops or multiple edges.

    Edges are stored as sorted vertex pairs; endpoints must be in range.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError(f"invalid vertex count {vertex_count}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
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
    if n < 1:
        raise ValueError(f"invalid vertex count {n}")
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


_CLASS_BITS = (
    (EndoClass.END, 1),
    (EndoClass.WEAK_END, 2),
    (EndoClass.STRONG_END, 4),
    (EndoClass.STRONG_WEAK_END, 8),
    (EndoClass.AUT, 16),
)
_MEMBERSHIP_SETS = tuple(
    frozenset(c for c, bit in _CLASS_BITS if mask & bit) for mask in range(32)
)


def _memberships(
    img: Sequence[int],
    edges: Sequence[tuple[int, int]],
    non_edges: Sequence[tuple[int, int]],
    adj: Sequence[Sequence[bool]],
) -> frozenset[EndoClass]:
    """The classes of the map ``img``, from the literal definitions in one pass.

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
                return _MEMBERSHIP_SETS[0]
            endo = False
    non_edges_kept = True
    for u, v in non_edges:
        if adj[img[u]][img[v]]:
            non_edges_kept = False
            break
    strong = endo and non_edges_kept
    aut = strong and len(set(img)) == len(img)
    return _MEMBERSHIP_SETS[2 | endo | strong << 2 | non_edges_kept << 3 | aut << 4]


def classify(f: Transformation, graph: SimpleGraph) -> frozenset[EndoClass]:
    """The exact set of endomorphism classes ``f`` belongs to on ``graph``."""
    n = graph.vertex_count
    if f.degree != n:
        raise ValueError(f"degree mismatch: map has degree {f.degree}, graph has {n}")
    return _memberships(f.images, *_pair_table(graph))


def _edge_constrained_maps(graph: SimpleGraph) -> list[tuple[int, ...]]:
    """Every map sending each edge to an edge or a single vertex, in lex order.

    Vertices are assigned in the order 0, ..., n-1; for each edge (u, v)
    with u < v the image of v is restricted to the image of u and its
    neighbours.  Every map in the five classes is a weak endomorphism and
    so survives this restriction.
    """
    n = graph.vertex_count
    closed = [{x} for x in range(n)]
    for u, v in graph.edges:
        closed[u].add(v)
        closed[v].add(u)
    options = [tuple(sorted(c)) for c in closed]
    maps: list[tuple[int, ...]] = [()]
    for v in range(n):
        earlier = [u for u in range(v) if graph.has_edge(u, v)]
        if not earlier:
            maps = [m + (x,) for m in maps for x in range(n)]
            continue
        first, rest = earlier[0], earlier[1:]
        maps = [
            m + (x,)
            for m in maps
            for x in options[m[first]]
            if not rest or all(x in closed[m[u]] for u in rest)
        ]
    return maps


def _graph_census(graph: SimpleGraph) -> dict[EndoClass, tuple[tuple[int, ...], ...]]:
    """The maps of each class on ``graph``, in lex order.

    The edge-constrained scan proposes candidates; the literal definitions
    decide membership of every one of them.
    """
    edges, non_edges, adj = _pair_table(graph)
    out: dict[EndoClass, list[tuple[int, ...]]] = {c: [] for c in EndoClass}
    for img in _edge_constrained_maps(graph):
        for c in _memberships(img, edges, non_edges, adj):
            out[c].append(img)
    return {c: tuple(v) for c, v in out.items()}


@functools.lru_cache(maxsize=None)
def _class_census(n: int) -> dict[EndoClass, tuple[tuple[int, ...], ...]]:
    """The census of the star with n vertices, scanned once per degree."""
    return _graph_census(star_graph(n))


def _standard_generator_images(n: int) -> dict[str, tuple[int, ...]]:
    """Image tuples of the named generators on degree n (n >= 3)."""
    a0 = (0, 2, 1) + tuple(range(3, n))
    b0 = (0,) + tuple(range(2, n)) + (1,)
    e0 = (0, 1, 1) + tuple(range(3, n))
    c0 = (0, 0) + tuple(range(2, n))
    z = (1,) + (0,) * (n - 1)
    z0 = (0,) * n
    return {"a0": a0, "b0": b0, "e0": e0, "c0": c0, "z": z, "z0": z0}


def standard_generators(n: int, cls: EndoClass) -> list[tuple[str, Transformation]]:
    """The named generating set of minimum size for the given class.

    Supported for the endomorphism, strong weak endomorphism and weak
    endomorphism monoids with n >= 3.  For n = 3 the reduced sets are
    returned (a0 = b0 and e0 = z*z there).
    """
    if n < 3:
        raise ValueError(f"standard generators need n >= 3, got {n}")
    if cls not in (EndoClass.END, EndoClass.STRONG_WEAK_END, EndoClass.WEAK_END):
        raise ValueError(f"no standard generating set for class {cls.name}")
    gens = _standard_generator_images(n)
    if n == 3:
        names = {
            EndoClass.END: ["a0", "z"],
            EndoClass.STRONG_WEAK_END: ["a0", "z", "z0"],
            EndoClass.WEAK_END: ["a0", "c0", "z"],
        }[cls]
    else:
        names = {
            EndoClass.END: ["a0", "b0", "e0", "z"],
            EndoClass.STRONG_WEAK_END: ["a0", "b0", "e0", "z", "z0"],
            EndoClass.WEAK_END: ["a0", "b0", "e0", "c0", "z"],
        }[cls]
    return [(nm, Transformation(gens[nm])) for nm in names]


def _class_generators(n: int, cls: EndoClass) -> list[tuple[str, Transformation]]:
    """A generating set used to attach witness words to a census class."""
    if n == 1:
        return []
    if n == 2:
        swap = Transformation((1, 0))
        if cls in (EndoClass.END, EndoClass.STRONG_END, EndoClass.AUT):
            return [("s", swap)]
        return [("s", swap), ("z0", Transformation((0, 0)))]
    if cls is EndoClass.AUT:
        gens = _standard_generator_images(n)
        named = [("a0", Transformation(gens["a0"]))]
        if n >= 4:
            named.append(("b0", Transformation(gens["b0"])))
        return named
    if cls is EndoClass.STRONG_END:
        return standard_generators(n, EndoClass.END)
    return standard_generators(n, cls)


def enumerate_class(
    n: int, cls: EndoClass, *, max_degree: int = DEFAULT_SCAN_DEGREE
) -> TransformationMonoid:
    """All transformations of degree n in the given class, in lex order.

    An edge-constrained scan with the literal predicates as final filter;
    refuses degrees above ``max_degree`` (default 8) to keep default runs
    bounded.  Witness words and the Cayley table are built on first use.
    """
    if n < 1:
        raise ValueError(f"invalid degree {n}")
    if n > max_degree:
        raise BudgetExceededError(
            f"degree {n} exceeds the scan budget {max_degree}; raise max_degree to override"
        )
    elems = [Transformation(img) for img in _class_census(n)[cls]]
    return TransformationMonoid.from_elements(elems, _class_generators(n, cls))


def cardinality_formula(n: int, cls: EndoClass) -> int:
    """Closed-form size of the class monoid on the star with n vertices.

    Validity ranges: endomorphisms and weak endomorphisms for n >= 1,
    strong weak endomorphisms for n >= 2, automorphisms for n >= 3.  The
    strong endomorphism monoid coincides with the endomorphism monoid and
    shares its formula.
    """
    if n < 1:
        raise ValueError(f"invalid degree {n}")
    if cls in (EndoClass.END, EndoClass.STRONG_END):
        return (n - 1) ** (n - 1) + n - 1
    if cls is EndoClass.STRONG_WEAK_END:
        if n < 2:
            raise ValueError("strong weak endomorphism formula needs n >= 2")
        return (n - 1) ** (n - 1) + 2 * n - 1
    if cls is EndoClass.WEAK_END:
        return n ** (n - 1) + (n - 1) * 2 ** (n - 1)
    if cls is EndoClass.AUT:
        if n < 3:
            raise ValueError("automorphism formula needs n >= 3")
        return math.factorial(n - 1)
    raise ValueError(f"unknown class {cls!r}")


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
    return all(is_regular_element(f, monoid) for f in monoid.elements)
