from itertools import product

import pytest
from starendo import (
    BudgetExceededError,
    EndoClass,
    SimpleGraph,
    Transformation,
    cardinality_formula,
    classify,
    enumerate_class,
    identity,
    is_regular_element,
    is_regular_monoid,
    standard_generators,
    star_graph,
)
from starendo.graphs import _graph_census

END = EndoClass.END
WEND = EndoClass.WEAK_END
SEND = EndoClass.STRONG_END
SWEND = EndoClass.STRONG_WEAK_END
AUT = EndoClass.AUT


class TestGraphs:
    def test_star_edges(self):
        g = star_graph(4)
        assert g.vertex_count == 4
        assert g.edges == {(0, 1), (0, 2), (0, 3)}

    def test_degenerate_stars(self):
        assert star_graph(1).edges == frozenset()
        assert star_graph(2).edges == {(0, 1)}

    def test_invalid(self):
        with pytest.raises(ValueError):
            star_graph(0)
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 0)])
        with pytest.raises(ValueError):
            SimpleGraph(3, [(0, 5)])

    def test_edge_normalization(self):
        g = SimpleGraph(3, [(2, 0), (0, 2)])
        assert g.edges == {(0, 2)}
        assert g.has_edge(2, 0)


class TestClassify:
    def test_edge_preserving_map(self):
        got = classify(Transformation((0, 1, 1, 3)), star_graph(4))
        assert END in got

    def test_constant_map(self):
        got = classify(Transformation((0, 0, 0, 0)), star_graph(4))
        assert WEND in got and SWEND in got
        assert END not in got

    def test_identity_in_all_classes(self):
        for n in range(1, 6):
            assert classify(identity(n), star_graph(n)) == frozenset(EndoClass)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            classify(identity(3), star_graph(4))

    def test_named_generators_memberships(self):
        # hub-swap z is edge-preserving; constant z0 and half-collapse c0 are not
        for n in (4, 5):
            gens = dict(standard_generators(n, WEND))
            gens.update(standard_generators(n, SWEND))
            z, z0, c0 = gens["z"], gens["z0"], gens["c0"]
            g = star_graph(n)
            assert END in classify(z, g)
            z0_cls = classify(z0, g)
            assert SWEND in z0_cls and END not in z0_cls
            c0_cls = classify(c0, g)
            assert WEND in c0_cls and SWEND not in c0_cls

    def test_inclusion_lattice_exhaustive(self):
        for n in range(1, 6):
            g = star_graph(n)
            for img in product(range(n), repeat=n):
                got = classify(Transformation(img), g)
                if AUT in got:
                    assert SEND in got
                if SEND in got:
                    assert END in got and SWEND in got
                if END in got:
                    assert WEND in got
                if SWEND in got:
                    assert WEND in got

    def test_bijective_weak_implies_automorphism(self):
        for n in range(1, 7):
            g = star_graph(n)
            for img in product(range(n), repeat=n):
                if len(set(img)) != n:
                    continue
                got = classify(Transformation(img), g)
                if WEND in got:
                    assert AUT in got

    def test_non_star_graph(self):
        # triangle: any permutation of the vertices is an automorphism
        g = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert classify(Transformation((1, 2, 0)), g) == frozenset(EndoClass)
        got = classify(Transformation((0, 0, 2)), g)
        assert END not in got and WEND in got


def literal_classes(img, g):
    """The five definitions written out separately, as an oracle for ``classify``."""
    n = g.vertex_count
    adj = g.has_edge
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out = set()
    if all(adj(img[u], img[v]) for u, v in g.edges):
        out.add(END)
    if all(img[u] == img[v] or adj(img[u], img[v]) for u, v in g.edges):
        out.add(WEND)
    strong = all(adj(u, v) == adj(img[u], img[v]) for u, v in pairs)
    if strong:
        out.add(SEND)
    if all((adj(u, v) and img[u] != img[v]) == adj(img[u], img[v]) for u, v in pairs):
        out.add(SWEND)
    if strong and len(set(img)) == n:
        out.add(AUT)
    return frozenset(out)


SMALL_GRAPHS = {
    "path P4": SimpleGraph(4, [(0, 1), (1, 2), (2, 3)]),
    "triangle": SimpleGraph(3, [(0, 1), (1, 2), (0, 2)]),
    "3 isolated vertices": SimpleGraph(3, []),
    "4-cycle": SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "star with a pendant path": SimpleGraph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
}


class TestPredicateDispatch:
    def test_matches_separate_definitions(self):
        graphs = [star_graph(n) for n in range(1, 6)] + list(SMALL_GRAPHS.values())
        for g in graphs:
            n = g.vertex_count
            for img in product(range(n), repeat=n):
                assert classify(Transformation(img), g) == literal_classes(img, g), (g, img)


def brute_force_census(g):
    """Literal ``classify`` filter over all n^n maps, per class, in lex order."""
    n = g.vertex_count
    maps = [(img, classify(Transformation(img), g)) for img in product(range(n), repeat=n)]
    return {c: tuple(img for img, got in maps if c in got) for c in EndoClass}


class TestEdgeConstrainedScan:
    def test_star_matches_brute_force(self):
        for n in range(1, 7):
            assert _graph_census(star_graph(n)) == brute_force_census(star_graph(n)), n

    def test_non_star_graphs_match_brute_force(self):
        for name, g in SMALL_GRAPHS.items():
            assert _graph_census(g) == brute_force_census(g), name


class TestEnumerate:
    def test_sizes(self):
        assert len(enumerate_class(4, END)) == 30
        assert len(enumerate_class(4, WEND)) == 88
        assert len(enumerate_class(3, AUT)) == 2

    def test_lex_order_and_distinct(self):
        m = enumerate_class(4, END)
        imgs = [t.images for t in m.elements]
        assert imgs == sorted(set(imgs))

    def test_closed_and_unital(self):
        for cls in EndoClass:
            m = enumerate_class(3, cls)
            elems = set(m.elements)
            assert identity(3) in elems
            for f in elems:
                for g in elems:
                    assert f * g in elems

    def test_strong_equals_end_elementwise(self):
        for n in range(1, 8):
            assert enumerate_class(n, SEND).elements == enumerate_class(n, END).elements

    @pytest.mark.slow
    def test_strong_equals_end_elementwise_full_budget(self):
        assert enumerate_class(8, SEND).elements == enumerate_class(8, END).elements

    def test_descriptions_small(self):
        # hub-fixing maps into the leaves, plus the leaf-to-hub collapses
        for n in (3, 4, 5):
            end_set = {t.images for t in enumerate_class(n, END)}
            described = {
                img
                for img in product(range(n), repeat=n)
                if img[0] == 0 and all(v != 0 for v in img[1:])
            }
            described |= {(i,) + (0,) * (n - 1) for i in range(1, n)}
            assert end_set == described

    def test_degenerate_degrees(self):
        assert [t.images for t in enumerate_class(1, END)] == [(0,)]
        assert len(enumerate_class(2, END)) == 2
        assert len(enumerate_class(2, WEND)) == 4
        assert len(enumerate_class(2, SWEND)) == 4
        assert len(enumerate_class(2, AUT)) == 2

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_class(9, END)
        with pytest.raises(ValueError):
            enumerate_class(0, END)


class TestFormulas:
    def test_examples(self):
        assert cardinality_formula(5, END) == 260
        assert cardinality_formula(4, SWEND) == 34
        assert cardinality_formula(3, WEND) == 17
        assert cardinality_formula(5, AUT) == 24

    def test_matches_enumeration(self):
        for n in range(1, 6):
            for cls in EndoClass:
                try:
                    f = cardinality_formula(n, cls)
                except ValueError:
                    continue
                assert f == len(enumerate_class(n, cls)), (n, cls)

    def test_validity_ranges(self):
        with pytest.raises(ValueError):
            cardinality_formula(1, SWEND)
        with pytest.raises(ValueError):
            cardinality_formula(2, AUT)
        with pytest.raises(ValueError):
            cardinality_formula(0, END)

    def test_big_integer(self):
        assert cardinality_formula(8, WEND) == 8**7 + 7 * 2**7


class TestStandardGenerators:
    def test_end_n4(self):
        got = standard_generators(4, END)
        assert [(nm, t.images) for nm, t in got] == [
            ("a0", (0, 2, 1, 3)),
            ("b0", (0, 2, 3, 1)),
            ("e0", (0, 1, 1, 3)),
            ("z", (1, 0, 0, 0)),
        ]

    def test_end_n3_reduced(self):
        got = standard_generators(3, END)
        assert [(nm, t.images) for nm, t in got] == [("a0", (0, 2, 1)), ("z", (1, 0, 0))]

    def test_wend_includes_half_collapse(self):
        got = dict(standard_generators(4, WEND))
        assert got["c0"].images == (0, 0, 2, 3)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            standard_generators(2, END)
        with pytest.raises(ValueError):
            standard_generators(4, AUT)


class TestRegularity:
    def test_hub_swap_is_regular(self):
        m = enumerate_class(4, END)
        z = Transformation((1, 0, 0, 0))
        assert is_regular_element(z, m)

    def test_identity_is_regular(self):
        m = enumerate_class(3, END)
        assert is_regular_element(identity(3), m)

    def test_whole_monoid(self):
        assert is_regular_monoid(enumerate_class(4, WEND))

    def test_membership_required(self):
        m = enumerate_class(4, END)
        with pytest.raises(ValueError):
            is_regular_element(Transformation((0, 0, 0, 0)), m)
