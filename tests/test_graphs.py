import hashlib
from itertools import product

import pytest
from hypothesis import given, strategies as st
from starendo import (
    BudgetExceededError,
    EndoClass,
    SimpleGraph,
    Transformation,
    cardinality_formula,
    classify,
    count_class,
    end_star_presentation,
    enumerate_class,
    format_monoid,
    full_transf_presentation,
    generate,
    identity,
    is_regular_element,
    is_regular_monoid,
    partial_transf_presentation,
    standard_generators,
    star_graph,
    swend_star_presentation,
    sym_presentation,
    wend_star_presentation,
)
from starendo.graphs import (
    _CLASS_ORDER,
    _SELECT,
    _class_census,
    _class_generators,
    _membership_mask,
    _pair_masks,
    _pair_table,
    _star_columns,
)

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

    @pytest.mark.parametrize(
        "edge",
        [(0, 1.5), (True, 2), (0, False), (0, 1, 2), (0,), 5, None, "01", (0, -1), (0, "1")],
    )
    def test_edge_that_is_not_a_pair_of_vertices_in_range(self, edge):
        with pytest.raises(ValueError, match="edge"):
            SimpleGraph(3, [(0, 1), edge])

    def test_edge_normalization(self):
        g = SimpleGraph(3, [(2, 0), (0, 2)])
        assert g.edges == {(0, 2)}
        assert g.has_edge(2, 0)
        h = SimpleGraph(3, [(2, 0)])
        assert h == SimpleGraph(3, [(0, 2)]) and hash(h) == hash(SimpleGraph(3, [(0, 2)]))
        assert h != star_graph(3)


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

    @pytest.mark.parametrize("graph", ["x", None, 4, [(0, 1)]])
    def test_graph_that_is_not_a_simple_graph(self, graph):
        with pytest.raises(ValueError, match="not a SimpleGraph"):
            classify(identity(3), graph)

    def test_image_tuple_is_not_a_map(self):
        # as index_of does: a ValueError, not a stray AttributeError
        with pytest.raises(ValueError, match="not a Transformation"):
            classify((0, 1, 1), star_graph(3))

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
    return {c: tuple(bytes(img) for img, got in maps if c in got) for c in EndoClass}


def all_map_columns(n):
    """All n^n maps of degree n in lex order, as one ``bytes`` column per vertex."""
    return tuple(map(bytes, zip(*product(range(n), repeat=n))))


def mask_classes(mask):
    return frozenset(c for c, select in zip(_CLASS_ORDER, _SELECT) if select[mask])


def assert_kernel_matches_definitions(g):
    """``_pair_masks`` on all n^n maps of ``g`` against ``literal_classes``, map by map."""
    columns = all_map_columns(g.vertex_count)
    for img, mask in zip(zip(*columns), _pair_masks(columns, g)):
        assert mask_classes(mask) == literal_classes(img, g), (g, img)


class TestEdgeConstrainedScan:
    def test_star_matches_brute_force(self):
        for n in range(1, 7):
            assert _class_census(n) == brute_force_census(star_graph(n)), n

    def test_star_n7_matches_every_map(self):
        # all 7^7 maps through the per-map predicate, against the scan's rows
        n = 7
        edges, non_edges, adj = _pair_table(star_graph(n))
        literal = {c: [] for c in _CLASS_ORDER}
        for img in product(range(n), repeat=n):
            mask = _membership_mask(img, edges, non_edges, adj)
            for c, select in zip(_CLASS_ORDER, _SELECT):
                if select[mask]:
                    literal[c].append(bytes(img))
        census = _class_census(n)
        for c in _CLASS_ORDER:
            assert census[c] == tuple(literal[c]), c

    def test_non_star_graphs_match_brute_force(self):
        for g in SMALL_GRAPHS.values():
            assert_kernel_matches_definitions(g)


def per_map_masks(columns, g):
    """``_membership_mask`` of every row of ``columns``, one byte per row."""
    edges, non_edges, adj = _pair_table(g)
    return bytes(_membership_mask(img, edges, non_edges, adj) for img in zip(*columns))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SimpleGraph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


class TestColumnKernel:
    """The column kernel against the per-map predicate and the literal definitions."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_star_candidates(self, n):
        # every candidate is a weak endomorphism of the star, in strict lex order
        g = star_graph(n)
        columns = _star_columns(n)
        rows = list(zip(*columns))
        assert len(columns) == n
        assert len(rows) == cardinality_formula(n, WEND)
        assert all(a < b for a, b in zip(rows, rows[1:]))
        masks = _pair_masks(columns, g)
        assert masks == per_map_masks(columns, g)
        assert all(WEND in mask_classes(mask) for mask in masks)

    def test_all_maps_of_small_graphs(self):
        for name, g in SMALL_GRAPHS.items():
            columns = all_map_columns(g.vertex_count)
            assert _pair_masks(columns, g) == per_map_masks(columns, g), name

    @given(small_graphs())
    def test_random_graphs_match_brute_force(self, g):
        assert_kernel_matches_definitions(g)

    def test_pair_code_limit(self):
        with pytest.raises(ValueError, match="at most 16"):
            _pair_masks((b"\0",) * 17, SimpleGraph(17, []))


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
        # the stored encodings, not ``elements``: the encoding is injective, and
        # building 823,550 Transformation objects per monoid would only cost memory
        assert enumerate_class(8, SEND)._encoded == enumerate_class(8, END)._encoded

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

    def test_trusted_elements_match_validated_construction(self):
        # the scan builds its elements without revalidating each image value
        for n in range(1, 7):
            for cls in EndoClass:
                m = enumerate_class(n, cls)
                validated = [Transformation(t.images) for t in m.elements]
                assert list(m.elements) == validated
                assert all(type(t) is Transformation and type(t.images) is tuple
                           and hash(t) == hash(v)
                           for t, v in zip(m.elements, validated))
            gens = _class_generators(n, WEND)
            if gens:
                built = generate(gens)
                assert list(built.elements) == [Transformation(t.images)
                                                for t in built.elements]
                assert set(built.elements) == set(enumerate_class(n, WEND).elements)

    # sha256 of format_monoid(enumerate_class(n, cls)) for n = 1..6, concatenated:
    # pins element order, image lists and witness words
    DUMP_DIGESTS = {
        END: "e851e8fad339d49ef796b54d75a6f0fffb6959b0f8de69358e350921573453af",
        WEND: "13e1c5777db4d778f453193fddd64a4ea9ec1b1c6ab3679705ad0029f7e0187f",
        SEND: "e851e8fad339d49ef796b54d75a6f0fffb6959b0f8de69358e350921573453af",
        SWEND: "2ffc19697decd8521703487c9d0a9b2fb52ce221b8685dde6d8db243e22d5276",
        AUT: "82da85dc8f979c85f0d561b2c0771a0129b781782a491a88f338e6b5d1995373",
    }

    @pytest.mark.parametrize("cls", list(EndoClass), ids=lambda c: c.value)
    def test_dumps_unchanged(self, cls):
        text = "".join(format_monoid(enumerate_class(n, cls)) for n in range(1, 7))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DUMP_DIGESTS[cls]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_class(9, END)
        with pytest.raises(ValueError):
            enumerate_class(0, END)


class TestCountClass:
    """The leaf-orbit counter against the scan and the closed forms."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_scan(self, n):
        for cls in EndoClass:
            assert count_class(n, cls) == len(_class_census(n)[cls]), (n, cls)

    @pytest.mark.slow
    def test_matches_scan_full_budget(self):
        for cls in EndoClass:
            assert count_class(8, cls) == len(_class_census(8)[cls]), cls

    @pytest.mark.parametrize("n", range(9, 12))
    def test_matches_formulas_past_the_scan(self, n):
        for cls in EndoClass:
            assert count_class(n, cls) == cardinality_formula(n, cls), (n, cls)

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            count_class(0, END)

    def test_automorphism_generators_n7(self):
        # enumerate_class proves that the generators generate the scanned set;
        # census no longer builds AUT_7, so this is the one place it is proved
        gens = _class_generators(7, AUT)
        m = enumerate_class(7, AUT)
        assert len(m) == 720
        assert set(generate(gens)._encoded) == set(m._encoded)


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


class TestGeneratorNames:
    """The names ``standard_generators`` and ``_class_generators`` give, class by class."""

    FULL = {END: "a0 b0 e0 z", SWEND: "a0 b0 e0 z z0", WEND: "a0 b0 e0 c0 z"}
    # at n = 3, a0 = b0 and e0 = z*z
    REDUCED = {END: "a0 z", SWEND: "a0 z z0", WEND: "a0 c0 z"}

    def test_standard_generators(self):
        for n in range(3, 7):
            expected = self.REDUCED if n == 3 else self.FULL
            for cls, names in expected.items():
                assert [nm for nm, _ in standard_generators(n, cls)] == names.split(), (n, cls)

    def test_class_generators(self):
        expected = {
            1: dict.fromkeys(EndoClass, ""),
            2: {END: "s", WEND: "s z0", SEND: "s", SWEND: "s z0", AUT: "s"},
            3: {**self.REDUCED, SEND: "a0 z", AUT: "a0"},
        }
        for n in range(4, 7):
            expected[n] = {**self.FULL, SEND: "a0 b0 e0 z", AUT: "a0 b0"}
        for n, by_class in expected.items():
            for cls in EndoClass:
                got = [nm for nm, _ in _class_generators(n, cls)]
                assert got == by_class[cls].split(), (n, cls)


API_FUNCTIONS = [enumerate_class, count_class, standard_generators, cardinality_formula]


def _edgeless_graph(n):
    return SimpleGraph(n, [])


# every other builder that takes a degree or a vertex count, with the least it accepts
DEGREE_BUILDERS = [
    (sym_presentation, 3),
    (full_transf_presentation, 3),
    (partial_transf_presentation, 3),
    (end_star_presentation, 3),
    (swend_star_presentation, 3),
    (wend_star_presentation, 3),
    (star_graph, 1),
    (_edgeless_graph, 1),
    (identity, 1),
]


class TestApiEdge:
    """The public functions take a class by value and reject bad degrees."""

    @pytest.mark.parametrize("fn", API_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_class_by_value(self, fn):
        for cls in (END, SWEND, WEND):
            by_value, by_member = fn(4, cls.value), fn(4, cls)
            if fn is enumerate_class:
                by_value, by_member = by_value._encoded, by_member._encoded
            assert by_value == by_member, cls

    @pytest.mark.parametrize("fn", API_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_unknown_class(self, fn):
        for cls in ("nope", "END", None):
            with pytest.raises(ValueError, match="not a valid EndoClass"):
                fn(4, cls)

    @pytest.mark.parametrize("fn", API_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_bad_degree(self, fn):
        for n in (True, False, 3.0, "3", None, 0, -2):
            with pytest.raises(ValueError, match="invalid degree"):
                fn(n, END)

    @pytest.mark.parametrize("build,least", DEGREE_BUILDERS,
                             ids=[build.__name__ for build, _ in DEGREE_BUILDERS])
    def test_builders_take_only_int_degrees(self, build, least):
        for n in (True, False, float(least), least + 0.5, str(least), None, least - 1):
            with pytest.raises(ValueError, match="invalid (degree|vertex count)"):
                build(n)
        build(least)


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

    def test_nilpotent_shift_not_regular(self):
        f = Transformation((0, 0, 1))
        m = generate([("f", f)])
        assert len(m) == 3
        assert not is_regular_element(f, m)
        assert not is_regular_monoid(m)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Transformation),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_per_j_class_matches_definition(self, gens):
        m = generate([(f"g{i}", t) for i, t in enumerate(gens)])
        assert is_regular_monoid(m) == all(is_regular_element(f, m) for f in m.elements)
