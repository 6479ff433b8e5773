import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

import starendo.monoid as monoid_module
from starendo import (
    BudgetExceededError,
    EndoClass,
    Transformation,
    TransformationMonoid,
    check_relation,
    enumerate_class,
    evaluate_word,
    format_monoid,
    generate,
    identity,
    is_generating_set,
    is_regular_monoid,
    rank_exact,
    standard_generators,
)


def pairwise_closure(gens):
    """Independent fixed-point oracle: multiply pairs until stable.

    Semi-naive: each round multiplies only the pairs with a factor that was
    new in the previous round, since every other pair was multiplied before.
    Products are taken on image tuples by the definition (f*g)[i] = g[f[i]].
    """
    elems = {tuple(range(gens[0].degree))} | {t.images for t in gens}
    new = set(elems)
    while new:
        products = {tuple(g[i] for i in f) for f in new for g in elems}
        products |= {tuple(g[i] for i in f) for f in elems for g in new}
        new = products - elems
        elems |= new
    return {Transformation(e) for e in elems}


class TestGenerate:
    def test_end_s4_size(self):
        assert len(generate(standard_generators(4, EndoClass.END))) == 30

    def test_identity_alone(self):
        assert len(generate([("i", identity(4))])) == 1

    def test_wend_s3_size(self):
        assert len(generate(standard_generators(3, EndoClass.WEAK_END))) == 17

    def test_matches_pairwise_closure_oracle(self):
        for n, cls in [(3, EndoClass.END), (3, EndoClass.WEAK_END),
                       (4, EndoClass.END), (4, EndoClass.STRONG_WEAK_END)]:
            gens = standard_generators(n, cls)
            m = generate(gens)
            assert set(m.elements) == pairwise_closure([t for _, t in gens])

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
                    Transformation
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_matches_pairwise_closure_on_random_generators(self, gens):
        m = generate([(f"g{i}", t) for i, t in enumerate(gens)])
        assert set(m.elements) == pairwise_closure(gens)

    def test_identity_is_element_zero(self):
        m = generate(standard_generators(4, EndoClass.WEAK_END))
        assert m.elements[0] == identity(4)
        assert m.witness_words[0] == ()

    def test_witness_words_sound(self):
        for n, cls in [(4, EndoClass.END), (3, EndoClass.WEAK_END)]:
            m = generate(standard_generators(n, cls))
            assignment = dict(zip(m.generator_names, m.generators))
            for t, w in zip(m.elements, m.witness_words):
                assert evaluate_word(assignment, w, m.degree) == t

    def test_witness_words_shortlex_in_discovery_order(self):
        m = generate(standard_generators(4, EndoClass.END))
        pos = {nm: i for i, nm in enumerate(m.generator_names)}
        keys = [(len(w), tuple(pos[x] for x in w)) for w in m.witness_words]
        assert keys == sorted(keys)

    def test_cayley_consistent_with_compose(self):
        m = generate(standard_generators(4, EndoClass.WEAK_END))
        rng = random.Random(7)
        for _ in range(200):
            i = rng.randrange(len(m))
            j = rng.randrange(len(m.generators))
            assert m.elements[m.right_cayley[i][j]] == m.elements[i] * m.generators[j]

    def test_deterministic(self):
        a = generate(standard_generators(4, EndoClass.END))
        b = generate(standard_generators(4, EndoClass.END))
        assert a.elements == b.elements
        assert a.witness_words == b.witness_words
        assert a.right_cayley == b.right_cayley

    def test_validation(self):
        with pytest.raises(ValueError):
            generate([])
        with pytest.raises(ValueError):
            generate([("x", identity(3)), ("y", identity(4))])

    def test_element_budget(self):
        with pytest.raises(BudgetExceededError):
            generate(standard_generators(4, EndoClass.END), max_elements=10)
        # a budget that is not an int of at least 1 is malformed, not exceeded
        for budget in (0, -1, True, 2.5):
            with pytest.raises(ValueError, match="max_elements"):
                generate(standard_generators(4, EndoClass.END), max_elements=budget)


class TestFromElements:
    def test_witnesses_and_cayley_after_reorder(self):
        m = enumerate_class(4, EndoClass.END)
        assignment = dict(zip(m.generator_names, m.generators))
        for t, w in zip(m.elements, m.witness_words):
            assert evaluate_word(assignment, w, m.degree) == t
        for i in range(len(m)):
            for j in range(len(m.generators)):
                assert m.elements[m.right_cayley[i][j]] == m.elements[i] * m.generators[j]

    def test_rejects_non_generating(self):
        elems = list(enumerate_class(4, EndoClass.END).elements)
        with pytest.raises(ValueError):
            TransformationMonoid.from_elements(elems, [("a0", Transformation((0, 2, 1, 3)))])

    def test_input_order_and_duplicates(self):
        # strictly increasing input is taken as it is; any other input is
        # deduplicated and sorted first, to the same monoid
        m = enumerate_class(4, EndoClass.WEAK_END)
        named = list(zip(m.generator_names, m.generators))
        rows = [t.images for t in m.elements]
        for elems in (rows, rows[::-1], rows[:1] + rows, rows + list(m.elements[:3])):
            assert TransformationMonoid.from_elements(elems, named)._encoded == m._encoded

    def test_generators_of_a_superset_rejected_at_once(self):
        # T_8's generators reach 8^8 maps, past any element budget; the
        # closure stops one element past the given set's size instead
        swap = Transformation((1, 0, 2, 3, 4, 5, 6, 7))
        gens = [("a", swap), ("b", Transformation((1, 2, 3, 4, 5, 6, 7, 0))),
                ("e", Transformation((1, 1, 2, 3, 4, 5, 6, 7)))]
        with pytest.raises(ValueError, match="do not generate"):
            TransformationMonoid.from_elements([identity(8), swap], gens)

    def test_structure_built_on_first_access(self):
        # the words are built without the Cayley rows, and the reverse
        for make in (lambda: enumerate_class(4, EndoClass.WEAK_END),
                     lambda: generate(standard_generators(4, EndoClass.END))):
            for read, unbuilt in (("witness_words", "right_cayley"),
                                  ("right_cayley", "witness_words")):
                m = make()
                value = getattr(m, read)
                assert read in vars(m) and unbuilt not in vars(m)
                assert getattr(m, read) is value

    def test_words_match_generated_closure(self):
        # the same shortlex words as the discovery-order closure, element by element
        cases = [(4, EndoClass.END), (4, EndoClass.WEAK_END), (3, EndoClass.STRONG_WEAK_END)]
        for n, cls in cases:
            lex = enumerate_class(n, cls)
            bfs = generate(list(zip(lex.generator_names, lex.generators)))
            assert set(lex.elements) == set(bfs.elements)
            for i, t in enumerate(bfs.elements):
                j = lex.index_of(t)
                assert lex.witness_words[j] == bfs.witness_words[i]
                assert [lex.elements[k] for k in lex.right_cayley[j]] == [
                    bfs.elements[k] for k in bfs.right_cayley[i]
                ]

    def test_builds_no_transformation_objects(self):
        # the monoid's own paths read the stored images; only ``elements``
        # and iteration build Transformation objects, once
        for n, cls in [(4, EndoClass.END), (4, EndoClass.WEAK_END), (3, EndoClass.AUT)]:
            m = enumerate_class(n, cls)
            steps = [
                lambda: is_generating_set(m, m.generators),
                lambda: is_generating_set(m, m.generators[:-1]),  # runs the closure
                lambda: (m.witness_words, m.right_cayley),
                lambda: rank_exact(m, 3),
                lambda: is_regular_monoid(m),
                lambda: format_monoid(m),
            ]
            assert "elements" not in vars(m)
            for step in steps:
                step()
                assert "elements" not in vars(m)
            elements = m.elements
            assert elements[m.index_of(identity(n))] == identity(n)
            assert list(m) == list(elements) and m.elements is elements

    def test_trivial_monoid_without_generators(self):
        m = TransformationMonoid.from_elements([identity(5)], [])
        assert len(m) == 1
        assert m.witness_words == ((),)

    def test_empty_element_set_rejected(self):
        with pytest.raises(ValueError, match="element set is empty"):
            TransformationMonoid.from_elements([], [])

    def test_rejects_degree_zero(self):
        # the public constructor rejects Transformation([]); so does the package
        for elems in ([()], [b""]):
            with pytest.raises(ValueError, match="invalid degree 0"):
                TransformationMonoid.from_elements(elems, [])
        # the constructor checks the degree it is given like every other count
        for degree, elems in ((0, [()]), (True, [(0,)]), (-1, [()]), (2.0, [(0, 1)])):
            with pytest.raises(ValueError, match="invalid degree"):
                TransformationMonoid(degree, elems, [], [])

    def test_one_distinct_name_per_generator(self):
        t2 = [Transformation(images) for images in product(range(2), repeat=2)]
        gens = [Transformation((1, 0)), Transformation((0, 0))]
        for names in (["a"], ["a", "b", "c"], ["a", "a"]):
            with pytest.raises(ValueError, match="one distinct name per generator"):
                TransformationMonoid(2, t2, names, gens)
            with pytest.raises(ValueError, match="one distinct name per generator"):
                TransformationMonoid.from_elements(t2, list(zip(names, gens)) + [("a", gens[0])])
        with pytest.raises(ValueError, match="one distinct name per generator"):
            generate([("a", gens[0]), ("a", gens[1])])
        # a generator that is not a Transformation, a name that is not a str
        with pytest.raises(ValueError, match="not a Transformation"):
            TransformationMonoid(2, [(0, 1), (1, 0)], ["a"], [(1, 0)])
        with pytest.raises(ValueError, match="not a Transformation"):
            TransformationMonoid.from_elements([(0, 1), (1, 0)], [("a", (1, 0))])
        with pytest.raises(ValueError, match="not a Transformation"):
            generate([("a", (1, 0))])
        with pytest.raises(ValueError, match="not a str"):
            TransformationMonoid(2, [(0, 1), (1, 0)], [1], [gens[0]])
        with pytest.raises(ValueError, match="not a str"):
            generate([(1, gens[0])])
        assert TransformationMonoid(2, t2, ["a", "b"], gens).witness_words[-1] == ("b", "a")

    def test_scan_rows_kept_as_given(self):
        # the scan's bytes rows are stored as the same objects, shared by END and SEND
        end = enumerate_class(4, EndoClass.END)
        send = enumerate_class(4, EndoClass.STRONG_END)
        assert len(end) == len(send)
        assert all(a is b for a, b in zip(end._encoded, send._encoded))

    def test_rejects_generators_of_another_degree(self):
        cases = [
            (enumerate_class(3, EndoClass.END).elements, (1, 0)),
            ([Transformation((0, 1)), Transformation((1, 0))], (1, 0, 2)),
            ([Transformation((0, 1)), Transformation((0, 0))], (0, 0, 1)),
        ]
        for elems, gen in cases:
            with pytest.raises(ValueError, match="degree"):
                TransformationMonoid.from_elements(elems, [("g", Transformation(gen))])

    def test_structure_rejects_generators_of_another_degree(self):
        # a monoid built directly is checked when it is built
        elems = [identity(3), Transformation((1, 0, 2))]
        with pytest.raises(ValueError, match="degree"):
            TransformationMonoid(3, elems, ["s"], [Transformation((1, 0))])

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
                    Transformation
                ),
                min_size=1,
                max_size=3,
            )
        ),
        st.data(),
    )
    def test_constructor_accepts_exactly_the_closure(self, gens, data):
        n = gens[0].degree
        names = [f"g{i}" for i in range(len(gens))]
        closure = pairwise_closure(gens)
        m = TransformationMonoid(n, closure, names, gens)
        assert set(m.elements) == closure
        inside = sorted(closure - {identity(n)})
        outside = [t for t in map(Transformation, product(range(n), repeat=n))
                   if t not in closure]
        wrong = []
        if inside:
            wrong.append(closure - {data.draw(st.sampled_from(inside))})
        if outside:
            wrong.append(closure | {data.draw(st.sampled_from(outside))})
        if inside and outside:  # the same size as the closure
            wrong.append(wrong[0] | wrong[1] - closure)
        for elements in wrong:
            with pytest.raises(ValueError, match="do not generate"):
                TransformationMonoid(n, elements, names, gens)


class TestLeftTable:
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(
                    Transformation
                ),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_columns_are_left_products(self, gens):
        named = [(f"g{i}", t) for i, t in enumerate(gens)]
        m = generate(named)
        columns = m._left_columns()
        for g, column in zip(m.generators, columns):
            assert [m.elements[k] for k in column] == [g * x for x in m.elements]
        # the same walk from a known, sorted element set gives the same
        # words, Cayley rows and left columns, element by element
        built = TransformationMonoid.from_elements(m.elements, named)
        at = [built.index_of(t) for t in m.elements]
        assert [built.witness_words[x] for x in at] == list(m.witness_words)
        assert [[built.elements[k] for k in built.right_cayley[x]] for x in at] == [
            [m.elements[k] for k in row] for row in m.right_cayley
        ]
        for column, built_column in zip(columns, built._left_columns()):
            assert [built.elements[built_column[x]] for x in at] == [
                m.elements[k] for k in column
            ]

    def test_generator_outside_the_elements_rejected(self):
        m = generate([("a", Transformation((1, 2, 0)))])
        with pytest.raises(ValueError, match="do not generate"):
            TransformationMonoid(3, m.elements, ["z"], [Transformation((0, 0, 0))])


def _rotation(n, m):
    return Transformation([(i + m) % n for i in range(n)])


def _constant(n, v):
    return Transformation([v] * n)


class TestByteBoundary:
    """The closure keeps images as bytes up to degree 256 and as tuples above."""

    # degree -> (generators, the monoid they generate, a set inside it that
    # does not generate it)
    CASES = {
        # the rotations and, from z then rotations, every constant map
        256: (
            [("c", _rotation(256, 1)), ("z", _constant(256, 0))],
            {_rotation(256, m) for m in range(256)} | {_constant(256, v) for v in range(256)},
            [("c2", _rotation(256, 2)), ("z", _constant(256, 0))],  # even rotations only
        ),
        257: (
            [("c", _rotation(257, 1))],
            {_rotation(257, m) for m in range(257)},
            [("e", identity(257))],
        ),
    }

    def test_encoding_changes_at_the_boundary(self):
        assert monoid_module._encoder(256) is bytes
        assert monoid_module._encoder(257) is tuple

    @pytest.mark.parametrize("degree", [256, 257])
    def test_generate(self, degree):
        gens, expected, _ = self.CASES[degree]
        m = generate(gens)
        assert len(m) == len(expected) and set(m.elements) == expected
        assert m.elements[0] == identity(degree)
        assert all(type(t.images) is tuple for t in m.elements)
        assert m.witness_words[m.index_of(_rotation(degree, 5))] == ("c",) * 5
        for i in (0, 1, len(m) - 1):
            for j, g in enumerate(m.generators):
                assert m.elements[m.right_cayley[i][j]] == m.elements[i] * g

    @pytest.mark.parametrize("degree", [256, 257])
    def test_from_elements(self, degree):
        gens, expected, short = self.CASES[degree]
        m = TransformationMonoid.from_elements(expected, gens)
        assert m.elements == tuple(sorted(expected))
        assert m.witness_words[m.index_of(_rotation(degree, 5))] == ("c",) * 5
        with pytest.raises(ValueError):
            TransformationMonoid.from_elements(expected - {_rotation(degree, 1)}, gens)
        with pytest.raises(ValueError):
            TransformationMonoid.from_elements(expected, short)

    @pytest.mark.parametrize("degree", [256, 257])
    def test_is_generating_set(self, degree):
        gens, expected, short = self.CASES[degree]
        target = TransformationMonoid.from_elements(expected, gens)
        maps = [t for _, t in gens]
        assert is_generating_set(target, maps)
        assert is_generating_set(target, maps + [_rotation(degree, 3)])  # runs the closure
        assert not is_generating_set(target, [t for _, t in short])

    @pytest.mark.parametrize("degree", [256, 257])
    def test_rank_and_regularity(self, degree):
        # the rotations and the constant maps: units above one class of constants
        gens = [("c", _rotation(degree, 1)), ("z", _constant(degree, 0))]
        target = TransformationMonoid.from_elements(
            {_rotation(degree, m) for m in range(degree)}
            | {_constant(degree, v) for v in range(degree)},
            gens,
        )
        assert rank_exact(target, 2) == 2
        assert rank_exact(target, 1) is None
        assert is_regular_monoid(target)
        assert "elements" not in vars(target)

    def test_rank_of_cyclic_group_above_the_boundary(self):
        gens, expected, _ = self.CASES[257]
        target = TransformationMonoid.from_elements(expected, gens)
        assert rank_exact(target, 1) == 1
        assert is_regular_monoid(target)


class TestMembership:
    def test_constant_not_an_endomorphism(self):
        m = enumerate_class(4, EndoClass.END)
        assert Transformation((0, 0, 0, 0)) not in m
        assert m.index_of(Transformation((0, 0, 0, 0))) is None

    def test_word_for_identity_is_empty(self):
        m = generate(standard_generators(4, EndoClass.END))
        assert m.witness_words[m.index_of(identity(4))] == ()

    def test_weak_endo_with_moved_hub(self):
        m = enumerate_class(4, EndoClass.WEAK_END)
        f = Transformation((2, 2, 0, 0))
        assert f in m
        assert m.elements[m.index_of(f)] == f

    def test_degree_mismatch(self):
        # a map of another degree is not a member, and index_of rejects it,
        # on either side of the byte encoding's limit
        m = enumerate_class(4, EndoClass.END)
        for other in (identity(3), identity(300)):
            assert other not in m
            with pytest.raises(ValueError, match="degree mismatch"):
                m.index_of(other)
        assert "0,1,2,3" not in m and (0, 1, 2, 3) not in m
        # index_of rejects anything but a Transformation
        for f in ((0, 1, 2, 3), [0, 1, 2, 3], b"\0\1\2\3", "0,1,2,3", None):
            with pytest.raises(ValueError, match="not a Transformation"):
                m.index_of(f)


class TestGeneratingSets:
    def test_standard_set_generates(self):
        target = enumerate_class(4, EndoClass.END)
        gens = [t for _, t in standard_generators(4, EndoClass.END)]
        assert is_generating_set(target, gens)

    def test_dropping_hub_swap_fails(self):
        target = enumerate_class(4, EndoClass.END)
        gens = [t for _, t in standard_generators(4, EndoClass.END)][:3]
        assert not is_generating_set(target, gens)

    def test_swend_s3(self):
        target = enumerate_class(3, EndoClass.STRONG_WEAK_END)
        gens = [t for _, t in standard_generators(3, EndoClass.STRONG_WEAK_END)]
        assert is_generating_set(target, gens)

    def test_outsider_generator_fails(self):
        target = enumerate_class(4, EndoClass.END)
        assert not is_generating_set(target, [Transformation((0, 0, 0, 0))])
        # no maps generate the identity alone
        assert is_generating_set(TransformationMonoid(1, [(0,)], [], []), [])
        assert is_generating_set(generate([("e", identity(3))]), [])
        assert not is_generating_set(target, [])


class TestProvenGenerators:
    """``is_generating_set`` skips the closure only for the image set of the
    monoid's own generators, which generate it by construction."""

    @pytest.fixture
    def closures(self, monkeypatch):
        calls = []
        real = monoid_module._generates_exactly

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(monoid_module, "_generates_exactly", counted)
        return calls

    def test_proven_set_answers_at_once(self, closures):
        for n, cls in ((4, EndoClass.END), (5, EndoClass.WEAK_END)):
            gens = [t for _, t in standard_generators(n, cls)]
            assert is_generating_set(enumerate_class(n, cls), gens)
            assert is_generating_set(enumerate_class(n, cls), gens[::-1] + gens[:1])
            assert is_generating_set(generate(standard_generators(n, cls)), gens)
        assert closures == []

    def test_proper_subset_runs_the_closure(self, closures):
        target = enumerate_class(4, EndoClass.END)
        gens = [t for _, t in standard_generators(4, EndoClass.END)]
        assert not is_generating_set(target, gens[:3])
        assert not is_generating_set(generate(standard_generators(4, EndoClass.END)), gens[1:])
        assert len(closures) == 2

    def test_other_generating_set_runs_the_closure(self, closures):
        target = enumerate_class(4, EndoClass.END)
        gens = [t for _, t in standard_generators(4, EndoClass.END)]
        extra = next(t for t in target if t not in gens and t != identity(4))
        assert is_generating_set(target, gens + [extra])
        assert len(closures) == 1

    def test_monoid_built_directly_answers_at_once(self, closures):
        built = enumerate_class(4, EndoClass.END)
        named = standard_generators(4, EndoClass.END)
        direct = TransformationMonoid(
            4, built.elements, [nm for nm, _ in named], [t for _, t in named]
        )
        assert is_generating_set(direct, direct.generators)
        assert closures == []
        # generators that do not generate the set are refused when it is built
        with pytest.raises(ValueError, match="do not generate"):
            TransformationMonoid(
                4, built.elements, [nm for nm, _ in named[:3]], [t for _, t in named[:3]]
            )


class TestOneWalk:
    """A monoid walks its generators once: the constructor's closure also
    gives the witness words, both Cayley tables and the J-classes."""

    def test_one_closure_per_monoid(self, monkeypatch):
        calls = []
        real = monoid_module._closure

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(monoid_module, "_closure", counted)
        m = enumerate_class(4, "wend")
        m.witness_words, m.right_cayley, m._j_classes
        is_regular_monoid(m)
        assert len(calls) == 1

    @pytest.mark.parametrize("make", [
        lambda: enumerate_class(4, "wend"),
        lambda: generate(standard_generators(4, "wend")),
    ], ids=["enumerate_class", "generate"])
    def test_j_classes_keep_the_walk(self, make):
        # the J-classes read the Cayley rows but not the words, and the
        # walk stays for every later reader
        m = make()
        classes = m._j_classes
        assert "witness_words" not in vars(m) and "right_cayley" in vars(m)
        assert m._left_columns() == make()._left_columns()
        assert m._j_classes is classes
        assert m.witness_words == make().witness_words


def _assert_j_classes_top_down(m):
    """The J-classes partition the elements, class 0 is the group of units,
    and no product with a generator, on either side, lies in an earlier class."""
    columns = m._left_columns()
    classes = m._j_classes
    class_of = {x: c for c, members in enumerate(classes) for x in members}
    assert sum(map(len, classes)) == len(m) and sorted(class_of) == list(range(len(m)))
    assert all(list(members) == sorted(members) for members in classes)
    units = [x for x, t in enumerate(m.elements) if len(set(t.images)) == m.degree]
    assert list(classes[0]) == units
    for c, members in enumerate(classes):
        for x in members:
            for g in range(len(m.generators)):
                assert class_of[m.right_cayley[x][g]] >= c
                assert class_of[columns[g][x]] >= c


class TestJClasses:
    """The order rank and regularity read the J-classes in: top down."""

    @pytest.mark.parametrize(
        "cls", [EndoClass.END, EndoClass.STRONG_WEAK_END, EndoClass.WEAK_END]
    )
    def test_star_monoids(self, cls):
        _assert_j_classes_top_down(enumerate_class(4, cls))

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Transformation),
                min_size=1,
                max_size=3,
            )
        )
    )
    def test_drawn_monoids(self, gens):
        _assert_j_classes_top_down(generate([(f"g{i}", t) for i, t in enumerate(gens)]))


class TestRank:
    def test_trivial_monoid(self):
        m = TransformationMonoid.from_elements([identity(3)], [])
        assert rank_exact(m, 1) == 0

    def test_end_s3(self):
        assert rank_exact(enumerate_class(3, EndoClass.END), 3) == 2

    def test_end_s4(self):
        assert rank_exact(enumerate_class(4, EndoClass.END), 4) == 4

    def test_max_k_below_rank_is_unknown(self):
        assert rank_exact(enumerate_class(4, EndoClass.END), 2) is None

    def test_found_rank_reverified(self):
        target = enumerate_class(3, EndoClass.WEAK_END)
        r = rank_exact(target, 4)
        assert r == 3
        gens = [t for _, t in standard_generators(3, EndoClass.WEAK_END)]
        assert len(gens) == r and is_generating_set(target, gens)

    def test_group_targets(self):
        # generating subsets of a group are all-units; no non-unit padding needed
        assert rank_exact(enumerate_class(3, EndoClass.AUT), 2) == 1
        assert rank_exact(enumerate_class(4, EndoClass.AUT), 3) == 2

    def test_strong_endo_matches_endo(self):
        assert rank_exact(enumerate_class(3, EndoClass.STRONG_END), 3) == 2


class TestWords:
    def test_relation_examples(self):
        gens = dict(standard_generators(4, EndoClass.END))
        assert check_relation(gens, ("a0", "z"), ("z",))
        assert check_relation(gens, ("z", "z"), ("e0", "b0", "e0"))
        assert evaluate_word(gens, ("z", "z")) == Transformation((0, 1, 1, 1))
        assert check_relation({}, (), ())

    def test_unassigned_letter(self):
        with pytest.raises(ValueError):
            check_relation({"a": identity(3)}, ("a", "b"), ("a",))

    def test_empty_word_is_identity(self):
        assert evaluate_word({"a": Transformation((1, 0))}, ()) == identity(2)
        assert evaluate_word({}, (), 3) == identity(3)
        with pytest.raises(ValueError, match="cannot infer degree"):
            evaluate_word({}, ())

    @pytest.mark.parametrize("degree", [2.5, True, 0, -1, "2"])
    def test_explicit_degree_is_a_count(self, degree):
        with pytest.raises(ValueError, match="invalid degree"):
            evaluate_word({}, (), degree)
        with pytest.raises(ValueError, match="invalid degree"):
            evaluate_word({"a": identity(2)}, ("a",), degree)

    @pytest.mark.parametrize("assignment", [None, 5, "ab", [("a", identity(2))], []])
    def test_assignment_that_is_not_a_mapping(self, assignment):
        with pytest.raises(ValueError, match="not a Mapping"):
            evaluate_word(assignment, ("a",))
        with pytest.raises(ValueError, match="not a Mapping"):
            evaluate_word(assignment, (), 2)
        with pytest.raises(ValueError, match="not a Mapping"):
            check_relation(assignment, ("a",), ())
        with pytest.raises(ValueError, match="not a Mapping"):
            check_relation(assignment, (), ())


class TestDump:
    def test_format_shape(self):
        m = generate(standard_generators(3, EndoClass.END))
        text = format_monoid(m)
        lines = text.splitlines()
        assert lines[0] == f"degree 3 size {len(m)}"
        assert lines[1] == "0: 0,1,2 :"
        assert len(lines) == len(m) + 1
        for i, line in enumerate(lines[1:]):
            assert line.startswith(f"{i}: ")

    def test_round_trip_values(self):
        m = enumerate_class(3, EndoClass.STRONG_WEAK_END)
        text = format_monoid(m)
        for i, line in enumerate(text.splitlines()[1:]):
            head, images, word = (part.strip() for part in line.split(":"))
            assert int(head) == i
            assert Transformation.parse(images) == m.elements[i]
            assert tuple(word.split()) == m.witness_words[i]
