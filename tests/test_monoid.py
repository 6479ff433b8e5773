import random

import pytest
from hypothesis import given, strategies as st

from starendo import (
    BudgetExceededError,
    EndoClass,
    Transformation,
    TransformationMonoid,
    check_relation,
    contains,
    enumerate_class,
    evaluate_word,
    format_monoid,
    generate,
    identity,
    is_generating_set,
    rank_exact,
    standard_generators,
    word_for,
)


def pairwise_closure(gens):
    """Independent fixed-point oracle: multiply all pairs until stable."""
    elems = {identity(gens[0].degree)} | set(gens)
    while True:
        new = {f * g for f in elems for g in elems} | elems
        if new == elems:
            return elems
        elems = new


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

    def test_element_budget_below_set_size(self):
        elems = list(enumerate_class(4, EndoClass.END).elements)
        gens = standard_generators(4, EndoClass.END)
        with pytest.raises(BudgetExceededError):
            TransformationMonoid.from_elements(elems, gens, max_elements=len(elems) - 1)
        assert len(TransformationMonoid.from_elements(elems, gens, max_elements=len(elems))) == 30

    def test_structure_built_on_first_access(self):
        m = enumerate_class(4, EndoClass.WEAK_END)
        assert m._words is None and m._cayley is None
        words = m.witness_words
        assert m._cayley is not None
        assert m.witness_words is words

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

    def test_keeps_the_given_objects(self):
        elems = list(enumerate_class(3, EndoClass.END).elements)
        gens = standard_generators(3, EndoClass.END)
        m = TransformationMonoid.from_elements(reversed(elems), gens)
        assert all(a is b for a, b in zip(m.elements, elems))

    def test_trivial_monoid_without_generators(self):
        m = TransformationMonoid.from_elements([identity(5)], [])
        assert len(m) == 1
        assert m.witness_words == ((),)


class TestMembership:
    def test_constant_not_an_endomorphism(self):
        m = enumerate_class(4, EndoClass.END)
        assert not contains(m, Transformation((0, 0, 0, 0)))

    def test_word_for_identity_is_empty(self):
        m = generate(standard_generators(4, EndoClass.END))
        assert word_for(m, identity(4)) == ()
        assert word_for(m, Transformation((0, 0, 0, 0))) is None

    def test_weak_endo_with_moved_hub(self):
        m = enumerate_class(4, EndoClass.WEAK_END)
        assert contains(m, Transformation((2, 2, 0, 0)))

    def test_degree_mismatch(self):
        m = enumerate_class(4, EndoClass.END)
        with pytest.raises(ValueError):
            contains(m, identity(3))


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

    def test_candidate_pool_restriction(self):
        target = enumerate_class(3, EndoClass.END)
        pool = [t for t in target.elements if t.images != (1, 0, 0) and t.images != (2, 0, 0)]
        # without a hub-moving candidate nothing can generate
        assert rank_exact(target, 3, candidate_pool=pool) is None

    def test_pool_must_be_inside_target(self):
        with pytest.raises(ValueError):
            rank_exact(enumerate_class(3, EndoClass.END), 2,
                       candidate_pool=[Transformation((0, 0, 0))])

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
