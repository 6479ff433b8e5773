from itertools import product

import pytest
from hypothesis import given, strategies as st

from starendo import (
    EndoClass,
    Presentation,
    Transformation,
    check_relation,
    classify,
    compose,
    enumerate_class,
    enumerate_quotient,
    evaluate_word,
    format_monoid,
    identity,
    is_generating_set,
    is_idempotent,
    is_regular_element,
    is_regular_monoid,
    presentation_to_json,
    rank_exact,
    satisfies_relations,
    star_graph,
    verify_presentation,
    word_closure,
    word_closure_size,
)


def T(*images):
    return Transformation(images)


def transformations(min_degree=1, max_degree=7):
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    ).map(Transformation)


def same_degree_triples(max_degree=6):
    def build(n):
        one = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(Transformation)
        return st.tuples(one, one, one)
    return st.integers(1, max_degree).flatmap(build)


class TestConstruction:
    def test_identity(self):
        assert identity(4).images == (0, 1, 2, 3)
        assert identity(1).images == (0,)

    def test_identity_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            identity(0)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            Transformation(())
        with pytest.raises(ValueError):
            Transformation((0, 4, 1, 2))
        with pytest.raises(ValueError):
            Transformation((0, -1))

    def test_rejects_values_that_are_not_ints(self):
        for images in ((0, 1.0), ("0",), (0, None), [1, 0, "2"]):
            with pytest.raises(ValueError):
                Transformation(images)

    def test_rejects_bool_values(self):
        # True would format as "True", which parse rejects
        for images in ((True, False), (0, True), [False]):
            with pytest.raises(ValueError):
                Transformation(images)

    def test_equality_and_hash(self):
        assert T(0, 2, 1, 3) == T(0, 2, 1, 3)
        assert T(0, 1) != T(0, 1, 2)
        assert hash(T(1, 0)) == hash(T(1, 0))

    def test_lex_order(self):
        assert sorted([T(1, 0), T(0, 0), T(0, 1)]) == [T(0, 0), T(0, 1), T(1, 0)]

    def test_order_with_other_types_is_a_type_error(self):
        t = T(0, 1)
        for compare in (lambda: t < 5, lambda: t <= 5, lambda: t > 5, lambda: t >= 5,
                        lambda: sorted([t, None])):
            with pytest.raises(TypeError):
                compare()

    def test_parse_format_round_trip(self):
        t = T(0, 2, 1, 3)
        assert t.format() == "0,2,1,3"
        assert Transformation.parse("0,2,1,3") == t
        with pytest.raises(ValueError):
            Transformation.parse("0,x,1")


class TestCompose:
    def test_pointwise_example(self):
        assert compose(T(0, 2, 1, 3), T(0, 2, 3, 1)) == T(0, 3, 2, 1)

    def test_hub_collapse_square(self):
        z = T(1, 0, 0, 0)
        assert compose(z, z) == T(0, 1, 1, 1)

    def test_left_to_right_order(self):
        # f first, then g: result[i] == g[f[i]]
        f, g = T(1, 2, 0), T(0, 0, 1)
        assert compose(f, g).images == tuple(g[f[i]] for i in range(3))
        assert (f * g) == compose(f, g)

    def test_identity_neutral(self):
        f = T(0, 2, 1, 3)
        assert compose(f, identity(4)) == f
        assert compose(identity(4), f) == f

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(T(0, 1), T(0, 1, 2))

    def test_product_with_other_types_is_a_type_error(self):
        for operand in (5, None, (0, 1)):
            with pytest.raises(TypeError):
                T(0, 1) * operand

    @given(same_degree_triples())
    def test_associative(self, fgh):
        f, g, h = fgh
        assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_associative_exhaustive_small(self):
        for n in (1, 2, 3):
            maps = [Transformation(img) for img in product(range(n), repeat=n)]
            for f in maps:
                for g in maps:
                    fg = compose(f, g)
                    for h in maps:
                        assert compose(fg, h) == compose(f, compose(g, h))


class TestPower:
    """Powers as repeated left-to-right composition."""

    def test_cube_of_hub_map(self):
        z = T(1, 0, 0, 0)
        assert z * z * z == z

    def test_transposition_squares_to_identity(self):
        t = T(0, 2, 1, 3)
        assert t * t == identity(4)

    @given(transformations(max_degree=6))
    def test_powers_repeat_within_degree_plus_one(self, f):
        # holds for degree <= 6; an order-12 permutation breaks it at degree 7
        n = f.degree
        seen = set()
        p = identity(n)
        for _ in range(n + 2):
            if p in seen:
                return
            seen.add(p)
            p = p * f
        pytest.fail(f"no repetition among powers 0..{n + 1} of {f}")

    @given(transformations())
    def test_powers_repeat_within_cyclic_monoid_size(self, f):
        seen = {}
        cur = identity(f.degree)
        k = 0
        while cur.images not in seen:
            seen[cur.images] = k
            cur = compose(cur, f)
            k += 1
        assert k <= len(seen)


class TestPredicates:
    def test_is_idempotent(self):
        assert is_idempotent(T(0, 1, 1, 3))
        assert not is_idempotent(T(1, 0, 0, 0))



# every entry point that takes a map: an image tuple, a target that is not a
# monoid or a map of another degree is a ValueError, not a stray AttributeError
_FLIP = Presentation(("a",), [(("a", "a"), ())])
_S2 = enumerate_class(2, EndoClass.AUT)
_NOT_A_MAP, _MISMATCH = "not a Transformation", "degree mismatch"


@pytest.mark.parametrize(
    "call, stem",
    [
        (lambda: compose((0, 1), (1, 0)), _NOT_A_MAP),
        (lambda: compose(T(0, 1), (1, 0)), _NOT_A_MAP),
        (lambda: compose(T(0, 1), T(0, 1, 2)), _MISMATCH),
        (lambda: is_idempotent((0, 1)), _NOT_A_MAP),
        (lambda: evaluate_word({"a": (0, 1)}, ("a",)), _NOT_A_MAP),
        (lambda: evaluate_word({"a": (0, 1)}, ()), _NOT_A_MAP),
        (lambda: evaluate_word({"a": T(1, 0), "b": T(0, 1, 2)}, ("a", "b")), _MISMATCH),
        (lambda: check_relation({"a": (1, 0)}, ("a", "a"), ()), _NOT_A_MAP),
        (lambda: satisfies_relations({"a": (1, 0)}, _FLIP), _NOT_A_MAP),
        (lambda: is_generating_set(_S2, [(1, 0)]), _NOT_A_MAP),
        (lambda: is_generating_set(_S2, [T(0, 1, 2)]), _MISMATCH),
        (lambda: verify_presentation(_FLIP, _S2, {"a": (1, 0)}, max_classes=10), _NOT_A_MAP),
        (lambda: verify_presentation(_FLIP, [1, 2], {"a": T(1, 0)}, max_classes=10),
         "not a TransformationMonoid"),
        (lambda: classify((0, 1, 1), star_graph(3)), _NOT_A_MAP),
        (lambda: _S2.index_of((1, 0)), _NOT_A_MAP),
    ],
    ids=[
        "compose", "compose-second", "compose-degree", "is_idempotent", "evaluate_word",
        "evaluate_word-empty", "evaluate_word-degree", "check_relation",
        "satisfies_relations", "is_generating_set", "is_generating_set-degree",
        "verify_presentation", "verify_presentation-target", "classify", "index_of",
    ],
)
def test_entry_points_reject_what_is_not_a_map(call, stem):
    with pytest.raises(ValueError, match=stem):
        call()


# the same for every entry point that takes a monoid or a presentation
@pytest.mark.parametrize(
    "call",
    [
        lambda: rank_exact("x", 1),
        lambda: is_regular_monoid("x"),
        lambda: is_regular_element(identity(3), "x"),
        lambda: format_monoid("x"),
        lambda: is_generating_set("x", []),
    ],
    ids=["rank_exact", "is_regular_monoid", "is_regular_element", "format_monoid",
         "is_generating_set"],
)
def test_entry_points_reject_what_is_not_a_monoid(call):
    with pytest.raises(ValueError, match="not a TransformationMonoid"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_quotient("x", max_classes=5),
        lambda: enumerate_quotient("x", max_classes=0),
        lambda: word_closure("x"),
        lambda: word_closure_size(("a",)),
        lambda: verify_presentation("x", _S2, {"a": T(1, 0)}, max_classes=10),
        lambda: satisfies_relations({}, "x"),
        lambda: presentation_to_json("x"),
    ],
    ids=["enumerate_quotient", "enumerate_quotient_before_its_budget", "word_closure",
         "word_closure_size", "verify_presentation", "satisfies_relations",
         "presentation_to_json"],
)
def test_entry_points_reject_what_is_not_a_presentation(call):
    with pytest.raises(ValueError, match="not a Presentation"):
        call()
