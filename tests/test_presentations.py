import hashlib

import pytest

from starendo import (
    Presentation,
    end_star_presentation,
    full_transf_presentation,
    partial_transf_presentation,
    presentation_from_json,
    presentation_to_json,
    swend_star_presentation,
    sym_presentation,
    wend_star_presentation,
)


def words(*texts):
    """Split space-separated letters into word tuples."""
    return tuple(tuple(t.split()) if t else () for t in texts)


class TestPresentationType:
    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a",), [(("a", "b"), ("a",))])

    def test_duplicate_relation_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a",), [(("a",), ()), (("a",), ())])

    def test_duplicate_letter_rejected(self):
        with pytest.raises(ValueError):
            Presentation(("a", "a"), [])

    def test_letter_that_is_not_a_string_rejected(self):
        # such a letter could not survive the JSON round trip
        with pytest.raises(ValueError, match="letter 1 is not a string"):
            Presentation((1, 2), [((1,), (2,))])
        with pytest.raises(ValueError, match="not in alphabet"):
            Presentation(("a",), [((["a"],), ())])

    @pytest.mark.parametrize(
        "relations",
        [[5], [None], [(5, ())], [("a", "a", "a")], [(("a",), ()), (("a",), None)],
         ["aa"], [("a", ())]],
        ids=["int", "none", "int-word", "three-words", "second-word-none",
             "str-relation", "str-word"],
    )
    def test_relation_that_is_not_a_pair_of_words_rejected(self, relations):
        index = len(relations) - 1
        with pytest.raises(ValueError, match=f"relation {index}: expected a pair of words"):
            Presentation(("a",), relations)

    @pytest.mark.parametrize("alphabet,relations", [(5, []), (("a",), 5), (None, [])])
    def test_alphabet_or_relation_list_that_is_not_iterable_rejected(self, alphabet, relations):
        with pytest.raises(ValueError, match="expected an iterable alphabet and relation list"):
            Presentation(alphabet, relations)

    def test_relabel(self):
        p = Presentation(("a", "b"), [(("a", "b"), ("b",))])
        q = p.relabel({"a": "x"})
        assert q.alphabet == ("x", "b")
        assert q.relations == ((("x", "b"), ("b",)),)

    @pytest.mark.parametrize("mapping", [None, [("a", "x")], "ax", 5])
    def test_relabel_takes_only_a_mapping(self, mapping):
        with pytest.raises(ValueError, match="not a Mapping"):
            sym_presentation(3).relabel(mapping)


class TestSymmetric:
    def test_n3_exact(self):
        p = sym_presentation(3)
        assert p.alphabet == ("a", "b")
        assert set(p.relations) == {
            words("a a", ""),
            words("b b b", ""),
            words("b a b a", ""),
            words("a b b a b a b b a b a b b a b", ""),
        }

    def test_relation_count(self):
        for n in range(3, 8):
            assert len(sym_presentation(n).relations) == 4 + (n - 3)

    def test_precondition(self):
        with pytest.raises(ValueError):
            sym_presentation(2)


class TestFullTransformation:
    def test_alphabet(self):
        assert full_transf_presentation(3).alphabet == ("a", "b", "e")

    def test_n3_has_nine_relations(self):
        assert len(full_transf_presentation(3).relations) == 9

    def test_n4_contains_absorbing_square(self):
        p = full_transf_presentation(4)
        assert words("e b a b b b e b a b b b", "e") in set(p.relations)

    def test_shapes_by_degree(self):
        # Moore block + two chains (+ one extra relation for n >= 4)
        for n in range(4, 7):
            assert len(full_transf_presentation(n).relations) == (4 + n - 3) + 4 + 2 + 1


class TestPartialTransformation:
    def test_alphabet(self):
        assert partial_transf_presentation(4).alphabet == ("a", "b", "c", "e")

    def test_contains_collapse_chain(self):
        p = partial_transf_presentation(4)
        rels = set(p.relations)
        assert words("c a c a", "c a c") in rels
        assert words("c a c", "a c a c") in rels
        assert words("e c", "c a c") in rels
        assert words("c e", "c a") in rels
        assert words("e a c", "e a") in rels

    def test_relation_count_n3(self):
        assert len(partial_transf_presentation(3).relations) == 18


class TestStarPresentations:
    def test_end_n3_exact(self):
        p = end_star_presentation(3)
        assert p.alphabet == ("a0", "z")
        assert p.relations == (
            words("a0 a0", ""),
            words("a0 z", "z"),
            words("z z z", "z"),
        )

    def test_end_n4_extends_base(self):
        base = full_transf_presentation(3).relabel({"a": "a0", "b": "b0", "e": "e0"})
        p = end_star_presentation(4)
        assert p.alphabet == ("a0", "b0", "e0", "z")
        assert p.relations[: len(base.relations)] == base.relations
        extra = set(p.relations[len(base.relations):])
        assert extra == {
            words("a0 z", "b0 z"),
            words("b0 z", "e0 z"),
            words("e0 z", "z"),
            words("z z", "e0 b0 e0"),
        }

    def test_end_n5_square_expansion(self):
        assert words("z z", "e0 b0 e0 b0 e0") in set(end_star_presentation(5).relations)

    def test_base_branches_on_embedded_degree(self):
        # the n=4 star presentation embeds the three-point base family
        p4 = end_star_presentation(4)
        assert words("a a", "")[0] not in [r for r, _ in p4.relations]  # relabeled away
        assert len(p4.relations) == 9 + 4
        assert len(end_star_presentation(5).relations) == (4 + 1 + 4 + 2 + 1) + 4

    def test_swend_n4_has_eight_absorption_pairs(self):
        base = end_star_presentation(4)
        p = swend_star_presentation(4)
        assert p.alphabet == ("a0", "b0", "e0", "z", "z0")
        assert len(p.relations) == len(base.relations) + 8

    def test_swend_n3_exact(self):
        p = swend_star_presentation(3)
        assert p.relations == (
            words("a0 a0", ""),
            words("a0 z", "z"),
            words("z z z", "z"),
            words("a0 z0", "z z0"),
            words("z z0", "z0 z0"),
            words("z0 z0", "z0 a0"),
            words("z0 a0", "z0 z z"),
            words("z0 z z", "z0"),
        )

    def test_wend_n3_exact(self):
        p = wend_star_presentation(3)
        assert p.alphabet == ("a0", "c0", "z")
        assert set(p.relations) == {
            words("a0 a0", ""),
            words("a0 z", "z"),
            words("z z z", "z"),
            words("c0 c0", "c0"),
            words("c0 a0 c0 a0", "a0 c0 a0 c0"),
            words("a0 c0 a0 c0", "c0 a0 c0"),
            words("z z c0", "c0 a0 c0"),
            words("c0 z z", "c0 a0"),
            words("z z a0 c0", "z z a0"),
            words("z z c0", "z c0"),
        }

    def test_wend_n4_extends_base(self):
        base = partial_transf_presentation(3).relabel(
            {"a": "a0", "b": "b0", "c": "c0", "e": "e0"}
        )
        p = wend_star_presentation(4)
        assert p.alphabet == ("a0", "b0", "e0", "c0", "z")
        assert p.relations[: len(base.relations)] == base.relations
        assert words("z z c0", "z c0") in set(p.relations)
        assert len(p.relations) == len(base.relations) + 5

    def test_preconditions(self):
        for builder in (end_star_presentation, swend_star_presentation,
                        wend_star_presentation):
            with pytest.raises(ValueError):
                builder(2)


class TestSerialization:
    @pytest.mark.parametrize(
        "pres",
        [
            sym_presentation(3),
            full_transf_presentation(4),
            partial_transf_presentation(3),
            end_star_presentation(4),
            swend_star_presentation(3),
            wend_star_presentation(5),
        ],
        ids=lambda p: f"X{len(p.alphabet)}R{len(p.relations)}",
    )
    def test_round_trip_bit_exact(self, pres):
        text = presentation_to_json(pres)
        back = presentation_from_json(text)
        assert back == pres
        assert presentation_to_json(back) == text

    def test_empty_word_encoding(self):
        text = presentation_to_json(end_star_presentation(3))
        assert '[\n      [\n        "a0",\n        "a0"\n      ],\n      []\n    ]' in text

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '"alphabet"',
            '{"relations": []}',
            '{"alphabet": ["a"]}',
            '{"alphabet": "a", "relations": []}',
            '{"alphabet": ["a", 1], "relations": []}',
            '{"alphabet": ["a"], "relations": {}}',
            '{"alphabet": ["a"], "relations": [[["a"]]]}',
            '{"alphabet": ["a"], "relations": [[["a"], [], []]]}',
            '{"alphabet": ["a"], "relations": ["a"]}',
            '{"alphabet": ["a"], "relations": [["a", []]]}',
            '{"alphabet": ["a"], "relations": [[["a"], null]]}',
            '{"alphabet": ["a"], "relations": [[["a", ["a"]], []]]}',
            '{"alphabet": ["a"], "relations": [[["b"], []]]}',
        ],
        ids=[
            "invalid-json", "array", "string", "no-alphabet", "no-relations",
            "alphabet-not-list", "letter-not-string", "relations-not-list",
            "relation-one-word", "relation-three-words", "relation-not-list",
            "word-is-string", "word-is-null", "nested-letter", "unknown-letter",
        ],
    )
    def test_malformed_document_raises_value_error(self, text):
        with pytest.raises(ValueError):
            presentation_from_json(text)

    @pytest.mark.parametrize("text", [5, None, ["{}"], {"alphabet": [], "relations": []}])
    def test_text_that_is_not_a_string(self, text):
        with pytest.raises(ValueError, match="must be str or bytes"):
            presentation_from_json(text)


# sha256 over the (alphabet, relations) reprs of each builder's presentations,
# one per line, taken from the builders before their shared idempotent block
# was factored out; the star families cover n=3..9 so their n-1 bases do too
RELATION_DIGESTS = {
    full_transf_presentation: (range(3, 9), "65c98632c3bd2de440c80b4d0130f879098d2d8594e88b807d8cd99a20b48ce0"),
    partial_transf_presentation: (range(3, 9), "ac549d0f211870409c33d5909497837df347ee15494017153e5ba5295cd121dd"),
    end_star_presentation: (range(3, 10), "175aba227a693650b15a3f6d23ba6559e40fddc6c5aff53af0b0eca05df1411f"),
    swend_star_presentation: (range(3, 10), "8e2ea8cf005b87e752f7ea4cdadfc6e88fc3f7bbd0cc92d3d9bb7311d8c9031f"),
    wend_star_presentation: (range(3, 10), "9d054617c2ca0e1ab246c950deead718d5b2fcaaa75c80f0f9e31a6cb5ea4a46"),
}


@pytest.mark.parametrize("builder", list(RELATION_DIGESTS), ids=lambda b: b.__name__)
def test_relation_tuples_unchanged(builder):
    degrees, digest = RELATION_DIGESTS[builder]
    text = "\n".join(repr((p.alphabet, p.relations)) for p in map(builder, degrees))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of presentation_to_json for n = 3..8, concatenated: the T_3 idempotent
# block feeds T_3, PT_3 and, through their n-1 bases, all three star families at n = 4
JSON_DIGESTS = {
    sym_presentation: "2ce0a68bea37c9158c884998385ed1f0d79f3ecf44feace9ec760c7db9af4688",
    full_transf_presentation: "4eb98bd81b411862b53241e4b87f04cd131426c6eef789701cb36b24cae537c9",
    partial_transf_presentation: "032e6dcb766c71972f9767203e6ae9c0e28b5c90206be41346957b3d743151c1",
    end_star_presentation: "d2229dd79792e1dc17e2e5930eb3ed953aebbb9ddf4c4fb3727ddd58990bf5dc",
    swend_star_presentation: "f581f9324c8aafbd718e385f87e60ad0f1c27d79d4e6fda331d93d6bf4ce0ae3",
    wend_star_presentation: "008991c3ab137b53559d2acef1470a9a0ef14c8d5af4fdeb3e98a5a05b58235c",
}


@pytest.mark.parametrize("builder", list(JSON_DIGESTS), ids=lambda b: b.__name__)
def test_json_documents_unchanged(builder):
    text = "".join(map(presentation_to_json, map(builder, range(3, 9))))
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_DIGESTS[builder]
