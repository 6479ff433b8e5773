"""The compiled relation traces that the quotient enumerator and the
word-closure oracle share, the coincidence routine that both size engines
merge through, and ``CongruenceTable.check``, which certifies the
enumerator's tables without running its traces.

``expand`` runs a compiled program on words instead of classes: a slot
holds the word traced so far, so the programs must spell out every traced
word exactly, reading only slots that an earlier word of the same scan
stored.
"""

import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from starendo import (
    CongruenceTable,
    Presentation,
    Transformation,
    end_star_presentation,
    enumerate_quotient,
    generate,
    verify_presentation,
    wend_star_presentation,
)
from starendo import congruence, presentations, wordclosure
from starendo.presentations import _coincidence, _compile_traces, _find


def traced_words(relations):
    """The words a scan traces, in order: u and v[:-1], sides swapped when v = ()."""
    out = []
    for u, v in relations:
        if v:
            out.append((u, v[:-1], v[-1]))
        elif u:
            out.append(((), u[:-1], u[-1]))
    return out


def expand(n_slots, programs):
    """Each program run on words; None marks a slot not stored in this scan."""
    slots = [()] + [None] * (n_slots - 1)

    def read(s):
        assert slots[s] is not None, f"slot {s} read before it was stored"
        return slots[s]

    out = []
    for segments, a, b, last in programs:
        for s, letters, t in segments:
            slots[t] = read(s) + letters
        out.append((read(a), read(b), last))
    return out


def letters_traced(programs):
    return sum(len(letters) for segments, *_ in programs for _, letters, _ in segments)


def naive_check(table: CongruenceTable, relations) -> bool:
    """Every relation traced letter by letter from every class."""
    return all(table.trace(u, q) == table.trace(v, q)
               for q in range(table.size) for u, v in relations)


words = st.lists(st.integers(0, 2), max_size=5).map(tuple)


class TestCompiledTraces:
    @given(st.lists(st.tuples(words, words), max_size=8))
    def test_programs_spell_out_every_traced_word(self, relations):
        n_slots, programs = _compile_traces(relations)
        assert expand(n_slots, programs) == traced_words(relations)
        # every prefix of the traced words is followed exactly once per scan
        prefixes = {w[:i] for u, v_head, _ in traced_words(relations)
                    for w in (u, v_head) for i in range(1, len(w) + 1)}
        assert letters_traced(programs) == len(prefixes)
        # the oracle's use: the head of side v plus the last letter is all of
        # v, so each program spells out both sides of its relation in order
        sides = [(a, b + (last,)) for a, b, last in expand(n_slots, programs)]
        assert sides == [(u, v) if v else (v, u) for u, v in relations if u or v]

    def test_shared_prefixes_empty_sides_and_repeats(self):
        relations = [
            ((0, 1, 2), (0, 1)),
            ((0, 1, 2), (0, 1)),  # repeated: traced again from its slots
            ((), (1, 1)),
            ((2,), ()),  # sides swap: () and (), last letter 2
            ((), ()),  # dropped
            ((0, 1, 2, 0), (0, 2)),
        ]
        n_slots, programs = _compile_traces(relations)
        assert expand(n_slots, programs) == traced_words(relations)
        assert len(programs) == 5
        # (0, 1, 2, 0) resumes where (0, 1, 2) ended and traces one letter
        # into u's spare slot; its v[:-1] = (0,) is traced already
        (s, letters, t), = programs[4][0]
        assert (letters, t) == ((0,), n_slots - 2)
        assert programs[4][2] == programs[0][0][0][2]  # the slot (0,) was stored in
        assert letters_traced(programs[1:2]) == 0

    def test_star_presentations_share_prefixes(self):
        # letters traced per scanned class: plain traces against compiled ones
        for builder, plain, compiled in ((end_star_presentation, 240, 141),
                                         (wend_star_presentation, 332, 190)):
            pres = builder(6)
            pos = {x: i for i, x in enumerate(pres.alphabet)}
            relations = [(tuple(pos[x] for x in u), tuple(pos[x] for x in v))
                         for u, v in pres.relations]
            _, programs = _compile_traces(relations)
            assert sum(len(u) + len(v_head) for u, v_head, _ in
                       traced_words(relations)) == plain
            assert letters_traced(programs) == compiled


class TestCheck:
    @pytest.mark.parametrize("builder,size", [(end_star_presentation, 30),
                                              (wend_star_presentation, 88)])
    def test_every_changed_entry_is_caught(self, builder, size):
        pres = builder(4)
        table = enumerate_quotient(pres, max_classes=8192)
        assert isinstance(table, CongruenceTable) and table.size == size
        table.check(pres.relations)
        for q in range(size):
            for x in range(len(pres.alphabet)):
                rows = [list(row) for row in table.right_mult]
                rows[q][x] = (rows[q][x] + 1) % size
                bad = replace(table, right_mult=tuple(map(tuple, rows)))
                assert not naive_check(bad, pres.relations)
                with pytest.raises(AssertionError) as failure:
                    bad.check(pres.relations)
                # the class named is one at which some relation fails
                at = int(re.search(r"fails at class (\d+):", str(failure.value)).group(1))
                assert any(bad.trace(u, at) != bad.trace(v, at) for u, v in pres.relations)

    def test_a_faulty_trace_compiler_is_caught(self, monkeypatch):
        # a compiler that drops the last relation leaves <a | aaa = a, aa = a>
        # with three classes; check runs no trace program, so it sees aa != a
        real = _compile_traces
        monkeypatch.setattr(congruence, "_compile_traces", lambda rels: real(list(rels)[:-1]))
        pres = Presentation(("a",), [(("a",) * 3, ("a",)), (("a", "a"), ("a",))])
        with pytest.raises(AssertionError, match="relation fails at class"):
            enumerate_quotient(pres, max_classes=100)
        target = generate([("a", Transformation((0, 0)))])
        with pytest.raises(AssertionError, match="relation fails at class"):
            verify_presentation(pres, target, {"a": Transformation((0, 0))}, max_classes=100)


def plain_root(parent, c):
    while parent[c] != c:
        c = parent[c]
    return c


def plain_merge(table, parent, k, a, b):
    """Union with propagation, written plainly: roots by walking up, the
    smaller root kept, a missing entry copied and a clashing pair queued
    (last in, first out); returns how many classes it removed."""
    queue = [(a, b)]
    removed = 0
    while queue:
        a, b = sorted(plain_root(parent, c) for c in queue.pop())
        if a == b:
            continue
        parent[b] = a
        removed += 1
        for x in range(k):
            va, vb = table[a * k + x], table[b * k + x]
            if vb < 0:
                continue
            if va < 0:
                table[a * k + x] = vb
            else:
                queue.append((va, vb))
    return removed


def drawn_state(rng, k):
    """A flat table over a union-find forest, and two distinct roots."""
    n = rng.randint(2, 12)
    parent = [c if c == 0 or rng.random() < 0.6 else rng.randrange(c) for c in range(n)]
    roots = [c for c in range(n) if parent[c] == c]
    while len(roots) < 2:
        c = rng.randrange(1, n)
        parent[c] = c
        roots = [c for c in range(n) if parent[c] == c]
    table = [rng.randrange(n) if rng.random() < 0.7 else -1 for _ in range(n * k)]
    a, b = rng.sample(roots, 2)
    return table, parent, a, b


class TestCoincidence:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_merge_matches_the_plain_loop(self, k):
        rng = random.Random(20261020 + k)
        merge = _coincidence(k)
        for _ in range(300):
            table, parent, a, b = drawn_state(rng, k)
            plain_table, plain_parent = list(table), list(parent)
            removed = merge(table, parent, a, b)
            assert removed == plain_merge(plain_table, plain_parent, k, a, b) >= 1
            assert table == plain_table
            assert [plain_root(parent, c) for c in range(len(parent))] == \
                [plain_root(plain_parent, c) for c in range(len(parent))]

    def test_both_engines_bind_the_one_routine(self):
        assert congruence._coincidence is wordclosure._coincidence is _coincidence
        assert congruence._find is wordclosure._find is _find
        assert _coincidence(3) is _coincidence(3)
        closure = wordclosure._WordClosure(end_star_presentation(4), 100)
        assert closure.merge is _coincidence(4)
        assert not hasattr(closure, "find") and not hasattr(closure, "union")
        assert _coincidence.__module__ == _find.__module__ == presentations.__name__
