"""The word-closure oracle on integer word ids and one signature table.

``_reference_word_closure_size`` is the string-keyed implementation the
integer engine replaced, kept verbatim: words are dict keys, classes carry
dict signatures, and a relation trace registers the first missing word and
gives up.  The integer engine only repeats the relation scan, with no
breadth-first discovery and no descending rewrites, finishes every trace,
and registers a word only as a class's missing extension, so its trajectory
differs, but every certified size must be the same.
"""

import ast
import random
from heapq import heappop, heappush
from pathlib import Path
from typing import Optional

import pytest

from starendo import (
    Presentation,
    WordClosureStats,
    end_star_presentation,
    enumerate_quotient,
    full_transf_presentation,
    partial_transf_presentation,
    swend_star_presentation,
    sym_presentation,
    wend_star_presentation,
    word_closure,
    word_closure_size,
)
from starendo import wordclosure


def _reference_word_closure_size(
    pres: Presentation,
    *,
    max_words: int = 2_000_000,
    max_rounds: int = 10_000,
) -> Optional[int]:
    """Number of classes of the presented monoid, or None on budget exhaustion."""
    k = len(pres.alphabet)
    if k > 24:
        raise ValueError("alphabet too large for the word-closure oracle")
    letters = [chr(97 + i) for i in range(k)]
    to_char = {x: letters[i] for i, x in enumerate(pres.alphabet)}
    rels = [
        ("".join(to_char[x] for x in u), "".join(to_char[x] for x in v))
        for u, v in pres.relations
    ]
    rels = [(u, v) for u, v in rels if u != v]

    parent: dict[str, str] = {}
    sig: dict[str, dict[str, str]] = {}
    heap: list[tuple[int, str]] = []
    merges = 0

    def find(w: str) -> str:
        r = w
        while parent[r] != r:
            r = parent[r]
        while parent[w] != r:
            parent[w], w = r, parent[w]
        return r

    def union(u: str, v: str) -> None:
        nonlocal merges
        work = [(u, v)]
        while work:
            x, y = work.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            # shortlex-least word of the class stays the representative
            if (len(ry), ry) < (len(rx), rx):
                rx, ry = ry, rx
            parent[ry] = rx
            merges += 1
            sy = sig.pop(ry, {})
            sx = sig.setdefault(rx, {})
            for ch, tgt in sy.items():
                if ch in sx:
                    work.append((sx[ch], tgt))
                else:
                    sx[ch] = tgt

    def register(w: str) -> None:
        missing = []
        x = w
        while x not in parent:
            missing.append(x)
            if not x:
                break
            x = x[:-1]
        for word in reversed(missing):
            parent[word] = word
            sig[word] = {}
            heappush(heap, (len(word), word))
            if word:
                prefix_root = find(word[:-1])
                s = sig.setdefault(prefix_root, {})
                ch = word[-1]
                if ch in s:
                    union(word, s[ch])
                else:
                    s[ch] = word

    def trace(state: str, word: str) -> Optional[str]:
        cur = state
        for ch in word:
            nxt = cur + ch
            if nxt not in parent:
                return None
            cur = find(nxt)
        return cur

    def trace_registering(state: str, word: str) -> Optional[str]:
        """Like trace, but registers a missing step so later passes see it."""
        cur = state
        for ch in word:
            nxt = cur + ch
            if nxt not in parent:
                register(nxt)
                return None
            cur = find(nxt)
        return cur

    def certify() -> Optional[int]:
        """Return the exact size if the current table passes the certificate.

        Otherwise check every relation at every trace-able state and merge
        each definite mismatch by injecting the words state+side (the
        rewrite between them is applied at the end of the state word, so the
        injected union is an ordinary one-step rewrite merge).  Returns None
        after injecting; missing table entries are registered for later
        passes rather than treated as mismatches.
        """
        root0 = find("")
        order = {root0: 0}
        states = [root0]
        i = 0
        complete = True
        while i < len(states):
            s = states[i]
            for ch in letters:
                t = s + ch
                if t not in parent:
                    register(t)
                    complete = False
                    continue
                d = find(t)
                if d not in order:
                    order[d] = len(states)
                    states.append(d)
            i += 1
        certified = complete
        for s in states:
            for u, v in rels:
                a = trace_registering(s, u)
                b = trace_registering(s, v)
                if a is None or b is None:
                    certified = False
                    continue
                if a != b:
                    certified = False
                    register(s + u)
                    register(s + v)
                    union(s + u, s + v)
        return len(states) if certified else None

    register("")
    for u, v in rels:
        register(u)
        register(v)
        union(u, v)

    frontier = 0
    rounds = 0
    while True:
        if len(parent) > max_words:
            return None
        if not heap or heap[0][0] > frontier:
            words_before, merges_before = len(parent), merges
            size = certify()
            rounds += 1
            if size is not None:
                return size
            if rounds > max_rounds:
                return None
            if not heap:
                if len(parent) == words_before and merges == merges_before:
                    return None  # drained and stuck: no possible progress
                continue
            frontier = heap[0][0]
            continue
        _, w = heappop(heap)
        key = (len(w), w)
        for u, v in rels:
            for src, dst in ((u, v), (v, u)):
                if not src:
                    continue
                start = w.find(src)
                while start != -1:
                    w2 = w[:start] + dst + w[start + len(src):]
                    if (len(w2), w2) < key:
                        register(w2)
                        union(w, w2)
                    start = w.find(src, start + 1)
        if find(w) == w:
            for ch in letters:
                register(w + ch)


CASES = {
    "sym3": (sym_presentation, 3),
    "sym4": (sym_presentation, 4),
    "sym5": (sym_presentation, 5),
    "T3": (full_transf_presentation, 3),
    "T4": (full_transf_presentation, 4),
    "PT3": (partial_transf_presentation, 3),
    "PT4": (partial_transf_presentation, 4),
    **{
        f"{name}{n}": (builder, n)
        for name, builder in (
            ("end", end_star_presentation),
            ("swend", swend_star_presentation),
            ("wend", wend_star_presentation),
        )
        for n in (3, 4)
    },
}


def drawn_presentations():
    """The 120 seeded draws of ``test_agrees_on_random_presentations``."""
    rng = random.Random(20250809)
    for _ in range(120):
        k = rng.choice([2, 2, 3])
        alphabet = tuple("xyz"[:k])
        rels = []
        for _ in range(rng.randint(2, 5)):
            u = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            v = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
            if u != v and (u, v) not in rels:
                rels.append((u, v))
        if rels:
            yield Presentation(alphabet, rels)


def assert_certified(pres, size, stats):
    assert size is not None, pres
    # one class per element: every registered word is in a reachable state
    assert stats.words_registered - stats.merges == size
    assert stats.certify_rounds >= 1


class _RecordingClosure(wordclosure._WordClosure):
    """Records each relation scan's counters around the real ``certify``."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scans = []

    def certify(self):
        before = (len(self.parent), self.merges)
        size = super().certify()
        self.scans.append((before, (len(self.parent), self.merges), size))
        return size


class _SetOnceTable(list):
    """A signature table that records each entry set and the value it held,
    wherever it is set: registration in the reachability pass or in the
    scan, or an entry copied by a merge."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sets = []

    def __setitem__(self, i, value):
        self.sets.append((self[i], value))
        super().__setitem__(i, value)


class TestAgreesWithReference:
    @pytest.mark.parametrize("name", list(CASES))
    def test_named_presentations(self, name):
        builder, n = CASES[name]
        pres = builder(n)
        size, stats = word_closure(pres)
        assert_certified(pres, size, stats)
        assert size == _reference_word_closure_size(pres)
        assert word_closure_size(pres) == size

    def test_drawn_presentations(self):
        certified = 0
        for pres in drawn_presentations():
            size, stats = word_closure(pres, max_words=1000)
            if size is None:
                continue
            certified += 1
            assert_certified(pres, size, stats)
            assert size == _reference_word_closure_size(pres, max_words=500_000), pres
        # every draw whose quotient the class-table enumerator finds finite
        assert certified == 83


class TestCounters:
    """Literal counters pin the scan trajectory: any extra discovery or
    rewrite phase shows up as a change in words registered or merges."""

    def test_end5_literal_stats(self):
        assert word_closure(end_star_presentation(5)) == (
            260,
            WordClosureStats(words_registered=11976, merges=11716, certify_rounds=3),
        )

    def test_wend5_literal_stats(self):
        assert word_closure(wend_star_presentation(5)) == (
            689,
            WordClosureStats(words_registered=58675, merges=57986, certify_rounds=3),
        )


class TestCertificate:
    @pytest.mark.parametrize("name", ["end4", "wend4", "T4", "PT3"])
    def test_no_size_from_a_scan_that_registered_or_merged(self, name):
        builder, n = CASES[name]
        closure = _RecordingClosure(builder(n), 2_000_000)
        size = closure.run(10_000)
        assert size == word_closure_size(builder(n))
        assert len(closure.scans) == closure.rounds >= 2
        for before, after, scan_size in closure.scans[:-1]:
            assert scan_size is None and after != before
        before, after, scan_size = closure.scans[-1]
        assert scan_size == size and after == before

    def test_words_registered_in_a_scan_are_traced_in_it(self):
        # A word the relation scan registers is traced from in the same
        # scan, so T_4's first scan builds the whole table and the second
        # only certifies it.
        closure = _RecordingClosure(full_transf_presentation(4), 2_000_000)
        assert closure.run(10_000) == 256
        assert [scan_size for _, _, scan_size in closure.scans] == [None, 256]

    @pytest.mark.parametrize("name", ["end4", "wend4", "T4", "PT3"])
    def test_a_word_is_registered_only_as_a_missing_extension(self, name):
        # The signature table is the only table: a class's x extension is
        # registered once, into an entry that was missing, and a registered
        # word never joins a class at once.  A merge, too, only fills
        # missing entries, so no entry is ever set twice.
        builder, n = CASES[name]
        closure = wordclosure._WordClosure(builder(n), 2_000_000)
        closure.sig = sig = _SetOnceTable(closure.sig)
        assert closure.run(10_000) == word_closure_size(builder(n))
        assert sig.sets and all(old < 0 for old, _ in sig.sets)
        # a merge copies only registered words, so the first entry holding
        # each word is its registration: every word, once, in id order
        firsts = list(dict.fromkeys(new for _, new in sig.sets))
        assert firsts == list(range(1, len(closure.parent)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_free_monoid_never_certifies(self, k):
        # With no relation to trace, only the completeness check keeps the
        # words found so far from passing as a finite table.
        size, stats = word_closure(Presentation(tuple("xyz"[:k]), []), max_words=300)
        assert size is None and stats.words_registered <= 301

    @pytest.mark.parametrize(
        "alphabet,relations,size",
        [((), [], 1), (("x",), [(("x",), ())], 1), (("x",), [(("x", "x"), ("x",))], 2)],
    )
    def test_small_monoids(self, alphabet, relations, size):
        assert word_closure_size(Presentation(alphabet, relations)) == size


COMMUTATIVE = Presentation(("x", "y"), [(("x", "y"), ("y", "x"))])
# infinite: both relations keep a word's length, so no two powers of x meet
SQUARES = Presentation(("x", "y"), [(("x", "x"), ("y", "y")), (("x", "x"), ("y", "x"))])


class TestBudget:
    @pytest.mark.parametrize("max_words", [1, 2, 50, 1000, 20_000])
    def test_infinite_monoid_stops_at_the_word_budget(self, max_words):
        size, stats = word_closure(COMMUTATIVE, max_words=max_words)
        assert size is None
        assert stats.words_registered <= max_words + 1

    def test_infinite_monoid_ends_in_its_first_scan(self):
        # The relation scan traces the words it registers, so on an
        # infinite presentation the first scan runs on until the word
        # budget stops it, instead of registering a few words per scan.
        size, stats = word_closure(SQUARES, max_words=100_000)
        assert size is None and stats.certify_rounds == 0
        assert stats.words_registered == 100_000

    @pytest.mark.parametrize("max_words", [1, 100, 5000])
    def test_pt4_stops_at_the_word_budget(self, max_words):
        size, stats = word_closure(partial_transf_presentation(4), max_words=max_words)
        assert size is None
        assert stats.words_registered <= max_words + 1

    def test_pt4_budget_is_exact(self):
        pres = partial_transf_presentation(4)
        size, stats = word_closure(pres)
        assert word_closure(pres, max_words=stats.words_registered)[0] == size == 625
        assert word_closure(pres, max_words=stats.words_registered - 1)[0] is None

    @pytest.mark.parametrize("name", ["end4", "wend4", "T4", "PT3"])
    @pytest.mark.parametrize("extra", [1, 2, 10])
    def test_word_budget_stops_the_relation_scan(self, name, extra):
        # The first scan starts from the empty word alone: its reachability
        # pass registers the k one-letter words, and every later word of
        # the scan is registered while tracing the relations.
        builder, n = CASES[name]
        pres = builder(n)
        max_words = 1 + len(pres.alphabet) + extra
        closure = _RecordingClosure(pres, 2_000_000)
        closure.run(10_000)
        (words, _), (words_after, _), _ = closure.scans[0]
        assert words == 1 and words_after > max_words
        size, stats = word_closure(pres, max_words=max_words)
        assert size is None and stats.certify_rounds == 0
        assert stats.words_registered == max_words

    def test_budget_is_exact(self):
        pres = partial_transf_presentation(3)
        size, stats = word_closure(pres)
        assert word_closure(pres, max_words=stats.words_registered)[0] == size
        assert word_closure(pres, max_words=stats.words_registered - 1)[0] is None

    def test_zero_budget(self):
        # a budget below one word or one round is malformed, not exhausted
        for budget in ({"max_words": 0}, {"max_words": True}, {"max_words": 2.5},
                       {"max_rounds": 0}, {"max_rounds": -1}, {"max_rounds": True}):
            name = next(iter(budget))
            with pytest.raises(ValueError, match=name):
                word_closure(sym_presentation(3), **budget)
            with pytest.raises(ValueError, match=name):
                word_closure_size(sym_presentation(3), **budget)
        assert word_closure(sym_presentation(3), max_words=1) == (
            None, WordClosureStats(1, 0, 0))

    def test_round_budget(self):
        pres = wend_star_presentation(4)
        rounds = word_closure(pres)[1].certify_rounds
        assert word_closure_size(pres, max_rounds=rounds - 1) == 88
        size, stats = word_closure(pres, max_rounds=rounds - 2)
        assert size is None and stats.certify_rounds == rounds - 1


def test_large_alphabet_sized_exactly():
    # 25 letters, all equal to one idempotent g0: the monoid {1, g0}
    alphabet = tuple(f"g{i}" for i in range(25))
    g0 = (alphabet[0],)
    rels = [((g,), g0) for g in alphabet[1:]] + [(g0 + g0, g0)]
    pres = Presentation(alphabet, rels)
    size, stats = word_closure(pres)
    assert_certified(pres, size, stats)
    assert size == 2 == enumerate_quotient(pres, max_classes=8192).size


def test_independent_of_the_class_table_enumerator():
    tree = ast.parse(Path(wordclosure.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("congruence" in name for name in imported)
