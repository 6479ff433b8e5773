"""Quotient enumeration, the word-closure oracle and presentation verification.

``reference_quotient`` is the plain HLT loop that the flat-table enumerator
replaced: rows are lists with None for undefined entries, and every
relation trace defines a fresh class at each missing entry, the last letter
included.  The flat-table enumerator must follow the same trajectory, so
both give the same table on every completed run and stop at the same live
count on every budget-limited one.
"""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starendo import (
    CongruenceTable,
    EndoClass,
    Presentation,
    QuotientExceeded,
    QuotientStats,
    Transformation,
    end_star_presentation,
    enumerate_class,
    enumerate_quotient,
    evaluate_word,
    full_transf_presentation,
    generate,
    partial_transf_presentation,
    satisfies_relations,
    standard_generators,
    swend_star_presentation,
    sym_presentation,
    verify_presentation,
    wend_star_presentation,
    word_closure_size,
    Verdict,
)
import starendo.congruence as congruence_module
import starendo.monoid as monoid_module
import starendo.verify as verify_module
from starendo.congruence import _standardized
from starendo.verify import SOUNDNESS_NOTE


# a class budget above the peak live count of every run below that completes
ENOUGH = 10**6


def reference_enumeration(n_letters, relations, cap):
    """Plain HLT: returns (table, find, live) or (None, None, live) on budget."""
    table: list[list] = [[None] * n_letters]
    parent = [0]
    live = 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def new_class() -> int:
        nonlocal live
        table.append([None] * n_letters)
        parent.append(len(table) - 1)
        live += 1
        return len(table) - 1

    def scan_fill(q: int, word) -> int:
        c = q
        for x in word:
            c = find(c)
            nxt = table[c][x]
            if nxt is None:
                nxt = new_class()
                table[c][x] = nxt
            c = nxt
        return find(c)

    def merge(a: int, b: int) -> None:
        nonlocal live
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            parent[b] = a
            live -= 1
            row_a = table[a]
            row_b = table[b]
            for x in range(n_letters):
                vb = row_b[x]
                if vb is None:
                    continue
                va = row_a[x]
                if va is None:
                    row_a[x] = vb
                else:
                    queue.append((va, vb))

    q = 0
    while q < len(table):
        if find(q) == q:
            for u, v in relations:
                a = scan_fill(q, u)
                b = scan_fill(q, v)
                if a != b:
                    merge(a, b)
                if live > cap:
                    return None, None, live
                if find(q) != q:
                    break
            if find(q) == q:
                row = table[q]
                for x in range(n_letters):
                    if row[x] is None:
                        row[x] = new_class()
                if live > cap:
                    return None, None, live
        q += 1
    return table, find, live


def reference_quotient(pres, max_classes):
    """``enumerate_quotient`` on the plain HLT loop, without the stats."""
    pos = {x: i for i, x in enumerate(pres.alphabet)}
    relations = [
        (tuple(pos[x] for x in u), tuple(pos[x] for x in v)) for u, v in pres.relations
    ]
    table, find, live = reference_enumeration(len(pres.alphabet), relations, max_classes)
    if table is None:
        return QuotientExceeded(classes_reached=live)
    n_letters = len(pres.alphabet)
    root = find(0)
    order = {root: 0}
    bfs = [root]
    reps = [()]
    rows = []
    i = 0
    while i < len(bfs):
        c = bfs[i]
        row = []
        for x in range(n_letters):
            d = find(table[c][x])
            if d not in order:
                order[d] = len(bfs)
                bfs.append(d)
                reps.append(reps[i] + (pres.alphabet[x],))
            row.append(order[d])
        rows.append(tuple(row))
        i += 1
    assert len(bfs) == live
    table = CongruenceTable(alphabet=pres.alphabet, size=live, right_mult=tuple(rows))
    # the words read off the table's tree are the breadth-first words
    assert table.representative_words == tuple(reps)
    return table


def assert_same_trajectory(pres, max_classes=ENOUGH):
    """Both engines give equal results, tables included; returns the new one."""
    got = enumerate_quotient(pres, max_classes=max_classes)
    want = reference_quotient(pres, max_classes)
    assert type(got) is type(want)
    assert got == want  # the whole table on completion; stats are not compared
    stats = got.stats
    size = got.size if isinstance(got, CongruenceTable) else got.classes_reached
    assert stats.classes_defined - stats.coincidences == size
    assert stats.peak_live >= size
    return got


def without_zz(n):
    """``end_star_presentation(n)`` minus its ``z z = (e0 b0)^(n-3) e0`` relation."""
    pres = end_star_presentation(n)
    dropped = (("z", "z"), ("e0", "b0") * (n - 3) + ("e0",))
    kept = tuple(r for r in pres.relations if r != dropped)
    assert len(kept) == len(pres.relations) - 1
    return Presentation(pres.alphabet, kept)


# <a, b, c | ab = ba, a = cc, b = ccc, c^6 = 1>, the cyclic group of order 6
CYCLIC_6 = Presentation(
    ("a", "b", "c"),
    [(("a", "b"), ("b", "a")), (("a",), ("c", "c")), (("b",), ("c",) * 3), (("c",) * 6, ())],
)
# <a, b | aa = b>, whose weights are the multiples of w(a) = 1/2, w(b) = 1
SQUARE = Presentation(("a", "b"), [(("a", "a"), ("b",))])


def drawn_presentations(min_letters, max_letters):
    """Presentations on ``min_letters..max_letters`` letters with 1-5 distinct
    relations between words of up to 4 letters."""

    def over(k):
        alphabet = tuple("abcdefg"[:k])
        word = st.lists(st.sampled_from(alphabet), max_size=4).map(tuple)
        relations = st.lists(st.tuples(word, word), min_size=1, max_size=5, unique=True)
        return relations.map(lambda rels: Presentation(alphabet, rels))

    return st.integers(min_letters, max_letters).flatmap(over)


STAR_SIZES = {
    "end": {3: 6, 4: 30, 5: 260, 6: 3130},
    "swend": {3: 9, 4: 34, 5: 265, 6: 3136},
    "wend": {3: 17, 4: 88, 5: 689, 6: 7936},
}
STAR_BUILDERS = {
    "end": end_star_presentation,
    "swend": swend_star_presentation,
    "wend": wend_star_presentation,
}
# (classes_defined, peak_live, coincidences) of the flat-table enumerator:
# these literals pin the HLT counters at n = 6
STAR_STATS_N6 = {
    "end": QuotientStats(174602, 55128, 171472),
    "swend": QuotientStats(181453, 55130, 178317),
    "wend": QuotientStats(560189, 111781, 552253),
}


class TestTrajectoryMatchesReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", ["end", "swend", "wend"])
    def test_star_tables(self, cls, n):
        table = assert_same_trajectory(STAR_BUILDERS[cls](n))
        assert table.size == STAR_SIZES[cls][n]
        if n == 6:
            assert table.stats == STAR_STATS_N6[cls]

    @pytest.mark.parametrize(
        "pres,size",
        [(sym_presentation(n), s) for n, s in ((3, 6), (4, 24), (5, 120))]
        + [(full_transf_presentation(n), n ** n) for n in (3, 4)]
        + [(partial_transf_presentation(n), (n + 1) ** n) for n in (3, 4)],
        ids=["sym3", "sym4", "sym5", "T3", "T4", "PT3", "PT4"],
    )
    def test_classical_tables(self, pres, size):
        assert assert_same_trajectory(pres).size == size

    def test_classes_reached_on_a_sweep_of_caps(self):
        # without z z = ... the quotient is infinite, so every cap runs out
        pres = without_zz(5)
        for cap in range(50, 3000, 37):
            res = assert_same_trajectory(pres, max_classes=cap)
            assert isinstance(res, QuotientExceeded) and res.classes_reached > cap

    def test_completed_above_bound(self):
        # the engine takes no target size: a finished quotient is a table
        pres = sym_presentation(4)
        res = assert_same_trajectory(pres)
        assert isinstance(res, CongruenceTable) and res.size == 24
        res.check(pres.relations)

    @pytest.mark.parametrize("builder", [end_star_presentation, swend_star_presentation,
                                         wend_star_presentation], ids=["end", "swend", "wend"])
    def test_cap_never_changes_a_completed_table(self, builder):
        pres = builder(4)
        loose = enumerate_quotient(pres, max_classes=ENOUGH)
        tight = enumerate_quotient(pres, max_classes=loose.stats.peak_live)
        assert isinstance(tight, CongruenceTable)
        assert tight == loose and tight.stats == loose.stats

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(
                    st.tuples(
                        st.lists(st.integers(0, k - 1), max_size=4).map(tuple),
                        st.lists(st.integers(0, k - 1), max_size=4).map(tuple),
                    ),
                    min_size=1,
                    max_size=5,
                    unique=True,
                ),
            )
        ),
        st.integers(1, 400),
    )
    def test_drawn_presentations(self, drawn, cap):
        k, rels = drawn
        alphabet = tuple("xyz"[:k])
        pres = Presentation(
            alphabet,
            [(tuple(alphabet[i] for i in u), tuple(alphabet[i] for i in v)) for u, v in rels],
        )
        assert_same_trajectory(pres, max_classes=cap)

    # the coincidence routine is written out per alphabet size; these sizes
    # meet the plain loop here and nowhere else
    @given(drawn_presentations(4, 7), st.integers(1, 400))
    def test_drawn_presentations_on_larger_alphabets(self, pres, cap):
        assert_same_trajectory(pres, max_classes=cap)


class TestOneTableFormat:
    """A finished quotient is numbered as the monoid's closure walk is."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", ["end", "swend", "wend"])
    def test_quotient_table_is_the_target_walk(self, cls, n):
        table = enumerate_quotient(STAR_BUILDERS[cls](n), max_classes=ENOUGH)
        target = enumerate_class(n, cls)
        order, walk = target._walk
        r = len(target.generators)
        assert table.alphabet == target.generator_names
        assert table.right_mult == tuple(
            tuple(walk[i * r : (i + 1) * r]) for i in range(len(order))
        )
        assert table.representative_words == tuple(target.witness_words[x] for x in order)


class TestEnumerateQuotient:
    def test_order_two_group(self):
        pres = Presentation(("a",), [(("a", "a"), ())])
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        assert isinstance(table, CongruenceTable)
        assert table.size == 2
        assert table.representative_words == ((), ("a",))

    def test_words_are_built_on_first_read(self):
        table = enumerate_quotient(end_star_presentation(4), max_classes=ENOUGH)
        assert "representative_words" not in vars(table)
        words = table.representative_words
        assert vars(table)["representative_words"] is words
        assert len(words) == table.size == 30

    def test_empty_alphabet(self):
        table = enumerate_quotient(Presentation((), ()), max_classes=1)
        assert table.size == 1 and table.right_mult == ((),)
        assert table.representative_words == ((),)

    def test_unreachable_class_is_an_engine_fault(self, monkeypatch):
        real = congruence_module._run_table_enumeration

        def with_orphan(n_letters, *args):
            table, parent, live, stats = real(n_letters, *args)
            orphan = len(parent)
            parent.append(orphan)
            table += [orphan] * n_letters
            return table, parent, live + 1, stats

        monkeypatch.setattr(congruence_module, "_run_table_enumeration", with_orphan)
        with pytest.raises(AssertionError, match="unreachable classes"):
            enumerate_quotient(sym_presentation(3), max_classes=1000)

    def test_free_monoid_exceeds(self):
        res = enumerate_quotient(Presentation(("a",), []), max_classes=8192)
        assert res == QuotientExceeded(classes_reached=8193)

    def test_completed_above_bound_reports_exact_size(self):
        # a quotient larger than the caller expects comes back whole
        pres = sym_presentation(3)
        res = enumerate_quotient(pres, max_classes=ENOUGH)
        assert isinstance(res, CongruenceTable) and res.size == 6
        res.check(pres.relations)

    def test_end_star_n4(self):
        table = enumerate_quotient(end_star_presentation(4), max_classes=ENOUGH)
        assert isinstance(table, CongruenceTable)
        assert table.size == 30

    def test_table_well_formed(self):
        pres = wend_star_presentation(3)
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        assert table.size == 17
        table.check(pres.relations)  # every relation at every class
        assert table.trace(()) == 0
        # representatives trace back to their own class and are shortlex sorted
        for q, rep in enumerate(table.representative_words):
            assert table.trace(rep) == q
        keys = [(len(w), w) for w in table.representative_words]
        assert keys == sorted(keys)

    def test_trace_rejects_bad_input(self):
        table = enumerate_quotient(end_star_presentation(3), max_classes=ENOUGH)
        letter = table.alphabet[0]
        for word in (("q",), (letter, "q")):
            with pytest.raises(ValueError, match="letter 'q'"):
                table.trace(word)
        for start in (99, table.size, -1, True, False):
            with pytest.raises(ValueError, match=f"start {start} "):
                table.trace((letter,), start)
        # a str is not a word, even when its characters are letters
        for word in ("z", letter):
            with pytest.raises(ValueError, match="is a str"):
                table.trace(word)
        last = table.size - 1
        assert table.trace((letter,), last) == table.right_mult[last][0]

    def test_check_rejects_bad_input(self):
        pres = end_star_presentation(3)
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        letter = table.alphabet[0]
        for relation in ((("q",), ()), ((letter,), (letter, "q"))):
            with pytest.raises(ValueError, match="letter 'q'"):
                table.check(list(pres.relations) + [relation])
        for relation in (((letter,),), ((), (), ()), "ab", None):
            with pytest.raises(ValueError, match="not a pair of words"):
                table.check([relation])
        for relation in ((("z",), "z"), ("z", ("z",)), ((letter,), letter)):
            with pytest.raises(ValueError, match="is a str"):
                table.check([relation])
        table.check(pres.relations)

    def test_deterministic(self):
        a = enumerate_quotient(swend_star_presentation(4), max_classes=ENOUGH)
        b = enumerate_quotient(swend_star_presentation(4), max_classes=ENOUGH)
        assert a == b

    def test_relabeling_invariance(self):
        p = full_transf_presentation(3)
        q = p.relabel({"a": "x", "b": "y", "e": "w"})
        p_size = enumerate_quotient(p, max_classes=ENOUGH).size
        assert p_size == enumerate_quotient(q, max_classes=ENOUGH).size == 27

    def test_adding_relation_never_grows(self):
        for pres in (sym_presentation(3), end_star_presentation(3)):
            base = enumerate_quotient(pres, max_classes=ENOUGH).size
            for extra in ((("a",) if "a" in pres.alphabet else ("a0",), ()),):
                bigger = Presentation(pres.alphabet, pres.relations + (extra,))
                assert enumerate_quotient(bigger, max_classes=ENOUGH).size <= base

    def test_removing_relation_never_shrinks(self):
        pres = end_star_presentation(4)
        base = enumerate_quotient(pres, max_classes=ENOUGH).size
        for i in range(len(pres.relations)):
            weakened = Presentation(
                pres.alphabet, pres.relations[:i] + pres.relations[i + 1:]
            )
            res = enumerate_quotient(weakened, max_classes=50_048)
            size = res.size if isinstance(res, CongruenceTable) else res.classes_reached
            assert size >= base

    @pytest.mark.parametrize("max_classes", [0, -3, True, 2.5, None])
    def test_class_budget_below_one_rejected(self, max_classes):
        with pytest.raises(ValueError, match="max_classes"):
            enumerate_quotient(sym_presentation(3), max_classes=max_classes)
        assert enumerate_quotient(sym_presentation(3), max_classes=1) == QuotientExceeded(
            classes_reached=2)


class TestWordClosureOracle:
    @pytest.mark.parametrize(
        "pres,expected",
        [
            (sym_presentation(3), 6),
            (end_star_presentation(3), 6),
            (swend_star_presentation(3), 9),
            (wend_star_presentation(3), 17),
            (sym_presentation(4), 24),
            (full_transf_presentation(3), 27),
            (end_star_presentation(4), 30),
            (swend_star_presentation(4), 34),
            (partial_transf_presentation(3), 64),
            (wend_star_presentation(4), 88),
        ],
        ids=["sym3", "end3", "swend3", "wend3", "sym4", "T3", "end4", "swend4",
             "PT3", "wend4"],
    )
    def test_agrees_with_table_enumeration(self, pres, expected):
        assert word_closure_size(pres) == expected
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        assert isinstance(table, CongruenceTable) and table.size == expected

    def test_budget_returns_none(self):
        assert word_closure_size(wend_star_presentation(4), max_words=50) is None

    def test_agrees_on_random_presentations(self):
        rng = random.Random(20250809)
        finite = 0
        for _ in range(120):
            k = rng.choice([2, 2, 3])
            alphabet = tuple("xyz"[:k])
            rels = []
            for _ in range(rng.randint(2, 5)):
                u = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                v = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
                if u != v and (u, v) not in rels:
                    rels.append((u, v))
            if not rels:
                continue
            pres = Presentation(alphabet, rels)
            res = enumerate_quotient(pres, max_classes=20000)
            if not isinstance(res, CongruenceTable) or res.size > 300:
                continue
            finite += 1
            assert word_closure_size(pres, max_words=500_000) == res.size, pres
        assert finite > 40  # the seed gives a healthy sample of finite quotients


class TestSatisfiesRelations:
    def test_standard_assignment(self):
        pres = end_star_presentation(4)
        ok, failures = satisfies_relations(dict(standard_generators(4, EndoClass.END)), pres)
        assert ok and failures == ()

    def test_swapped_absorbers_fail(self):
        pres = swend_star_presentation(4)
        assignment = dict(standard_generators(4, EndoClass.STRONG_WEAK_END))
        assignment["z"], assignment["z0"] = assignment["z0"], assignment["z"]
        ok, failures = satisfies_relations(assignment, pres)
        assert not ok and failures

    def test_missing_letter(self):
        with pytest.raises(ValueError):
            satisfies_relations({"a0": Transformation((0, 2, 1))}, end_star_presentation(3))

    def test_value_that_is_not_a_transformation(self):
        # rejected before any relation is evaluated, so also with none to evaluate
        for relations in ([], [(("a", "a"), ())]):
            with pytest.raises(ValueError, match="not a Transformation"):
                satisfies_relations({"a": (0, 1)}, Presentation(("a",), relations))

    @pytest.mark.parametrize("assignment", [None, 5, "ab", [("a", Transformation((1, 0)))]])
    def test_assignment_that_is_not_a_mapping(self, assignment):
        with pytest.raises(ValueError, match="not a Mapping"):
            satisfies_relations(assignment, sym_presentation(3))

    def test_values_of_two_degrees(self):
        assignment = {"a": Transformation((1, 0)), "b": Transformation((0, 0, 1))}
        # no relation uses b, so evaluating the relations alone would pass
        for relations in ([], [(("a", "a"), ())]):
            with pytest.raises(ValueError, match="degree mismatch"):
                satisfies_relations(assignment, Presentation(("a", "b"), relations))


class TestVerifyPresentation:
    def test_end_n4_verified(self):
        report = verify_presentation(
            end_star_presentation(4),
            enumerate_class(4, EndoClass.END),
            dict(standard_generators(4, EndoClass.END)),
            max_classes=ENOUGH,
        )
        assert report.verdict is Verdict.VERIFIED
        assert report.quotient_size == report.target_size == 30
        # the level walk's counters, summed over Z_2, S_3, T_3 and END_4
        # (the largest peak is T_3's); plain HLT gives (777, 210, 747)
        assert report.counters == QuotientStats(
            classes_defined=774, peak_live=173, coincidences=744
        )
        assert report.counters.classes_defined - report.counters.coincidences == 30
        assert report.to_dict()["counters"] == {
            "classes_defined": report.counters.classes_defined,
            "peak_live": report.counters.peak_live,
            "coincidences": report.counters.coincidences,
        }

    def test_weakened_presentation_not_verified(self):
        pres = end_star_presentation(4)
        dropped = (("z", "z"), ("e0", "b0", "e0"))
        weakened = Presentation(
            pres.alphabet, tuple(r for r in pres.relations if r != dropped)
        )
        # the cap stops this enumeration early; see test_a8_dropped_relation_detected
        report = verify_presentation(
            weakened,
            enumerate_class(4, EndoClass.END),
            dict(standard_generators(4, EndoClass.END)),
            max_classes=8192,
        )
        assert report.verdict in (Verdict.REFUTED_SIZE, Verdict.INCONCLUSIVE_BUDGET)

    def test_bad_relations_refuted(self):
        pres = swend_star_presentation(4)
        assignment = dict(standard_generators(4, EndoClass.STRONG_WEAK_END))
        assignment["z"], assignment["z0"] = assignment["z0"], assignment["z"]
        report = verify_presentation(
            pres, enumerate_class(4, EndoClass.STRONG_WEAK_END), assignment, max_classes=ENOUGH
        )
        assert report.verdict is Verdict.REFUTED_RELATIONS
        assert report.failing_relations
        assert report.counters is None and report.to_dict()["counters"] is None

    def test_symmetric_presentation_defines_automorphisms(self):
        pres = sym_presentation(3).relabel({"a": "a0", "b": "b0"})
        aut = enumerate_class(4, EndoClass.AUT)
        assignment = {
            "a0": Transformation((0, 2, 1, 3)),
            "b0": Transformation((0, 2, 3, 1)),
        }
        report = verify_presentation(pres, aut, assignment, max_classes=ENOUGH)
        assert report.verdict is Verdict.VERIFIED
        assert report.quotient_size == 6

    def test_quotient_above_target_refutes_size(self, monkeypatch):
        # <a, b | a^2, b^3, (ab)^4> is S_4, which maps onto Aut(S_4) = S_3
        pres = Presentation(
            ("a0", "b0"), [(("a0",) * 2, ()), (("b0",) * 3, ()), (("a0", "b0") * 4, ())]
        )
        assignment = {
            "a0": Transformation((0, 2, 1, 3)),
            "b0": Transformation((0, 2, 3, 1)),
        }
        # the refutation rests on a table checked at every class
        checked = []
        real = CongruenceTable.check

        def recorded(self, relations):
            checked.append(self.size)
            return real(self, relations)

        monkeypatch.setattr(CongruenceTable, "check", recorded)
        report = verify_presentation(
            pres, enumerate_class(4, EndoClass.AUT), assignment, max_classes=ENOUGH
        )
        assert report.verdict is Verdict.REFUTED_SIZE
        assert checked == [24]
        assert report.quotient_size == report.classes_reached == 24
        assert report.target_size == 6
        assert report.note.startswith("quotient enumeration finished above the target size; ")
        assert report.counters.classes_defined - report.counters.coincidences == 24

    def test_each_verdict_reports_its_size_and_note(self):
        # (verdict, to_dict()["quotient_size"], note prefix) for one run of each
        end3 = end_star_presentation(3), enumerate_class(3, EndoClass.END)
        swapped = dict(standard_generators(3, EndoClass.END))
        swapped["a0"], swapped["z"] = swapped["z"], swapped["a0"]
        s4 = Presentation(
            ("a0", "b0"), [(("a0",) * 2, ()), (("b0",) * 3, ()), (("a0", "b0") * 4, ())]
        )
        aut4 = enumerate_class(4, EndoClass.AUT)
        aut4_gens = {"a0": Transformation((0, 2, 1, 3)), "b0": Transformation((0, 2, 3, 1))}
        runs = [
            (*end3, dict(standard_generators(3, EndoClass.END)), ENOUGH,
             Verdict.VERIFIED, 6, ""),
            (*end3, swapped, ENOUGH,
             Verdict.REFUTED_RELATIONS, None, "some relations fail on the generators; "),
            (s4, aut4, aut4_gens, ENOUGH,
             Verdict.REFUTED_SIZE, 24, "quotient enumeration finished above the target size; "),
            (*end3, dict(standard_generators(3, EndoClass.END)), 1,
             Verdict.INCONCLUSIVE_BUDGET, "exceeded",
             "class budget exhausted before enumeration finished; "),
        ]
        for pres, target, assignment, cap, verdict, size, prefix in runs:
            report = verify_presentation(pres, target, assignment, max_classes=cap)
            assert report.verdict is verdict
            assert report.to_dict()["quotient_size"] == size, verdict
            assert report.note == prefix + SOUNDNESS_NOTE, verdict

    def test_table_below_target_is_an_engine_fault(self, monkeypatch):
        # the relations hold and the images generate END_4, so a finished
        # table of fewer than 30 classes can only come from a faulty engine
        small = _standardized(sym_presentation(3), ENOUGH)
        monkeypatch.setattr("starendo.verify._level_walk", lambda *a, **k: small)
        with pytest.raises(AssertionError, match="6 classes for a target of 30"):
            verify_presentation(
                end_star_presentation(4),
                enumerate_class(4, EndoClass.END),
                dict(standard_generators(4, EndoClass.END)),
                max_classes=ENOUGH,
            )

    @pytest.mark.parametrize("max_classes", [0, -1, True, 2.5, "7"])
    def test_class_budget_checked_where_it_enters(self, max_classes):
        # the swapped absorbers fail the relations, so no enumeration runs
        # that could reject the budget later
        pres = swend_star_presentation(4)
        assignment = dict(standard_generators(4, EndoClass.STRONG_WEAK_END))
        assignment["z"], assignment["z0"] = assignment["z0"], assignment["z"]
        target = enumerate_class(4, EndoClass.STRONG_WEAK_END)
        report = verify_presentation(pres, target, assignment, max_classes=1)
        assert report.verdict is Verdict.REFUTED_RELATIONS
        with pytest.raises(ValueError, match="max_classes"):
            verify_presentation(pres, target, assignment, max_classes=max_classes)

    @pytest.mark.parametrize("assignment", [None, 5, "ab", [("a", Transformation((1, 0)))]])
    def test_assignment_that_is_not_a_mapping(self, assignment):
        with pytest.raises(ValueError, match="not a Mapping"):
            verify_presentation(
                sym_presentation(3), enumerate_class(3, EndoClass.AUT), assignment, max_classes=10
            )

    def test_quotient_words_are_not_built(self, monkeypatch):
        # no table object is built, so neither its rows nor its words are,
        # and nothing reads a standardized table's tree
        def refuse(*args, **kwargs):
            raise AssertionError("verify built quotient rows or words")

        monkeypatch.setattr(CongruenceTable, "__init__", refuse)
        monkeypatch.setattr("starendo.congruence._tree_edges", refuse)
        monkeypatch.setattr("starendo.monoid._tree_edges", refuse)
        report = verify_presentation(
            end_star_presentation(4),
            enumerate_class(4, EndoClass.END),
            dict(standard_generators(4, EndoClass.END)),
            max_classes=ENOUGH,
        )
        assert report.verdict is Verdict.VERIFIED

    def test_same_size_table_that_differs_from_the_walk_is_an_engine_fault(self, monkeypatch):
        real = verify_module._level_walk

        def swapped(*args, **kwargs):
            flat, size, stats = real(*args, **kwargs)
            assert flat[0] != flat[1]
            flat[0], flat[1] = flat[1], flat[0]
            return flat, size, stats

        monkeypatch.setattr("starendo.verify._level_walk", swapped)
        with pytest.raises(AssertionError, match="30 classes differs from the target's walk"):
            verify_presentation(
                end_star_presentation(4),
                enumerate_class(4, EndoClass.END),
                dict(standard_generators(4, EndoClass.END)),
                max_classes=ENOUGH,
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("cls", ["end", "swend", "wend"])
    def test_verified_by_the_walk_without_check(self, cls, n, monkeypatch):
        def refuse(self, relations):
            raise AssertionError("check ran on the verified path")

        monkeypatch.setattr(CongruenceTable, "check", refuse)
        report = verify_presentation(
            STAR_BUILDERS[cls](n),
            enumerate_class(n, cls),
            dict(standard_generators(n, cls)),
            max_classes=ENOUGH,
        )
        assert report.verdict is Verdict.VERIFIED
        assert report.quotient_size == STAR_SIZES[cls][n]

    def test_assignment_in_another_order_verified_by_the_closure_walk(self, monkeypatch):
        # the alphabet reversed, and the letters renamed: the images in
        # alphabet order are not the target's generators in their order
        target = enumerate_class(4, EndoClass.WEAK_END)
        pres = wend_star_presentation(4)
        gens = dict(standard_generators(4, EndoClass.WEAK_END))
        names = {x: f"g{i}" for i, x in enumerate(pres.alphabet)}
        reordered = Presentation(pres.alphabet[::-1], pres.relations).relabel(names)
        assignment = {names[x]: t for x, t in gens.items()}
        walks = []
        real = monoid_module._generates_exactly

        def counted(*args):
            walks.append(real(*args))
            return walks[-1]

        monkeypatch.setattr(monoid_module, "_generates_exactly", counted)
        report = verify_presentation(reordered, target, assignment, max_classes=ENOUGH)
        assert report.verdict is Verdict.VERIFIED
        assert report.quotient_size == 88
        assert len(walks) == 1 and walks[0] != target._walk[1]

    def test_non_generating_assignment_is_an_error(self):
        pres = end_star_presentation(4)
        assignment = {x: Transformation((0, 1, 2, 3)) for x in pres.alphabet}
        with pytest.raises(ValueError):
            verify_presentation(
                pres, enumerate_class(4, EndoClass.END), assignment, max_classes=ENOUGH
            )

    def test_wrong_alphabet_is_an_error(self):
        with pytest.raises(ValueError):
            verify_presentation(
                end_star_presentation(4),
                enumerate_class(4, EndoClass.END),
                {"a0": Transformation((0, 2, 1, 3))},
                max_classes=ENOUGH,
            )

    def test_representative_words_surject_homomorphically(self):
        # evaluating class representatives hits each monoid element once, and
        # appending a generator letter matches the table transition
        pres = end_star_presentation(4)
        assignment = dict(standard_generators(4, EndoClass.END))
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        values = [evaluate_word(assignment, w, 4) for w in table.representative_words]
        assert len(set(values)) == table.size
        for q in range(table.size):
            for i, letter in enumerate(table.alphabet):
                lhs = values[q] * assignment[letter]
                assert lhs == values[table.right_mult[q][i]]


def verify_star(cls, n, max_classes, pres=None):
    return verify_presentation(
        STAR_BUILDERS[cls](n) if pres is None else pres,
        enumerate_class(n, cls),
        dict(standard_generators(n, cls)),
        max_classes=max_classes,
    )


def counted_runs(monkeypatch):
    """Record (alphabet, class cap, finished) of every run ``verify`` makes."""
    runs = []
    real = verify_module._standardized

    def counted(level, cap, *args):
        result = real(level, cap, *args)
        runs.append((level.alphabet, cap, result[0] is not None))
        return result

    monkeypatch.setattr(verify_module, "_standardized", counted)
    return runs


class TestLevelWalk:
    @pytest.mark.parametrize(
        "cls,n", [(c, n) for c in STAR_BUILDERS for n in (3, 4, 5)] + [("end", 6)]
    )
    def test_table_equals_the_plain_table(self, cls, n):
        pres = STAR_BUILDERS[cls](n)
        flat, size, counters = verify_module._level_walk(pres, ENOUGH, ENOUGH)
        plain, plain_size, _ = _standardized(pres, ENOUGH)
        assert flat == plain
        assert size == plain_size == STAR_SIZES[cls][n]
        assert counters.classes_defined - counters.coincidences == size

    @pytest.mark.parametrize("n,cap", [(4, 8192), (5, 8288)])
    def test_weakened_presentation_has_the_plain_verdict(self, n, cap):
        # plain HLT runs out of the cap; verify proves the quotient infinite
        # by the weight w(z) = 1 before any enumeration
        assert isinstance(enumerate_quotient(without_zz(n), max_classes=cap), QuotientExceeded)
        report = verify_star("end", n, cap, without_zz(n))
        assert report.verdict is Verdict.REFUTED_SIZE
        assert report.weight == {"z": 1}
        assert report.counters is None

    @pytest.mark.parametrize("cls", list(STAR_BUILDERS))
    def test_every_star_level_finishes_under_the_level_cap(self, cls, monkeypatch):
        runs = counted_runs(monkeypatch)
        assert verify_star(cls, 5, ENOUGH).verdict is Verdict.VERIFIED
        pres = STAR_BUILDERS[cls](5)
        assert [alphabet for alphabet, _, _ in runs] == [
            pres.alphabet[:i] for i in range(1, len(pres.alphabet) + 1)
        ]
        assert all(finished for _, _, finished in runs)
        cap = verify_module.LEVEL_CAP_FACTOR * STAR_SIZES[cls][5]
        assert [c for _, c, _ in runs] == [cap] * (len(runs) - 1) + [ENOUGH]

    def test_infinite_prefix_falls_back(self, monkeypatch):
        # <a, b, c | ab = ba, a = cc, b = ccc, c^6 = 1> is the cyclic group
        # of order 6; its prefixes <a | > and <a, b | ab = ba> have weights,
        # so neither runs
        c = Transformation((1, 2, 3, 4, 5, 0))
        target = generate([("c", c)])
        runs = counted_runs(monkeypatch)
        report = verify_presentation(
            CYCLIC_6, target, {"a": c * c, "b": c * c * c, "c": c}, max_classes=1000
        )
        assert report.verdict is Verdict.VERIFIED
        assert report.quotient_size == 6
        assert runs == [(("a", "b", "c"), 1000, True)]
        counters = report.counters
        assert counters.classes_defined - counters.coincidences == 6

    def test_infinite_prefixes_cost_one_capped_run(self, monkeypatch):
        # WEND_4 with its alphabet reversed: <z> has a letter in no
        # relation, and <z, c0>, <z, c0, e0> and <z, c0, e0, b0> are infinite
        pres = Presentation(wend_star_presentation(4).alphabet[::-1],
                            wend_star_presentation(4).relations)
        runs = counted_runs(monkeypatch)
        report = verify_star("wend", 4, ENOUGH, pres)
        assert report.verdict is Verdict.VERIFIED
        level_cap = verify_module.LEVEL_CAP_FACTOR * 88
        assert runs == [(pres.alphabet[:2], level_cap, False), (pres.alphabet, ENOUGH, True)]

    @settings(deadline=None)
    @given(drawn_presentations(1, 4))
    def test_drawn_walk_equals_the_plain_table(self, pres):
        plain, plain_size, _ = _standardized(pres, 3000)
        if plain is not None:
            flat, size, _ = verify_module._level_walk(pres, 3000, 3000)
            assert flat == plain and size == plain_size

    def test_run_from_a_table_over_fewer_letters(self, monkeypatch):
        # <a, x, b | aa = 1, x = bb, bbb = 1, ab = ba> is the cyclic group of
        # order 6; its level <a, x | aa = 1> has the weight w(x) = 1, so the
        # last run starts from the 2-class table of <a | aa = 1>, over one letter
        pres = Presentation(
            ("a", "x", "b"),
            [(("a", "a"), ()), (("x",), ("b", "b")), (("b",) * 3, ()),
             (("a", "b"), ("b", "a"))],
        )
        a, b = Transformation((1, 0, 2, 3, 4)), Transformation((0, 1, 3, 4, 2))
        target = generate([("a", a), ("b", b)])
        runs = counted_runs(monkeypatch)
        report = verify_presentation(pres, target, {"a": a, "x": b * b, "b": b},
                                     max_classes=1000)
        assert report.verdict is Verdict.VERIFIED
        assert runs == [(("a",), 384, True), (("a", "x", "b"), 1000, True)]


class TestWeight:
    def test_found_weights(self):
        assert verify_module._find_weight(without_zz(4)) == {"z": 1}
        assert verify_module._find_weight(SQUARE) == {"a": Fraction(1, 2), "b": 1}
        assert verify_module._find_weight(Presentation(("a", "b"), [])) == {"a": 1}

    @pytest.mark.parametrize("corrupt", [
        # the 1 moved from z to e0: e0 z = z counts 1 against 0
        lambda w: {"e0": w["z"]},
        # every entry zero, written out or left out
        lambda w: {x: 0 * v for x, v in w.items()},
        lambda w: {},
    ])
    def test_checker_rejects_a_corrupted_end_weight(self, corrupt):
        pres = without_zz(4)
        weight = verify_module._find_weight(pres)
        verify_module._check_weight(pres, weight)
        with pytest.raises(AssertionError):
            verify_module._check_weight(pres, corrupt(weight))

    def test_checker_rejects_one_scaled_entry(self):
        # END's weight has one nonzero entry, and every multiple of it is a
        # weight; SQUARE's ties two letters, so scaling one breaks aa = b
        weight = verify_module._find_weight(SQUARE)
        verify_module._check_weight(SQUARE, weight)
        for x in weight:
            with pytest.raises(AssertionError, match="differs on the sides"):
                verify_module._check_weight(SQUARE, {**weight, x: 3 * weight[x]})

    def test_checker_rejects_letters_outside_the_alphabet(self):
        with pytest.raises(AssertionError, match="outside"):
            verify_module._check_weight(without_zz(4), {"z": 1, "y": 1})

    def test_weight_that_fails_the_recount_is_an_engine_fault(self, monkeypatch):
        monkeypatch.setattr(verify_module, "_find_weight", lambda pres: {"e0": Fraction(1)})
        with pytest.raises(AssertionError, match="differs on the sides"):
            verify_star("end", 4, ENOUGH, without_zz(4))

    @pytest.mark.parametrize("cls,n", [(c, n) for c in STAR_BUILDERS for n in range(3, 8)])
    def test_star_presentations_have_no_weight(self, cls, n):
        assert verify_module._find_weight(STAR_BUILDERS[cls](n)) is None

    def test_cyclic_group_has_no_weight(self):
        assert verify_module._find_weight(CYCLIC_6) is None

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_end_without_zz_refuted_in_milliseconds(self, n, monkeypatch):
        pres, target = without_zz(n), enumerate_class(n, EndoClass.END)
        gens = dict(standard_generators(n, EndoClass.END))
        times = []
        real = verify_module._certified_weight

        def timed(level):
            t0 = time.perf_counter()
            weight = real(level)
            times.append(time.perf_counter() - t0)
            return weight

        monkeypatch.setattr(verify_module, "_certified_weight", timed)
        report = verify_presentation(pres, target, gens, max_classes=ENOUGH)
        assert report.verdict is Verdict.REFUTED_SIZE
        assert report.weight == {"z": 1}
        assert report.quotient_size is report.classes_reached is report.counters is None
        assert report.note.startswith(
            "a relation-invariant weight proves the quotient infinite; "
        )
        assert len(times) == 1 and times[0] < 0.010, times

    @settings(deadline=None)
    @given(drawn_presentations(2, 3))
    def test_weight_and_a_finished_table_exclude_each_other(self, pres):
        # a weight proves the quotient infinite, so HLT cannot finish it, and
        # a finished table proves it finite, so it has no weight
        weight = verify_module._certified_weight(pres)
        result = enumerate_quotient(pres, max_classes=2000)
        if weight is not None:
            assert isinstance(result, QuotientExceeded)
        if isinstance(result, CongruenceTable):
            assert weight is None


class TestReportToJson:
    def test_every_verdict_dumps_as_json(self):
        end3, end4 = enumerate_class(3, EndoClass.END), enumerate_class(4, EndoClass.END)
        s4 = Presentation(
            ("a0", "b0"), [(("a0",) * 2, ()), (("b0",) * 3, ()), (("a0", "b0") * 4, ())]
        )
        swapped = dict(standard_generators(3, EndoClass.END))
        swapped["a0"], swapped["z"] = swapped["z"], swapped["a0"]
        c2 = Transformation((1, 0))
        runs = [
            (end_star_presentation(3), end3, dict(standard_generators(3, EndoClass.END)),
             ENOUGH, "verified", 6, None),
            (end_star_presentation(3), end3, swapped, ENOUGH, "refuted-relations", None, None),
            (s4, enumerate_class(4, EndoClass.AUT),
             {"a0": Transformation((0, 2, 1, 3)), "b0": Transformation((0, 2, 3, 1))},
             ENOUGH, "refuted-size", 24, None),
            (end_star_presentation(4), end4, dict(standard_generators(4, EndoClass.END)),
             100, "inconclusive-budget", "exceeded", None),
            (without_zz(4), end4, dict(standard_generators(4, EndoClass.END)),
             ENOUGH, "refuted-size", "infinite", {"z": "1"}),
            (SQUARE, generate([("a", c2)]), {"a": c2, "b": c2 * c2},
             ENOUGH, "refuted-size", "infinite", {"a": "1/2", "b": "1"}),
        ]
        for pres, target, assignment, cap, verdict, size, weight in runs:
            report = verify_presentation(pres, target, assignment, max_classes=cap)
            doc = json.loads(json.dumps(report.to_dict()))
            assert (doc["verdict"], doc["quotient_size"], doc["weight"]) == (verdict, size, weight)
