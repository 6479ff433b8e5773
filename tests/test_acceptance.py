"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value and tolerance is fixed here, nothing is
calibrated at run time.
"""

import functools
import json
import math
import time
from itertools import product

from starendo import (
    CongruenceTable,
    EndoClass,
    Presentation,
    cardinality_formula,
    enumerate_class,
    enumerate_quotient,
    end_star_presentation,
    full_transf_presentation,
    is_generating_set,
    is_regular_monoid,
    partial_transf_presentation,
    rank_exact,
    satisfies_relations,
    standard_generators,
    swend_star_presentation,
    sym_presentation,
    verify_presentation,
    wend_star_presentation,
    word_closure_size,
    Verdict,
)
from starendo.cli import main

END = EndoClass.END
WEND = EndoClass.WEAK_END
SEND = EndoClass.STRONG_END
SWEND = EndoClass.STRONG_WEAK_END
AUT = EndoClass.AUT

# a class budget above the peak live count of every verification below that completes
ENOUGH = 10**6

STAR_BUILDERS = [
    (END, end_star_presentation),
    (SWEND, swend_star_presentation),
    (WEND, wend_star_presentation),
]


def criterion(label, limit_s=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = False
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                ok = limit_s is None or elapsed < limit_s
            finally:
                elapsed = time.perf_counter() - started
                print(f"[{label}] {'PASS' if ok else 'FAIL'} ({elapsed:.1f} s)")
            if limit_s is not None:
                assert elapsed < limit_s, f"{label} took {elapsed:.1f} s, limit {limit_s} s"
        return wrapper
    return deco


@criterion("A1 cardinality reproduction", limit_s=60)
def test_a1_cardinalities():
    for n in range(1, 8):
        for cls in (END, SWEND, WEND, AUT):
            try:
                expected = cardinality_formula(n, cls)
            except ValueError:
                continue  # formula does not apply at this degree
            assert len(enumerate_class(n, cls)) == expected, (n, cls)
    assert len(enumerate_class(4, END)) == 30
    assert len(enumerate_class(5, END)) == 260
    assert len(enumerate_class(4, SWEND)) == 34
    assert len(enumerate_class(4, WEND)) == 88
    assert len(enumerate_class(5, WEND)) == 689
    for n in range(3, 8):
        assert len(enumerate_class(n, AUT)) == math.factorial(n - 1)


@criterion("A2 structural descriptions", limit_s=30)
def test_a2_descriptions():
    for n in range(3, 7):
        hub_fixing_into_leaves = {
            img
            for img in product(range(n), repeat=n)
            if img[0] == 0 and all(v != 0 for v in img[1:])
        }
        leaf_collapses = {(i,) + (0,) * (n - 1) for i in range(1, n)}
        constants = {(i,) * n for i in range(n)}
        end_described = hub_fixing_into_leaves | leaf_collapses
        swend_described = end_described | constants
        wend_described = {
            img
            for img in product(range(n), repeat=n)
            if img[0] == 0 or set(img) <= {0, img[0]}
        }

        end_set = {t.images for t in enumerate_class(n, END)}
        assert end_set == end_described, f"n={n} endomorphism description"
        swend_set = {t.images for t in enumerate_class(n, SWEND)}
        assert swend_set == swend_described, f"n={n} strong weak description"
        wend_set = {t.images for t in enumerate_class(n, WEND)}
        assert wend_set == wend_described, f"n={n} weak description"
        assert enumerate_class(n, SEND).elements == enumerate_class(n, END).elements


@criterion("A3 regularity", limit_s=60)
def test_a3_regularity():
    for n in range(3, 8):
        for cls in (END, SWEND, WEND):
            assert is_regular_monoid(enumerate_class(n, cls)), (n, cls)


@criterion("A4 generating sets and ranks", limit_s=660)
def test_a4_generators_and_ranks():
    for n in range(3, 7):
        for cls, _ in STAR_BUILDERS:
            target = enumerate_class(n, cls)
            gens = [t for _, t in standard_generators(n, cls)]
            assert is_generating_set(target, gens), (n, cls)

    expected_ranks = {
        (3, END): 2, (3, SWEND): 3, (3, WEND): 3,
        (4, END): 4, (4, SWEND): 5, (4, WEND): 5,
    }
    for cls, expected in ((END, 4), (SWEND, 5), (WEND, 5)):
        assert expected == len(standard_generators(5, cls))
        expected_ranks[5, cls] = expected
    for (n, cls), expected in expected_ranks.items():
        target = enumerate_class(n, cls)
        got = rank_exact(target, 5, time_budget_s=600.0)
        # None would mean no subset of at most 5 elements generates; a run
        # out of time raises BudgetExceededError instead
        assert got == expected, f"rank of {cls.value} at n={n}: got {got}"


@criterion("A5 presentation relations", limit_s=5)
def test_a5_relations_hold():
    for n in range(3, 7):
        for cls, builder in STAR_BUILDERS:
            pres = builder(n)
            assignment = dict(standard_generators(n, cls))
            ok, failures = satisfies_relations(assignment, pres)
            assert ok, (n, cls, failures[:3])


@criterion("A6 main presentation theorems", limit_s=120)
def test_a6_star_presentations_verified():
    expected = {
        (3, END): 6, (4, END): 30, (5, END): 260,
        (3, SWEND): 9, (4, SWEND): 34, (5, SWEND): 265,
        (3, WEND): 17, (4, WEND): 88, (5, WEND): 689,
    }
    for (n, cls), size in expected.items():
        builder = dict(STAR_BUILDERS)[cls]
        report = verify_presentation(
            builder(n),
            enumerate_class(n, cls),
            dict(standard_generators(n, cls)),
            max_classes=ENOUGH,
        )
        assert report.verdict is Verdict.VERIFIED, (n, cls, report.verdict)
        assert report.quotient_size == report.target_size == size, (n, cls)


@criterion("A7 base presentations", limit_s=120)
def test_a7_base_presentations():
    for n in (3, 4, 5):
        table = enumerate_quotient(sym_presentation(n), max_classes=8192)
        assert isinstance(table, CongruenceTable) and table.size == math.factorial(n), n
    for n in (3, 4):
        table = enumerate_quotient(full_transf_presentation(n), max_classes=8192)
        assert isinstance(table, CongruenceTable) and table.size == n**n, n
    for n in (3, 4):
        table = enumerate_quotient(partial_transf_presentation(n), max_classes=17_048)
        assert isinstance(table, CongruenceTable) and table.size == (n + 1) ** n, n


@criterion("A8 mutation sensitivity", limit_s=60)
def test_a8_dropped_relation_detected():
    pres = end_star_presentation(4)
    dropped = (("z", "z"), ("e0", "b0", "e0"))
    assert dropped in pres.relations
    weakened = Presentation(pres.alphabet, tuple(r for r in pres.relations if r != dropped))
    # 8,192 classes stop the weakened enumeration in a fraction of a second;
    # a budget of 10**6 would hold it for tens of seconds and 1.5 GB
    report = verify_presentation(
        weakened, enumerate_class(4, END), dict(standard_generators(4, END)),
        max_classes=8192,
    )
    assert report.verdict in (Verdict.REFUTED_SIZE, Verdict.INCONCLUSIVE_BUDGET)


@criterion("A9 engine cross-check")
def test_a9_engines_agree():
    presentations = [
        sym_presentation(3), sym_presentation(4), sym_presentation(5),
        full_transf_presentation(3), full_transf_presentation(4),
        partial_transf_presentation(3), partial_transf_presentation(4),
        end_star_presentation(3), end_star_presentation(4), end_star_presentation(5),
        end_star_presentation(6),
        swend_star_presentation(3), swend_star_presentation(4), swend_star_presentation(5),
        wend_star_presentation(3), wend_star_presentation(4), wend_star_presentation(5),
    ]
    for pres in presentations:
        table = enumerate_quotient(pres, max_classes=122_048)
        assert isinstance(table, CongruenceTable)
        assert table.size <= 5000
        oracle = word_closure_size(pres)
        assert oracle == table.size, (pres, oracle, table.size)


@criterion("A9 engine cross-check at n = 6")
def test_a9_engines_agree_at_n6():
    for builder, size in ((swend_star_presentation, 3136), (wend_star_presentation, 7936)):
        pres = builder(6)
        table = enumerate_quotient(pres, max_classes=ENOUGH)
        assert isinstance(table, CongruenceTable) and table.size == size
        assert word_closure_size(pres) == size


@criterion("A10 determinism")
def test_a10_determinism(capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    _, enum1 = run("enumerate", "--n", "4", "--class", "wend")
    _, enum2 = run("enumerate", "--n", "4", "--class", "wend")
    assert enum1 == enum2 and enum1

    _, census1 = run("census", "--range", "1..5")
    _, census2 = run("census", "--range", "1..5")
    assert census1 == census2 and census1

    _, verify1 = run("verify", "--n", "4", "--class", "swend", "--json")
    _, verify2 = run("verify", "--n", "4", "--class", "swend", "--json")
    doc1, doc2 = json.loads(verify1), json.loads(verify2)
    doc1.pop("timings_ms")
    doc2.pop("timings_ms")
    assert doc1 == doc2
