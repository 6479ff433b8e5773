import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from starendo import (
    TransformationMonoid,
    cli,
    graphs,
    monoid,
    presentation_from_json,
    sym_presentation,
)
from starendo.cli import main
from starendo.monoid import DEFAULT_TIME_BUDGET_S


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_dump_on_stdout(self, capsys):
        code, out, err = run(capsys, "enumerate", "--n", "3", "--class", "end")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree 3 size 6"
        assert len(lines) == 7

    def test_degenerate_sizes(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--class", "wend")
        assert code == 0 and out.splitlines()[0] == "degree 2 size 4"
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--class", "end")
        assert code == 0 and out.splitlines()[0] == "degree 1 size 1"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--class", "end", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["size"] == 6
        assert doc["parameters"] == {"n": 3, "class": "end"}
        assert "timings_ms" in doc

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "dump.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--class", "aut",
                           "--output", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == "degree 3 size 2"

    def test_json_with_output_file(self, capsys, tmp_path):
        path = tmp_path / "dump.txt"
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--class", "end", "--json",
                           "--output", str(path))
        assert code == 0
        results = json.loads(out)["results"]
        assert results["output"] == str(path)
        assert "dump_lines" not in results
        assert path.read_text().splitlines()[0] == "degree 3 size 6"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "dump.txt"
        code, out, err = run(capsys, "enumerate", "--n", "3", "--class", "end",
                             "--output", str(path))
        assert code == 2
        assert out == ""
        assert f"cannot write {path}" in err

    def test_over_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9", "--class", "end")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_out_of_memory_is_a_budget_exit(self, capsys, monkeypatch, json_flag):
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "enumerate_class", exhaust)
        code, out, err = run(capsys, "enumerate", "--n", "8", "--class", "wend", *json_flag)
        assert code == 3 and out == ""
        assert err == "budget exceeded: enumerate ran out of memory\n"

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--n", "4", "--class", "swend")
        _, out2, _ = run(capsys, "enumerate", "--n", "4", "--class", "swend")
        assert out1 == out2


class TestVerify:
    def test_verified(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--class", "end")
        assert code == 0
        assert "verdict: verified" in out
        assert "quotient_size: 30" in out

    def test_text_output_is_four_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--class", "wend")
        assert code == 0
        assert out == (
            "verdict: verified\nquotient_size: 88\ntarget_size: 88\n"
            "relations_satisfied: True\n"
        )

    @pytest.mark.parametrize("cls,size", [("end", 260), ("swend", 265), ("wend", 689)])
    def test_text_output_of_every_star_class(self, capsys, cls, size):
        code, out, _ = run(capsys, "verify", "--n", "5", "--class", cls)
        assert code == 0
        assert out == (
            f"verdict: verified\nquotient_size: {size}\ntarget_size: {size}\n"
            "relations_satisfied: True\n"
        )

    def test_json_counters(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--class", "end", "--json")
        assert code == 0
        counters = json.loads(out)["results"]["counters"]
        assert set(counters) == {"classes_defined", "peak_live", "coincidences"}
        assert counters["classes_defined"] - counters["coincidences"] == 30
        assert counters["peak_live"] >= 30

    def test_json_echoes_class_budget(self, capsys):
        _, out, _ = run(capsys, "verify", "--n", "3", "--class", "end", "--json")
        assert json.loads(out)["parameters"] == {"n": 3, "class": "end",
                                                 "budget_classes": 10**6}
        _, out, _ = run(capsys, "verify", "--n", "3", "--class", "end", "--json",
                        "--budget-classes", "5000")
        assert json.loads(out)["parameters"]["budget_classes"] == 5000

    def test_budget_exit_code_and_counters(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--class", "end",
                           "--budget-classes", "100", "--json")
        assert code == 3
        results = json.loads(out)["results"]
        assert results["verdict"] == "inconclusive-budget"
        assert results["quotient_size"] == "exceeded"
        counters = results["counters"]
        assert counters["classes_defined"] - counters["coincidences"] == results["classes_reached"]
        assert counters["peak_live"] >= results["classes_reached"] > 100

    def test_swend_n3(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--class", "swend", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["verdict"] == "verified"
        assert doc["results"]["quotient_size"] == 9

    def test_usage_errors(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "2", "--class", "end")
        assert code == 2
        code, _, _ = run(capsys, "verify", "--n", "4", "--class", "aut")
        assert code == 2

    def test_json_deterministic_modulo_timings(self, capsys):
        _, out1, _ = run(capsys, "verify", "--n", "3", "--class", "end", "--json")
        _, out2, _ = run(capsys, "verify", "--n", "3", "--class", "end", "--json")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        doc1.pop("timings_ms")
        doc2.pop("timings_ms")
        assert doc1 == doc2

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_class_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "verify", "--n", "4", "--class", "end",
                             "--budget-classes", budget)
        assert code == 2
        assert out == "" and "--budget-classes" in err

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_class_budget_rejected_before_anything_is_built(self, capsys, monkeypatch, budget):
        def refuse(*args):
            raise AssertionError("the presentation or the class scan was built")

        monkeypatch.setattr(cli, "enumerate_class", refuse)
        monkeypatch.setitem(cli.PRESENTATION_BUILDERS, "end", refuse)
        code, out, err = run(capsys, "verify", "--n", "8", "--class", "end",
                             "--budget-classes", budget)
        assert code == 2 and out == ""
        assert "--budget-classes" in err

    def test_class_budget_exhaustion_is_inconclusive(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--class", "end", "--json",
                           "--budget-classes", "10")
        assert code == 3
        doc = json.loads(out)
        assert doc["results"]["verdict"] == "inconclusive-budget"
        assert doc["results"]["quotient_size"] == "exceeded"


class TestCensus:
    def test_rows_and_exit(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "3..5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,class,formula,enumerated,counted,match"
        assert len(lines) == 1 + 12
        assert all(line.endswith(",true") for line in lines[1:])
        assert "5,aut,24,24,24,true" in lines

    def test_single_degree(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "1..1")
        assert code == 0
        body = out.splitlines()[1:]
        assert body == ["1,end,1,1,1,true", "1,wend,1,1,1,true"]

    def test_rows_skip_classes_outside_formula_range(self, capsys):
        # swend starts at n=2 and aut at n=3, where their closed forms apply
        code, out, _ = run(capsys, "census", "--range", "1..3")
        assert code == 0
        assert out.splitlines()[1:] == [
            "1,end,1,1,1,true",
            "1,wend,1,1,1,true",
            "2,end,2,2,2,true",
            "2,swend,4,4,4,true",
            "2,wend,4,4,4,true",
            "3,end,6,6,6,true",
            "3,swend,9,9,9,true",
            "3,wend,17,17,17,true",
            "3,aut,2,2,2,true",
        ]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "census", "--range", "3..4")
        _, out2, _ = run(capsys, "census", "--range", "3..4")
        assert out1 == out2

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "3..4", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == {"range": "3..4"}
        assert doc["results"]["all_match"] is True
        assert "output" not in doc["results"]
        rows = doc["results"]["rows"]
        assert [(r["n"], r["class"]) for r in rows] == [
            (n, c) for n in (3, 4) for c in ("end", "swend", "wend", "aut")
        ]
        assert rows[2] == {"n": 3, "class": "wend", "formula": 17, "enumerated": 17,
                           "counted": 17, "match": True}

    def test_output_file_in_both_modes(self, capsys, tmp_path):
        text_path, json_path = tmp_path / "text.csv", tmp_path / "json.csv"
        code, out, _ = run(capsys, "census", "--range", "3..4", "--output", str(text_path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "census", "--range", "3..4", "--json",
                           "--output", str(json_path))
        assert code == 0
        assert json.loads(out)["results"]["output"] == str(json_path)
        assert json_path.read_text() == text_path.read_text()
        assert text_path.read_text().startswith("n,class,formula,enumerated,counted,match\n")

    def test_bad_range(self, capsys):
        for text in ("5..3", "3..x", "x", "0..2"):
            code, out, _ = run(capsys, "census", "--range", text)
            assert code == 2 and out == "", text

    def test_one_degree_without_dots(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "5")
        assert code == 0
        _, dotted, _ = run(capsys, "census", "--range", "5..5")
        assert out == dotted
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["5"] * 4

    def test_csv_unchanged(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "1..7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "06e226e21471626365caf7d5b5a8ebbde0aca006d5ac43b0620fe392ca3473bf"
        )
        # without the counted column, the CSV is byte for byte the one that
        # read every size off a built monoid
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][4] == "counted"
        buf = io.StringIO()
        csv.writer(buf).writerows(row[:4] + row[5:] for row in rows)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
            "2cc10d9ceb9762c67b6759cd2d2a7591ad3270a64109e087cb14a923d27d8c33"
        )

    def test_counts_past_the_scan_limit(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "9..10")
        assert code == 0
        assert out.splitlines()[1:] == [
            "9,end,16777224,,16777224,true",
            "9,swend,16777233,,16777233,true",
            "9,wend,43048769,,43048769,true",
            "9,aut,40320,,40320,true",
            "10,end,387420498,,387420498,true",
            "10,swend,387420508,,387420508,true",
            "10,wend,1000004608,,1000004608,true",
            "10,aut,362880,,362880,true",
        ]
        code, out, _ = run(capsys, "census", "--range", "9..9", "--json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [r["enumerated"] for r in rows] == [None] * 4
        assert [r["counted"] for r in rows] == [r["formula"] for r in rows]

    def test_builds_no_row_tuples(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError("census built the scan's row tuples")

        monkeypatch.setattr(graphs, "_class_census", refuse)
        code, out, _ = run(capsys, "census", "--range", "1..7")
        assert code == 0
        assert len(out.splitlines()) == 1 + 25

    def test_builds_no_monoid(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("census built a monoid")

        monkeypatch.setattr(TransformationMonoid, "__init__", refuse)
        monkeypatch.setattr(TransformationMonoid, "from_elements", classmethod(refuse))
        monkeypatch.setattr(monoid, "_closure", refuse)
        code, out, _ = run(capsys, "census", "--range", "1..6")
        assert code == 0
        assert len(out.splitlines()) == 1 + 21

    def test_mismatch_is_refuted(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "count_class", lambda n, cls: 7)
        code, out, _ = run(capsys, "census", "--range", "3..3")
        assert code == 1
        assert out.splitlines()[1:] == [
            "3,end,6,6,7,false",
            "3,swend,9,9,7,false",
            "3,wend,17,17,7,false",
            "3,aut,2,2,7,false",
        ]


class TestRank:
    def test_known_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "3", "--class", "wend", "--max-k", "3")
        assert code == 0
        assert out.strip() == "rank: 3"

    def test_unknown_when_max_k_too_small(self, capsys):
        # rank(End(S_4)) is 4: no 2-subset generates, which is a proved lower bound
        code, out, _ = run(capsys, "rank", "--n", "4", "--class", "end", "--max-k", "2",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["rank"] is None
        assert doc["results"]["verdict"] == "lower-bound"
        assert doc["results"]["lower_bound"] == 3
        code, out, _ = run(capsys, "rank", "--n", "4", "--class", "end", "--max-k", "2")
        assert code == 0
        assert out == "rank: > 2 (lower-bound)\n"

    def test_lower_bound_swend_n5(self, capsys):
        # rank(SWEnd(S_5)) is 5, so max_k = 4 ends on a proof, not on the clock
        code, out, _ = run(capsys, "rank", "--n", "5", "--class", "swend", "--max-k", "4")
        assert code == 0
        assert out == "rank: > 4 (lower-bound)\n"
        code, out, _ = run(capsys, "rank", "--n", "5", "--class", "swend", "--max-k", "4",
                           "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["rank"] is None
        assert doc["results"]["lower_bound"] == 5
        assert doc["results"]["verdict"] == "lower-bound"

    def test_exact_rank_json(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "3", "--class", "wend", "--max-k", "3",
                           "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["results"]["verdict"] == "exact"
        assert doc["results"]["rank"] == doc["results"]["lower_bound"] == 3

    def test_time_budget_exhaustion(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "4", "--class", "wend", "--max-k", "5",
                           "--budget-seconds", "0.000001", "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["results"]["verdict"] == "unknown-budget"
        assert doc["results"]["rank"] is None and doc["results"]["lower_bound"] is None
        # the report names the budget that stopped the search
        assert doc["parameters"] == {"n": 4, "class": "wend", "max_k": 5,
                                     "budget_seconds": 0.000001}

    def test_json_echoes_default_time_budget(self, capsys):
        _, out, _ = run(capsys, "rank", "--n", "3", "--class", "wend", "--max-k", "3",
                        "--json")
        assert json.loads(out)["parameters"]["budget_seconds"] == DEFAULT_TIME_BUDGET_S
        _, out, _ = run(capsys, "rank", "--n", "3", "--class", "wend", "--max-k", "3",
                        "--json", "--budget-seconds", "inf")
        assert json.loads(out)["parameters"]["budget_seconds"] is None


    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_nan_or_negative_time_budget_is_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "rank", "--n", "3", "--class", "end", "--max-k", "2",
                             "--budget-seconds", budget)
        assert code == 2
        assert out == "" and "time budget" in err

    def test_max_k_that_is_not_an_integer_is_usage_error(self, capsys):
        for text in ("abc", "2.5", ""):
            code, out, _ = run(capsys, "rank", "--n", "3", "--class", "end", "--max-k", text)
            assert code == 2 and out == "", text

    def test_negative_max_k_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "3", "--class", "end", "--max-k", "-4")
        assert code == 2
        assert out == ""

    def test_negative_max_k_rejected_before_the_class_scan(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the class scan ran")

        monkeypatch.setattr(cli, "enumerate_class", refuse)
        code, out, err = run(capsys, "rank", "--n", "8", "--class", "end", "--max-k", "-1")
        assert code == 2 and out == ""
        assert "--max-k" in err

    @pytest.mark.parametrize("budget", ["nan", "-1"])
    def test_bad_time_budget_rejected_before_the_class_scan(self, capsys, monkeypatch, budget):
        def refuse(*args):
            raise AssertionError("the class scan ran")

        monkeypatch.setattr(cli, "enumerate_class", refuse)
        code, out, err = run(capsys, "rank", "--n", "8", "--class", "end", "--max-k", "2",
                             "--budget-seconds", budget)
        assert code == 2 and out == ""
        assert "--budget-seconds" in err and "time budget" in err


class TestOtherCommands:
    def test_dump_presentation_parses_back(self, capsys):
        code, out, _ = run(capsys, "dump-presentation", "--which", "sym", "--n", "3")
        assert code == 0
        assert presentation_from_json(out) == sym_presentation(3)

    def test_check_generators(self, capsys):
        code, out, _ = run(capsys, "check-generators", "--n", "4", "--class", "swend")
        assert code == 0
        assert out.strip() == "generates: true"

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_class_is_usage_error(self, capsys):
        assert main(["enumerate", "--n", "3", "--class", "nope"]) == 2

    def test_check_generators_json(self, capsys):
        code, out, _ = run(capsys, "check-generators", "--n", "3", "--class", "end",
                           "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["generates"] is True
        assert results["target_size"] == 6
        assert list(results["generators"]) == ["a0", "z"]

    def test_generators_that_do_not_generate_answer_false(self, capsys, monkeypatch):
        # without z nothing moves the hub, so END_4 is not generated
        named = graphs._named_generators
        monkeypatch.setattr(graphs, "_named_generators",
                            lambda n, cls: [g for g in named(n, cls) if g[0] != "z"])
        code, out, err = run(capsys, "check-generators", "--n", "4", "--class", "end")
        assert (code, out, err) == (1, "generates: false\n", "")
        code, out, _ = run(capsys, "check-generators", "--n", "4", "--class", "end", "--json")
        assert code == 1
        assert json.loads(out)["results"] == {
            "degree": 4,
            "class": "end",
            "generators": {"a0": "0,2,1,3", "b0": "0,2,3,1", "e0": "0,1,1,3"},
            "generates": False,
            "target_size": 30,
        }

    def test_budget_scan_flag_is_gone(self, capsys):
        assert main(["enumerate", "--n", "3", "--class", "end", "--budget-scan", "9"]) == 2
        assert main(["census", "--range", "3..3", "--budget-scan", "8"]) == 2


JSON_COMMANDS = [
    ["enumerate", "--n", "3", "--class", "end"],
    ["verify", "--n", "3", "--class", "end"],
    ["census", "--range", "3..3"],
    ["rank", "--n", "3", "--class", "end", "--max-k", "2"],
    ["check-generators", "--n", "3", "--class", "end"],
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: argv[0])
def test_json_timings_keyed_by_subcommand(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["command", "version", "parameters", "results", "timings_ms"]
    assert doc["command"] == "starendo " + " ".join(argv + ["--json"])
    assert list(doc["timings_ms"]) == [argv[0]]


# One command of each kind: a usage error, --version, a JSON report, the census
# CSV, a proved lower bound and a generation check.
SEQUENCE = [
    ["verify", "--n", "4", "--class", "aut"],
    ["--version"],
    ["verify", "--n", "3", "--class", "wend", "--json"],
    ["census", "--range", "3..4"],
    ["rank", "--n", "4", "--class", "end", "--max-k", "2"],
    ["check-generators", "--n", "4", "--class", "swend"],
]


def comparable(out):
    """Stdout with the JSON report's timings dropped."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out
    doc.pop("timings_ms")
    return doc


def test_one_parser_per_process(capsys, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    codes = [main(argv) for argv in SEQUENCE + SEQUENCE]
    capsys.readouterr()
    assert codes == [2, 0, 0, 0, 0, 0] * 2
    assert len(used) == 2 * len(SEQUENCE)
    assert all(parser is used[0] for parser in used)


def test_in_process_sequence_matches_separate_processes(capsys):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    alone = []
    for argv in SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "starendo.cli", *argv], env=env,
                              capture_output=True, timeout=120)
        alone.append((proc.returncode, comparable(proc.stdout.decode())))
    assert [code for code, _ in alone] == [2, 0, 0, 0, 0, 0]
    for order in (SEQUENCE, SEQUENCE[::-1]):
        for argv in order:
            code, out, _ = run(capsys, *argv)
            assert (code, comparable(out)) == alone[SEQUENCE.index(argv)], argv
