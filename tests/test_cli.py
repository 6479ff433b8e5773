import json

from starendo import presentation_from_json, sym_presentation
from starendo.cli import main


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

    def test_over_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9", "--class", "end")
        assert code == 3
        assert "budget" in err

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
        assert lines[0] == "n,class,formula,enumerated,match"
        assert len(lines) == 1 + 12
        assert all(line.endswith(",true") for line in lines[1:])
        assert "5,aut,24,24,true" in lines

    def test_single_degree(self, capsys):
        code, out, _ = run(capsys, "census", "--range", "1..1")
        assert code == 0
        body = out.splitlines()[1:]
        assert body == ["1,end,1,1,true", "1,wend,1,1,true"]

    def test_rows_skip_classes_outside_formula_range(self, capsys):
        # swend starts at n=2 and aut at n=3, where their closed forms apply
        code, out, _ = run(capsys, "census", "--range", "1..3")
        assert code == 0
        assert out.splitlines()[1:] == [
            "1,end,1,1,true",
            "1,wend,1,1,true",
            "2,end,2,2,true",
            "2,swend,4,4,true",
            "2,wend,4,4,true",
            "3,end,6,6,true",
            "3,swend,9,9,true",
            "3,wend,17,17,true",
            "3,aut,2,2,true",
        ]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "census", "--range", "3..4")
        _, out2, _ = run(capsys, "census", "--range", "3..4")
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, _ = run(capsys, "census", "--range", "5..3")
        assert code == 2


class TestRank:
    def test_known_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "3", "--class", "wend", "--max-k", "3")
        assert code == 0
        assert out.strip() == "rank: 3"

    def test_unknown_when_max_k_too_small(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "4", "--class", "end", "--max-k", "2",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["rank"] is None
        assert doc["results"]["verdict"] == "unknown-no-subset"

    def test_time_budget_exhaustion(self, capsys):
        code, out, _ = run(capsys, "rank", "--n", "4", "--class", "wend", "--max-k", "5",
                           "--budget-seconds", "0.000001", "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["results"]["verdict"] == "unknown-budget"


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
