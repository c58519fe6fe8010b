import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partsem
from partsem import ParseError, ValidationError
from partsem.cli import parse_instance, run_command, serialize_instance


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    return _write


@pytest.fixture
def inst_file(write):
    return write("inst.json", {"n": 4, "blocks": [[0, 1], [2, 3]], "si": {"kind": "full"}})


class TestParseInstance:
    def test_full_kind(self, inst_file):
        inst = parse_instance(inst_file)
        assert len(inst.si) == 4
        assert inst.partition.blocks == ((0, 1), (2, 3))

    def test_symmetric_kind_on_singletons(self, write):
        path = write("sym.json", {"n": 2, "blocks": [[0], [1]], "si": {"kind": "symmetric"}})
        assert len(parse_instance(path).si) == 2

    def test_explicit_closure_violation_names_the_pair(self, write):
        path = write("bad.json", {
            "n": 2, "blocks": [[0], [1]],
            "si": {"kind": "explicit", "elements": [[0, 0], [1, 0]]},
        })
        with pytest.raises(ValidationError, match=r"\[0,0\] \* \[1,0\] = \[1,1\]"):
            parse_instance(path)

    def test_generated_kind(self, write):
        path = write("gen.json", {
            "n": 2, "blocks": [[0], [1]],
            "si": {"kind": "generated", "generators": [[1, 0]]},
        })
        assert len(parse_instance(path).si) == 2

    def test_malformed_json_reports_position(self, write):
        path = write("broken.json", "{\"n\": 4,\n  noise\n}")
        with pytest.raises(ParseError, match=r":2:"):
            parse_instance(path)

    def test_missing_field(self, write):
        path = write("missing.json", {"n": 4, "blocks": [[0, 1], [2, 3]]})
        with pytest.raises(ParseError, match="si"):
            parse_instance(path)

    def test_bad_blocks(self, write):
        path = write("blocks.json", {"n": 3, "blocks": [[0, 1]], "si": {"kind": "full"}})
        with pytest.raises(ValidationError):
            parse_instance(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 1, "blocks": [[0.0]], "si": {"kind": "full"}},
            {"n": 2, "blocks": [[0], [1]], "si": {"kind": "explicit", "elements": [[0, 1.0]]}},
            {"n": 2, "blocks": [[0], [1]], "si": {"kind": "generated", "generators": [[1.0, 0]]}},
            {"n": True, "blocks": [[0]], "si": {"kind": "full"}},
            {"n": 2, "blocks": [[0], [True]], "si": {"kind": "full"}},
        ],
        ids=["float-block-point", "float-element", "float-generator", "bool-n", "bool-block-point"],
    )
    def test_non_integer_numbers_are_input_errors(self, write, capsys, payload):
        path = write("numbers.json", payload)
        with pytest.raises(ValidationError, match="must be"):
            parse_instance(path)
        assert run_command(["enumerate", path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_roundtrip(self, inst_file, write):
        inst = parse_instance(inst_file)
        path = write("roundtrip.json", serialize_instance(inst))
        assert parse_instance(path) == inst


class TestExitCodes:
    def test_enumerate_ok(self, inst_file, capsys):
        assert run_command(["enumerate", inst_file]) == 0
        out = capsys.readouterr().out
        assert "predicted size: 64" in out

    def test_missing_file_is_input_error(self, capsys):
        assert run_command(["enumerate", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_instance_is_input_error(self, write, capsys):
        path = write("bad.json", {
            "n": 2, "blocks": [[0], [1]],
            "si": {"kind": "explicit", "elements": [[0, 0], [1, 0]]},
        })
        assert run_command(["enumerate", path]) == 2

    def test_unknown_arguments(self, capsys):
        assert run_command(["enumerate"]) == 2
        assert run_command(["no-such-command"]) == 2

    def test_check_semigroup_both_modes(self, write, capsys):
        trivial = write("triv.json", {"n": 3, "blocks": [[0], [1], [2]], "si": {"kind": "full"}})
        assert run_command(["check-semigroup", trivial, "--property", "regular",
                            "--mode", "both"]) == 0
        out = capsys.readouterr().out
        assert "regular (oracle): True" in out
        assert "regular (theorem): True" in out

    def test_greens_trivial_pair(self, inst_file, capsys):
        code = run_command(["greens", inst_file, "--rel", "L",
                            "--f", "2,3,0,0", "--g", "2,3,0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "L-related (oracle): True" in out
        assert "L-related (theorem): True" in out

    def test_greens_capped_theorem_keeps_the_oracle_verdict(self, write, capsys):
        """``--cap`` bounds the theorem searches only: the J oracle reads one
        row and one column of the product table and is never capped."""
        path = write("j.json", {"n": 3, "blocks": [[0, 1], [2]], "si": {"kind": "full"}})
        code = run_command(["greens", path, "--rel", "J", "--f", "0,0,1", "--g", "0,0,1",
                            "--cap", "1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "J-related (oracle): True",
            "  factor fg1: [0,0,2]",
            "  factor fg2: [0,1,0]",
            "  factor gf1: [0,0,2]",
            "  factor gf2: [0,1,0]",
            "J-related (theorem): capped out, oracle verdict only",
        ]

    @pytest.mark.parametrize("extra", [["--rel", "J", "--f", "0,0,1", "--g", "0,0,1"],
                                       ["--eggbox"]], ids=["pair", "eggbox"])
    def test_greens_refuses_a_negative_cap(self, write, capsys, extra):
        """A negative ``--cap`` is an input error: exit 2, one ``error:``
        line and nothing on standard output, with or without a pair."""
        path = write("j.json", {"n": 3, "blocks": [[0, 1], [2]], "si": {"kind": "full"}})
        assert run_command(["greens", path, *extra, "--cap", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap must be non-negative, got -5\n"
        assert run_command(["greens", path, *extra, "--cap", "0"]) == 0

    def test_enumerate_refuses_a_negative_cap(self, inst_file, capsys):
        """A negative ``--cap`` is an input error in the words ``greens``
        uses, not an instance over the cap."""
        assert run_command(["enumerate", inst_file, "--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --cap must be non-negative, got -1\n"

    def test_greens_requires_pair_without_eggbox(self, inst_file, capsys):
        assert run_command(["greens", inst_file]) == 2

    def test_verify_small(self, capsys):
        assert run_command(["verify", "--max-n", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out


class TestOutputs:
    def test_check_element_report(self, inst_file, capsys):
        assert run_command(["check-element", inst_file, "--f", "2,3,0,0",
                            "--format", "machine"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["regular"] is True
        assert row["inner_inverse"] == [2, 2, 0, 1]
        assert row["regular_witnesses"] == [[1, 0]]
        assert row["unit_regular"] is True
        assert row["unit_inverse"] == [2, 3, 0, 1]
        assert row["idempotent"] is False

    def test_lift_output(self, inst_file, capsys):
        assert run_command(["lift", inst_file, "--alpha", "1,0"]) == 0
        assert "[2,2,0,0]" in capsys.readouterr().out

    def test_machine_enumerate(self, inst_file, capsys):
        assert run_command(["enumerate", inst_file, "--format", "machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = json.loads(lines[0])
        assert header == {"predicted_size": 64, "count": 64}
        first = json.loads(lines[1])
        assert first["images"] == [0, 0, 0, 0]

    def test_out_file(self, inst_file, tmp_path, capsys):
        target = tmp_path / "members.txt"
        assert run_command(["enumerate", inst_file, "--out", str(target)]) == 0
        assert "predicted size: 64" in target.read_text()
        assert capsys.readouterr().out == ""

    def test_eggbox_text(self, write, capsys):
        path = write("t3.json", {"n": 3, "blocks": [[0, 1, 2]], "si": {"kind": "full"}})
        assert run_command(["greens", path, "--eggbox"]) == 0
        out = capsys.readouterr().out
        assert "D-class 0" in out

    def test_verify_machine_records(self, capsys):
        assert run_command(["verify", "--max-n", "1", "--seed", "3",
                            "--format", "machine"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert all(p["verdict"] == "pass" for p in payloads)
        suites = {p["suite"] for p in payloads}
        assert "element-counting" in suites

    def test_verify_single_suite(self, capsys):
        assert run_command(["verify", "--max-n", "2", "--seed", "7",
                            "--suite", "element-counting"]) == 0
        out = capsys.readouterr().out
        assert "element-counting" in out

    def test_greens_machine_witness(self, inst_file, capsys):
        code = run_command(["greens", inst_file, "--rel", "R",
                            "--f", "0,0,2,2", "--g", "1,1,3,3",
                            "--format", "machine"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"oracle": True, "theorem": True}
        assert payload["mismatch"] is False
        assert "witness_oracle" in payload


def test_parse_map_errors(inst_file, capsys):
    assert run_command(["check-element", inst_file, "--f", "2,3,0"]) == 2
    assert run_command(["check-element", inst_file, "--f", "a,b,c,d"]) == 2


def test_lift_basepoints_must_be_integers(inst_file, capsys):
    assert run_command(["lift", inst_file, "--alpha", "0,1", "--basepoints", "x"]) == 2
    assert capsys.readouterr().err == "error: --basepoints: expected comma-separated integers\n"
    assert run_command(["lift", inst_file, "--alpha", "0,1", "--basepoints", "1,3"]) == 0
    assert "[1,1,3,3]" in capsys.readouterr().out


def test_lift_refuses_an_alpha_outside_the_index_semigroup(write, capsys):
    """The lift of a character outside S(I) is no member, so it is an input
    error: exit 2 and one ``error:`` line, nothing on standard output."""
    path = write("id.json", {"n": 4, "blocks": [[0, 1], [2, 3]],
                             "si": {"kind": "explicit", "elements": [[0, 1]]}})
    assert run_command(["lift", path, "--alpha", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --alpha: [1,0] is not in the index semigroup\n"
    assert run_command(["lift", path, "--alpha", "0,1", "--format", "machine"]) == 0
    assert json.loads(capsys.readouterr().out) == {"alpha": [0, 1], "lift": [0, 0, 2, 2]}


def test_python_dash_m_partsem_runs_verify_cleanly():
    """``python -m partsem`` runs the command line without the warning that
    running the already-imported ``partsem.cli`` module as a script gives."""
    env = dict(os.environ, PYTHONPATH=str(Path(partsem.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "partsem", "verify", "--max-n", "1", "--seed", "7",
         "--format", "machine"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert [json.loads(line)["verdict"] for line in done.stdout.splitlines()]
