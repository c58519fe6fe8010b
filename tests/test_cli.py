import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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

    @pytest.mark.parametrize(
        "payload,message",
        [
            ([], "expected a JSON object at the top level"),
            ({"n": 2, "blocks": [[0], [1]], "si": {}}, "field 'si' must be an object with a 'kind'"),
            ({"n": 2, "blocks": [[0], [1]], "si": {"kind": "explicit"}},
             "explicit si needs an 'elements' field"),
            ({"n": 2, "blocks": [[0], [1]], "si": {"kind": "generated"}},
             "generated si needs a 'generators' field"),
            ({"n": 2, "blocks": [[0], [1]], "si": {"kind": "cyclic"}}, "unknown si kind 'cyclic'"),
        ],
        ids=["top-level-array", "si-without-kind", "explicit-without-elements",
             "generated-without-generators", "unknown-kind"],
    )
    def test_malformed_payloads_are_parse_errors(self, write, payload, message):
        path = write("malformed.json", payload)
        with pytest.raises(ParseError, match=message):
            parse_instance(path)

    @pytest.mark.parametrize("generators", [[[0]], [[0, 1, 0]]], ids=["short", "long"])
    def test_a_generator_of_another_degree_is_an_invalid_si(self, write, generators):
        """The si is built on the partition's degree, so a generator of
        another length is refused there, before any instance is made."""
        path = write("degree.json", {"n": 2, "blocks": [[0], [1]],
                                     "si": {"kind": "generated", "generators": generators}})
        with pytest.raises(ValidationError, match="invalid si"):
            parse_instance(path)

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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --rel, --f and --g are required without --eggbox\n"

    def test_verify_small(self, capsys):
        assert run_command(["verify", "--max-n", "2", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out


class TestOutputs:
    def test_verify_reports_a_criterion_fault_as_failing_records(self, capsys, monkeypatch):
        """The L criterion spoiled to let every candidate pass: its builder's
        validation fails, and ``verify`` still prints every record, says so
        on standard error and exits 1."""
        monkeypatch.setattr(partsem.greens, "_blocks_fit", lambda bf, bg, alpha: True)
        assert run_command(["verify", "--max-n", "3", "--seed", "7", "--format", "machine"]) == 1
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 893
        failing = [r for r in records if r["verdict"] == "fail"]
        assert {r["suite"] for r in failing} == {
            "greens-mode-agreement", "greens-witness-replay", "txp-specialization"}
        assert failing[0]["counterexample"]["detail"].startswith("L (theorem): the left factor")
        assert captured.err.startswith("error: ")

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


class TestMismatchExits:
    """A spoiled criterion makes ``--mode both`` disagree with the oracle:
    the report is still written, ending with its mismatch line, and the
    command exits 1 with one fixed ``error:`` line."""

    @pytest.fixture(params=["check-semigroup", "greens"])
    def spoiled(self, request, inst_file, write, monkeypatch):
        if request.param == "check-semigroup":
            trivial = write("triv.json", {"n": 3, "blocks": [[0], [1], [2]], "si": {"kind": "full"}})
            monkeypatch.setattr(partsem.regularity, "si_is_regular", lambda si: False)
            return (["check-semigroup", trivial, "--property", "regular", "--mode", "both"],
                    "MODE MISMATCH: the structural criterion disagrees with the oracle")
        monkeypatch.setattr(partsem.greens, "_search", lambda *args: None)
        return (["greens", inst_file, "--rel", "L", "--mode", "both",
                 "--f", "2,3,0,0", "--g", "2,3,0,0"], "MODE MISMATCH")

    def test_text_report_ends_with_the_mismatch_line(self, spoiled, capsys):
        argv, last = spoiled
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == last
        assert captured.err == "error: oracle/theorem mismatch\n"

    def test_machine_report_says_mismatch(self, spoiled, capsys):
        argv, _ = spoiled
        assert run_command([*argv, "--format", "machine"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["mismatch"] is True
        assert set(payload["verdicts"].values()) == {True, False}
        assert captured.err == "error: oracle/theorem mismatch\n"


_EVERY_COMMAND = {
    "enumerate": ["enumerate", "{inst}"],
    "lift": ["lift", "{inst}", "--alpha", "1,0"],
    "check-element": ["check-element", "{inst}", "--f", "2,3,0,0"],
    "check-semigroup": ["check-semigroup", "{inst}", "--property", "unit-regular"],
    "greens-pair": ["greens", "{inst}", "--rel", "R", "--f", "0,0,2,2", "--g", "1,1,3,3"],
    "greens-eggbox": ["greens", "{inst}", "--eggbox"],
    "verify": ["verify", "--max-n", "2", "--seed", "7"],
}


class TestOutFile:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
    def test_out_file_holds_exactly_what_standard_output_gets(
            self, command, fmt, inst_file, tmp_path, capsys, monkeypatch):
        """``--out FILE`` writes the bytes standard output gets without it,
        and standard output stays empty.  ``verify``'s record times are
        pinned to 0 so that its two runs print the same."""
        monkeypatch.setattr(partsem.harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        argv = [arg.format(inst=inst_file) for arg in _EVERY_COMMAND[command]]
        argv += ["--format", fmt]
        assert run_command(argv) == 0
        printed = capsys.readouterr()
        assert printed.out and printed.err == ""
        target = tmp_path / "report.out"
        assert run_command([*argv, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == printed.out.encode()

    @pytest.mark.parametrize("command", ["enumerate", "check-semigroup", "greens-pair"])
    def test_out_into_a_missing_directory_is_an_input_error(
            self, command, inst_file, tmp_path, capsys):
        argv = [arg.format(inst=inst_file) for arg in _EVERY_COMMAND[command]]
        target = tmp_path / "no-such-dir" / "report.out"
        assert run_command([*argv, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not target.parent.exists()


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
