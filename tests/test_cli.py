from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import oracle
from paradoxlab import circuit, cli
from paradoxlab.circuit import Circuit, circuit_unitary
from paradoxlab.cli import execute, main, parse
from paradoxlab.ctc import distinguisher_unitary
from paradoxlab.errors import NoConvergence, UsageError
from paradoxlab.qmath import save_unitary

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_json(argv):
    text, code = execute(parse(argv))
    assert code == 0
    return json.loads(text)


class TestParse:
    def test_epr_defaults(self):
        inv = parse(["epr", "--theta", "0", "--phi", "0"])
        assert inv.command == "epr"
        assert inv.theta == 0.0 and inv.phi == 0.0
        assert inv.format == "table" and inv.seed == 0 and inv.shots == 0

    def test_epr_sweep(self):
        inv = parse(["epr", "sweep", "--theta-steps", "3", "--phi-steps", "5"])
        assert inv.command == "epr-sweep"
        assert inv.theta_steps == 3 and inv.phi_steps == 5

    def test_ctc_subcommands(self):
        assert parse(["ctc", "distinguish", "--input", "-"]).command == "ctc-distinguish"
        assert parse(["ctc", "bb84", "--input", "+"]).command == "ctc-bb84"
        assert parse(["ctc", "grandfather"]).command == "ctc-grandfather"

    def test_unknown_flag_named(self):
        with pytest.raises(UsageError) as err:
            parse(["epr", "--thta", "0"])
        assert "--thta" in str(err.value)

    def test_missing_angles_named(self):
        with pytest.raises(UsageError) as err:
            parse(["epr", "--theta", "1"])
        assert "--phi" in str(err.value)

    def test_bad_label_rejected(self):
        with pytest.raises(UsageError):
            parse(["ctc", "bb84", "--input", "2"])
        with pytest.raises(UsageError):
            parse(["ctc", "distinguish", "--input", "+"])

    def test_negative_angle_accepted(self):
        inv = parse(["epr", "--theta", "-0.5", "--phi", "0.5"])
        assert inv.theta == -0.5

    def test_audit_requires_circuit(self):
        with pytest.raises(UsageError) as err:
            parse(["audit-locality"])
        assert "--circuit" in str(err.value)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["szilard", "--cycles", "0"], "--cycles"),
            (["szilard", "--shots", "-1"], "--shots"),
            (["ctc", "solve", "--unitary", "u.json", "--tol", "nan"], "--tol"),
            (["epr", "sweep", "--theta-steps", "x"], "--theta-steps"),
            (["szilard", "--cycles", "1001"], "--cycles"),
            (["epr", "--theta", "nan", "--phi", "0"], "--theta"),
            (["epr", "--theta", "0", "--phi", "inf"], "--phi"),
            (["epr", "--theta", "-inf", "--phi", "0"], "--theta"),
        ],
    )
    def test_bad_number_names_flag(self, argv, flag):
        with pytest.raises(UsageError) as err:
            parse(argv)
        assert flag in str(err.value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "sweep", "--theta-steps", "257", "--phi-steps", "256"],
            ["epr", "sweep", "--theta-steps", "1", "--phi-steps", "65537"],
        ],
    )
    def test_sweep_grid_cap_names_both_flags(self, argv):
        with pytest.raises(UsageError) as err:
            parse(argv)
        assert "--theta-steps" in str(err.value) and "--phi-steps" in str(err.value)

    def test_largest_sweep_grid_accepted(self):
        inv = parse(["epr", "sweep", "--theta-steps", "256", "--phi-steps", "256"])
        assert inv.theta_steps * inv.phi_steps == 65536

    @pytest.mark.parametrize("command", [["szilard"], ["epr", "--theta", "0", "--phi", "0"]])
    def test_shot_ceiling(self, command):
        assert parse(command + ["--shots", "10000000"]).shots == 10_000_000
        with pytest.raises(UsageError) as err:
            parse(command + ["--shots", "10000001"])
        assert "--shots" in str(err.value)

    def test_largest_engine_request_is_both_caps(self, capsys):
        inv = parse(["szilard", "--cycles", "1000", "--shots", "10000000"])
        assert (inv.cycles, inv.shots) == (cli.MAX_CYCLES, cli.MAX_SHOTS) == (1000, 10_000_000)
        # One step past either cap, with the other at its largest, is refused.
        assert main(["szilard", "--cycles", "1001", "--shots", "10000000"]) == 2
        assert main(["szilard", "--cycles", "1000", "--shots", "10000001"]) == 2
        assert capsys.readouterr().out == ""

    def test_parses_share_no_state(self):
        first = parse(["szilard", "--cycles", "3", "--skip-reset", "--shots", "10"])
        second = parse(["szilard"])
        assert first.skip_reset is True and first.shots == 10
        assert vars(second) == {
            "command": "szilard", "cycles": 1, "skip_reset": False,
            "format": "table", "shots": 0, "seed": 0,
        }
        assert parse(["ctc", "bb84", "--prompt"]).input is None

    def test_szilard_flags(self):
        inv = parse(["szilard", "--cycles", "3", "--skip-reset", "--shots", "10"])
        assert inv.command == "szilard"
        assert inv.cycles == 3 and inv.skip_reset is True
        assert inv.shots == 10


class TestEprCommand:
    def test_json_matches_schema(self):
        payload = run_json(["epr", "--theta", "0", "--phi", "0", "--format", "json"])
        jsonschema.validate(payload, load_schema("epr"))
        assert payload["p_check_one"] == 0.0
        assert payload["correlation"] == 1.0
        assert payload["dependence"]["bob_memory"]["theta"] is False
        assert payload["dependence"]["check"]["theta"] is True

    def test_json_nine_significant_digits(self):
        text, _ = execute(
            parse(["epr", "--theta", "0.3", "--phi", "0.2", "--format", "json"])
        )
        expected = (1 - math.cos(0.5)) / 2
        assert f"{expected:.9g}" in text

    def test_counts_with_shots(self):
        payload = run_json(
            ["epr", "--theta", "0.7", "--phi", "0.1", "--shots", "100",
             "--seed", "5", "--format", "json"]
        )
        jsonschema.validate(payload, load_schema("epr"))
        assert sum(payload["counts"].values()) == 100
        assert payload["shots"] == 100 and payload["seed"] == 5

    def test_shots_sample_the_reports_own_run(self, monkeypatch):
        """One density simulation per `epr --shots`, counted in every module that binds it."""
        calls = []
        original = circuit.run_density

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("paradoxlab") and getattr(module, "run_density", None) is original:
                monkeypatch.setattr(module, "run_density", counted)
        execute(parse(["epr", "--theta", "0.3", "--phi", "0.2", "--shots", "10"]))
        assert len(calls) == 1

    @pytest.mark.parametrize("theta, phi", [("1e16", "0.2"), ("0.3", "1e17"), ("1e30", "1e17")])
    def test_large_angles_keep_dependence_flags(self, theta, phi):
        """A probe offset that rounds away against a huge angle must not lose its flag."""
        doc = run_json(["epr", "--theta", theta, "--phi", phi, "--format", "json"])
        small = run_json(["epr", "--theta", "0.3", "--phi", "0.2", "--format", "json"])
        assert doc["dependence"] == small["dependence"]

    def test_table_and_csv_rows_match(self):
        table, _ = execute(parse(["epr", "--theta", "0", "--phi", "0"]))
        csv_text, _ = execute(
            parse(["epr", "--theta", "0", "--phi", "0", "--format", "csv"])
        )
        table_rows = table.strip().splitlines()
        csv_rows = csv_text.strip().splitlines()
        assert len(table_rows) == len(csv_rows)  # both include one header line

    def test_six_digit_table(self):
        text, _ = execute(parse(["epr", "--theta", "0.3", "--phi", "0.2"]))
        expected = (1 - math.cos(0.5)) / 2
        assert f"{expected:.6g}" in text


class TestSweepCommand:
    def test_rows_and_schema(self):
        payload = run_json(
            ["epr", "sweep", "--theta-steps", "3", "--phi-steps", "3",
             "--format", "json"]
        )
        jsonschema.validate(payload, load_schema("epr-sweep"))
        assert len(payload["rows"]) == 9
        for row in payload["rows"]:
            expected = (1 - math.cos(row["theta"] + row["phi"])) / 2
            assert row["p_check_one"] == pytest.approx(expected, abs=1e-7)

    def test_csv_row_count(self):
        text, _ = execute(
            parse(["epr", "sweep", "--theta-steps", "2", "--phi-steps", "2",
                   "--format", "csv"])
        )
        lines = text.strip().splitlines()
        assert lines[0] == "theta,phi,p_check_one"
        assert len(lines) == 5


class TestSzilardCommand:
    def test_json_matches_schema(self):
        payload = run_json(
            ["szilard", "--cycles", "2", "--skip-reset", "--format", "json"]
        )
        jsonschema.validate(payload, load_schema("szilard"))
        assert payload[0]["expected_work"] == 1.0
        assert payload[1]["expected_work"] == 0.0
        assert payload[0]["sampled_work"] is None

    def test_sampled_ledger(self):
        payload = run_json(
            ["szilard", "--cycles", "2", "--shots", "50", "--seed", "3",
             "--format", "json"]
        )
        assert payload[0]["sampled_work"] == 50
        assert isinstance(payload[1]["sampled_work"], int)

    def test_table_has_cycle_rows(self):
        text, _ = execute(parse(["szilard", "--cycles", "3"]))
        assert len(text.strip().splitlines()) == 4  # header + 3 cycles


class TestCtcCommands:
    def test_distinguish_json(self):
        payload = run_json(["ctc", "distinguish", "--input", "0", "--format", "json"])
        jsonschema.validate(payload, load_schema("ctc"))
        assert payload["distribution"] == {"0": 1.0}
        assert payload["fixed_point"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert payload["residual"] <= 1e-10

    def test_distinguish_minus(self):
        payload = run_json(["ctc", "distinguish", "--input", "-", "--format", "json"])
        assert payload["distribution"] == {"1": 1.0}

    def test_bb84_table_of_outputs(self):
        for label, key in [("0", "00"), ("1", "10"), ("+", "01"), ("-", "11")]:
            payload = run_json(["ctc", "bb84", "--input", label, "--format", "json"])
            jsonschema.validate(payload, load_schema("ctc"))
            assert payload["distribution"] == {key: 1.0}

    def test_grandfather(self):
        payload = run_json(["ctc", "grandfather", "--format", "json"])
        jsonschema.validate(payload, load_schema("ctc"))
        assert payload["distribution"] == {}
        assert payload["fixed_point"] == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]

    def test_solve_loop_only_unitary(self, tmp_path):
        path = tmp_path / "x.json"
        save_unitary(str(path), np.array([[0, 1], [1, 0]], dtype=complex))
        payload = run_json(["ctc", "solve", "--unitary", str(path), "--format", "json"])
        jsonschema.validate(payload, load_schema("ctc"))
        assert payload["distribution"] == {}
        assert payload["fixed_point"][0] == [0.5, 0.0]

    def test_solve_with_system_state(self, tmp_path):
        path = tmp_path / "dist.json"
        save_unitary(str(path), distinguisher_unitary())
        payload = run_json(
            ["ctc", "solve", "--unitary", str(path), "--system-state", "-",
             "--format", "json"]
        )
        assert payload["distribution"] == {"1": 1.0}

    def test_solve_missing_file(self, tmp_path):
        with pytest.raises(UsageError):
            execute(parse(["ctc", "solve", "--unitary", str(tmp_path / "no.json")]))

    def test_prompt_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("-\n"))
        payload = run_json(["ctc", "distinguish", "--prompt", "--format", "json"])
        assert payload["distribution"] == {"1": 1.0}

    def test_prompt_bad_label(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("nope\n"))
        with pytest.raises(UsageError):
            execute(parse(["ctc", "bb84", "--prompt"]))

    def test_input_and_prompt_exclusive(self):
        with pytest.raises(UsageError):
            parse(["ctc", "bb84", "--input", "0", "--prompt"])


class TestAuditCommand:
    def make_circuit_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(Circuit(2).h(0).cx(0, 1).rx(0.4, 1).to_json())
        return str(path)

    def test_json_matches_schema(self, tmp_path):
        payload = run_json(
            ["audit-locality", "--circuit", self.make_circuit_file(tmp_path),
             "--format", "json"]
        )
        jsonschema.validate(payload, load_schema("audit"))
        assert payload["overall"] is True
        assert len(payload["steps"]) == 3

    def test_json_shape(self, tmp_path):
        path = tmp_path / "bell.json"
        path.write_text(Circuit(2).h(0).cx(0, 1).to_json())
        doc = run_json(["audit-locality", "--circuit", str(path), "--format", "json"])
        assert doc["overall"] is True
        assert [s["instr"] for s in doc["steps"]] == [0, 1]
        assert all(s["pass"] is True for s in doc["steps"])
        assert all(isinstance(s["max_offsupport_delta"], float) for s in doc["steps"])

    def test_table_rows(self, tmp_path):
        text, code = execute(
            parse(["audit-locality", "--circuit", self.make_circuit_file(tmp_path)])
        )
        assert code == 0
        assert len(text.strip().splitlines()) == 5  # header + 3 steps + overall

    def test_rejects_non_unitary_circuit(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(Circuit(1, 1).h(0).measure(0, 0).to_json())
        with pytest.raises(UsageError):
            execute(parse(["audit-locality", "--circuit", str(path)]))

    def test_oversized_circuit_refused_before_audit(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "long.json"
        c = Circuit(1)
        for _ in range(1001):
            c.h(0)
        path.write_text(c.to_json())

        def never(*_args, **_kwargs):
            raise AssertionError("no instruction may be built, and the audit must not start")

        monkeypatch.setattr(cli, "locality_audit", never)
        monkeypatch.setattr(Circuit, "from_dict", never)
        monkeypatch.setattr(circuit, "Instruction", never)
        assert main(["audit-locality", "--circuit", str(path)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("usage error: --circuit:")
        assert "1001" in out.err and "1000" in out.err
        assert out.out == ""


class TestDeterminism:
    COMMANDS = [
        ["epr", "--theta", "0.3", "--phi", "-0.2", "--shots", "64", "--seed", "11"],
        ["epr", "sweep", "--theta-steps", "4", "--phi-steps", "3", "--format", "csv"],
        ["szilard", "--cycles", "3", "--skip-reset", "--shots", "128", "--seed", "7",
         "--format", "json"],
        ["ctc", "distinguish", "--input", "-", "--format", "json"],
        ["ctc", "bb84", "--input", "+", "--format", "table"],
        ["ctc", "grandfather", "--format", "csv"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_byte_identical_reruns(self, argv):
        first = execute(parse(argv))
        second = execute(parse(argv))
        assert first == second

    def test_solve_and_audit_reruns(self, tmp_path):
        upath = tmp_path / "u.json"
        save_unitary(str(upath), distinguisher_unitary())
        argv = ["ctc", "solve", "--unitary", str(upath), "--system-state", "0"]
        assert execute(parse(argv)) == execute(parse(argv))
        cpath = tmp_path / "c.json"
        cpath.write_text(Circuit(3).h(0).ccx(0, 1, 2).to_json())
        argv = ["audit-locality", "--circuit", str(cpath), "--format", "json"]
        assert execute(parse(argv)) == execute(parse(argv))


class TestMain:
    def test_success_exit_zero(self, capsys):
        assert main(["epr", "--theta", "0", "--phi", "0"]) == 0
        out = capsys.readouterr()
        assert "p_check_one" in out.out
        assert out.err == ""

    def test_usage_exit_two(self, capsys):
        assert main(["epr", "--thta", "0"]) == 2
        err = capsys.readouterr().err
        assert "--thta" in err

    def test_missing_subcommand_exit_two(self, capsys):
        assert main([]) == 2

    def test_no_convergence_exit_one(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NoConvergence("synthetic failure")

        monkeypatch.setattr("paradoxlab.ctc.solve_fixed_point", explode)
        assert main(["ctc", "grandfather"]) == 1
        assert "synthetic failure" in capsys.readouterr().err

    def test_weak_five_loop_qubit_solve_exits_zero(self, tmp_path, capsys):
        """A 0.03 partial SWAP on 5 loop qubits, once a NoConvergence stall."""
        path = str(tmp_path / "stall.json")
        save_unitary(path, oracle.partial_swap(5, 0.03))
        assert main(["ctc", "solve", "--unitary", path, "--system-state", "0"]) == 0
        out = capsys.readouterr()
        assert out.out.splitlines()[2].split() == ["residual", "0"]
        assert out.err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "sweep", "--theta-steps", "100000", "--phi-steps", "100000"],
            ["szilard", "--shots", "1000000000000"],
            ["szilard", "--cycles", "1", "--shots", "100000000000000000000000"],
            ["epr", "--theta", "0.3", "--phi", "0.2", "--shots", "100000000000000000000000"],
            ["szilard", "--cycles", "1000000000"],
        ],
        ids=[
            "huge-grid",
            "szilard-shots",
            "szilard-huge-shots",
            "epr-huge-shots",
            "szilard-cycles",
        ],
    )
    def test_oversized_request_fails_fast(self, argv, capsys):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("usage error:")
        assert out.out == ""

    def test_stale_engine_samples_the_most_shots(self, capsys):
        # Sampling holds no per-shot state, so no cycles x shots product is capped.
        assert main(["szilard", "--cycles", "40", "--shots", "10000000", "--skip-reset"]) == 0
        out = capsys.readouterr()
        assert len(out.out.splitlines()) == 1 + 40
        assert out.err == ""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("audit-locality --circuit", "{}"),
            ("audit-locality --circuit", "[1, 2]"),
            (
                "audit-locality --circuit",
                '{"n_qubits": 1, "instructions": [{"op": "unitary", "kind": "H"}]}',
            ),
            (
                "audit-locality --circuit",
                '{"n_qubits": 1, "instructions": '
                '[{"op": "unitary", "kind": "RX", "theta": [1], "targets": [0]}]}',
            ),
            ("ctc solve --unitary", '{"dim": 2, "entries": [1, 2, 3, 4]}'),
            (
                "audit-locality --circuit",
                '{"n_qubits": 2.9, "instructions": '
                '[{"op": "unitary", "kind": "H", "targets": [1]}]}',
            ),
            (
                "audit-locality --circuit",
                '{"n_qubits": 2, "instructions": '
                '[{"op": "unitary", "kind": "H", "targets": [1.9]}]}',
            ),
            (
                "ctc solve --unitary",
                '{"dim": 2.5, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
            ),
            (
                "audit-locality --circuit",
                '{"n_qubits": "2", "instructions": '
                '[{"op": "unitary", "kind": "CNOT", "targets": "10"}, '
                '{"op": "unitary", "kind": "H", "targets": [true]}]}',
            ),
            (
                "ctc solve --unitary",
                '{"dim": "2", "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
            ),
            ("ctc solve --unitary", '{"dim": true, "entries": [[1, 0]]}'),
            (
                "audit-locality --circuit",
                '{"n_qubits": 1, "instructions": '
                '[{"op": "unitary", "kind": "RX", "theta": true, "targets": [0]}]}',
            ),
            (
                "audit-locality --circuit",
                '{"n_qubits": 1, "instructions": '
                '[{"op": "unitary", "kind": "RX", "theta": "0.3", "targets": [0]}]}',
            ),
            (
                "ctc solve --unitary",
                '{"dim": 2, "entries": '
                '[[true, false], [false, false], [false, false], [true, false]]}',
            ),
            (
                "ctc solve --unitary",
                '{"dim": 3, "entries": [[0, 0], [0, 0], [1, 0], [1, 0], [0, 0], [0, 0], '
                '[0, 0], [1, 0], [0, 0]]}',
            ),
            ("ctc solve --unitary", "[" * 100_000),
            ("audit-locality --circuit", "[" * 100_000),
            (
                "ctc solve --unitary",
                '{"dim": 2, "entries": [[1e200, 0], [0, 0], [0, 0], [1, 0]]}',
            ),
            (
                "audit-locality --circuit",
                '{"n_qubits": 1, "instructions": [{"op": "channel", "dim": 2, '
                '"operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]], "targets": [0]}]}',
            ),
        ],
        ids=[
            "empty-object",
            "list",
            "no-targets",
            "list-angle",
            "scalar-entries",
            "fractional-qubit-count",
            "fractional-target",
            "fractional-dim",
            "string-counts",
            "string-dim",
            "boolean-dim",
            "boolean-angle",
            "string-angle",
            "boolean-entries",
            "three-dim-permutation",
            "deeply-nested-unitary",
            "deeply-nested-circuit",
            "overflowing-unitary-entry",
            "channel-op",
        ],
    )
    def test_malformed_input_file_is_usage_error(self, command, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(command.split() + [str(path)]) == 2
        err = capsys.readouterr().err
        if text.startswith("[["):  # nested too deeply to parse: one fixed line
            assert err == f"usage error: {command.split()[-1]}: file nests too deeply to parse\n"
        else:
            assert err.startswith("usage error:")


# Exact output of thirteen invocations; a moved digit or iteration count fails
# here even when a rerun still matches itself. The two 40-cycle `szilard`
# ledgers were recorded from the engine that simulated every cycle; the
# sampled one's totals from the set-bit count chain. "{unitary}" and
# "{weak_unitary}" stand for saved partial SWAPs: exp(-ia SWAP) between loop
# qubit 0 and system qubit 2, two loop qubits in all, at the angles below.
# The weak one mixes too slowly for plain iteration. "{circuit}" stands for the
# README's audit circuit, Circuit(3).h(0).ccx(0, 1, 2).rx(0.4, 2).
PSWAP_ANGLES = {"{unitary}": 0.3, "{weak_unitary}": 0.03}

GOLDEN = {
    "grandfather": (
        ["ctc", "grandfather"],
        """\
field              value
residual           0
iterations         1
fixed_point[0][0]  0.5 0
fixed_point[0][1]  0 0
fixed_point[1][0]  0 0
fixed_point[1][1]  0.5 0
""",
    ),
    "distinguish": (
        ["ctc", "distinguish", "--input", "-"],
        """\
field              value
p[1]               1
residual           0
iterations         3
fixed_point[0][0]  0 0
fixed_point[0][1]  0 0
fixed_point[1][0]  0 0
fixed_point[1][1]  1 0
""",
    ),
    "bb84": (
        ["ctc", "bb84", "--input", "+"],
        """\
field              value
p[01]              1
residual           0
iterations         3
fixed_point[0][0]  0 0
fixed_point[0][1]  0 0
fixed_point[0][2]  0 0
fixed_point[0][3]  0 0
fixed_point[1][0]  0 0
fixed_point[1][1]  1 0
fixed_point[1][2]  0 0
fixed_point[1][3]  0 0
fixed_point[2][0]  0 0
fixed_point[2][1]  0 0
fixed_point[2][2]  0 0
fixed_point[2][3]  0 0
fixed_point[3][0]  0 0
fixed_point[3][1]  0 0
fixed_point[3][2]  0 0
fixed_point[3][3]  0 0
""",
    ),
    "solve": (
        ["ctc", "solve", "--unitary", "{unitary}", "--system-state", "1"],
        """\
field              value
p[1]               1
residual           0
iterations         2
fixed_point[0][0]  0 0
fixed_point[0][1]  0 0
fixed_point[0][2]  0 0
fixed_point[0][3]  0 0
fixed_point[1][0]  0 0
fixed_point[1][1]  0.5 0
fixed_point[1][2]  0 0
fixed_point[1][3]  0 0
fixed_point[2][0]  0 0
fixed_point[2][1]  0 0
fixed_point[2][2]  0 0
fixed_point[2][3]  0 0
fixed_point[3][0]  0 0
fixed_point[3][1]  0 0
fixed_point[3][2]  0 0
fixed_point[3][3]  0.5 0
""",
    ),
    "weak_solve": (
        ["ctc", "solve", "--unitary", "{weak_unitary}", "--system-state", "0"],
        """\
field              value
p[0]               1
residual           0
iterations         2
fixed_point[0][0]  0.5 0
fixed_point[0][1]  0 0
fixed_point[0][2]  0 0
fixed_point[0][3]  0 0
fixed_point[1][0]  0 0
fixed_point[1][1]  0 0
fixed_point[1][2]  0 0
fixed_point[1][3]  0 0
fixed_point[2][0]  0 0
fixed_point[2][1]  0 0
fixed_point[2][2]  0.5 0
fixed_point[2][3]  0 0
fixed_point[3][0]  0 0
fixed_point[3][1]  0 0
fixed_point[3][2]  0 0
fixed_point[3][3]  0 0
""",
    ),
    "szilard": (
        ["szilard", "--cycles", "3", "--skip-reset"],
        """\
cycle  expected_work  sampled_work  memory_entropy_pre_reset  memory_entropy_post  mutual_info_particle_memory
1      1                            1                         1                    1
2      0                            1                         1                    0
3      0                            1                         1                    0
""",
    ),
    "szilard_sampled_csv": (
        ["szilard", "--cycles", "40", "--skip-reset", "--shots", "1000", "--seed", "11",
         "--format", "csv"],
        """\
cycle,expected_work,sampled_work,memory_entropy_pre_reset,memory_entropy_post,mutual_info_particle_memory
1,1,1000,1,1,1
2,0,20,1,1,0
3,0,70,1,1,0
4,0,52,1,1,0
5,0,44,1,1,0
6,0,16,1,1,0
7,0,46,1,1,0
8,0,18,1,1,0
9,0,4,1,1,0
10,0,-56,1,1,0
11,0,-74,1,1,0
12,0,-10,1,1,0
13,0,56,1,1,0
14,0,-2,1,1,0
15,0,8,1,1,0
16,0,-62,1,1,0
17,0,4,1,1,0
18,0,30,1,1,0
19,0,18,1,1,0
20,0,-4,1,1,0
21,0,32,1,1,0
22,0,32,1,1,0
23,0,10,1,1,0
24,0,2,1,1,0
25,0,0,1,1,0
26,0,18,1,1,0
27,0,-70,1,1,0
28,0,2,1,1,0
29,0,-12,1,1,0
30,0,-24,1,1,0
31,0,-34,1,1,0
32,0,8,1,1,0
33,0,20,1,1,0
34,0,0,1,1,0
35,0,8,1,1,0
36,0,-4,1,1,0
37,0,-20,1,1,0
38,0,-18,1,1,0
39,0,62,1,1,0
40,0,2,1,1,0
""",
    ),
    "szilard_json": (
        ["szilard", "--cycles", "40", "--format", "json"],
        """\
[
  {
    "cycle": 1,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 2,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 3,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 4,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 5,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 6,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 7,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 8,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 9,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 10,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 11,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 12,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 13,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 14,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 15,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 16,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 17,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 18,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 19,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 20,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 21,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 22,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 23,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 24,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 25,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 26,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 27,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 28,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 29,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 30,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 31,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 32,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 33,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 34,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 35,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 36,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 37,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 38,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 39,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  },
  {
    "cycle": 40,
    "expected_work": 1.0,
    "sampled_work": null,
    "memory_entropy_pre_reset": 1.0,
    "memory_entropy_post": 0.0,
    "mutual_info_particle_memory": 1.0
  }
]
""",
    ),
    "epr": (
        ["epr", "--theta", "0.3", "--phi", "0.2"],
        """\
field                          value
theta                          0.3
phi                            0.2
p_check_one                    0.0612087
correlation                    0.877583
dependence.alice_memory.theta  true
dependence.alice_memory.phi    false
dependence.bob_memory.theta    false
dependence.bob_memory.phi      true
dependence.check.theta         true
dependence.check.phi           true
shots                          0
seed                           0
""",
    ),
    "epr_shots_json": (
        ["epr", "--theta", "0.3", "--phi", "0.2", "--shots", "500", "--seed", "7",
         "--format", "json"],
        """\
{
  "theta": 0.3,
  "phi": 0.2,
  "p_check_one": 0.0612087191,
  "correlation": 0.877582562,
  "dependence": {
    "alice_memory": {
      "theta": true,
      "phi": false
    },
    "bob_memory": {
      "theta": false,
      "phi": true
    },
    "check": {
      "theta": true,
      "phi": true
    }
  },
  "shots": 500,
  "seed": 7,
  "counts": {
    "0": 463,
    "1": 37
  }
}
""",
    ),
    "epr_sweep": (
        ["epr", "sweep", "--theta-steps", "3", "--phi-steps", "3"],
        """\
theta     phi       p_check_one
-3.14159  -3.14159  0
-3.14159  0         1
-3.14159  3.14159   0
0         -3.14159  1
0         0         0
0         3.14159   1
3.14159   -3.14159  0
3.14159   0         1
3.14159   3.14159   0
""",
    ),
    "audit": (
        ["audit-locality", "--circuit", "{circuit}"],
        """\
instr    max_offsupport_delta  pass
0        0                     true
1        0                     true
2        0                     true
overall                        true
""",
    ),
    "audit_json": (
        ["audit-locality", "--circuit", "{circuit}", "--format", "json"],
        """\
{
  "steps": [
    {
      "instr": 0,
      "max_offsupport_delta": 0.0,
      "pass": true
    },
    {
      "instr": 1,
      "max_offsupport_delta": 0.0,
      "pass": true
    },
    {
      "instr": 2,
      "max_offsupport_delta": 0.0,
      "pass": true
    }
  ],
  "overall": true
}
""",
    ),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_table_output(name, tmp_path):
    argv, expected = GOLDEN[name]
    swap = circuit_unitary(Circuit(3).swap(0, 2))
    files = {}
    for key, angle in PSWAP_ANGLES.items():
        files[key] = str(tmp_path / f"pswap_{angle}.json")
        save_unitary(files[key], math.cos(angle) * np.eye(8) - 1j * math.sin(angle) * swap)
    files["{circuit}"] = str(tmp_path / "c.json")
    Path(files["{circuit}"]).write_text(Circuit(3).h(0).ccx(0, 1, 2).rx(0.4, 2).to_json())
    argv = [files.get(a, a) for a in argv]
    assert execute(parse(argv)) == (expected, 0)


# sha256 of the default 17 x 17 `epr sweep` output in each format, recorded
# from the one-circuit-per-point implementation that the batched sweep replaced.
SWEEP_17_SHA256 = {
    "table": "b45bec601f58d6f25c614e8578445b03bf333e7f3903f9f1571edbf9857f29fd",
    "csv": "568cb425ff704d4fa0a1460d96d3ab097369b1e82652dc1597bdfb17b866735b",
    "json": "9e96acb5d280503c81f486e5d01a84fa940cb86c00f42f3bfc879cf2cc25734c",
}


@pytest.mark.parametrize("fmt", SWEEP_17_SHA256)
def test_golden_sweep_bytes(fmt):
    argv = ["epr", "sweep", "--theta-steps", "17", "--phi-steps", "17", "--format", fmt]
    text, code = execute(parse(argv))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_17_SHA256[fmt]


# sha256 of two `szilard` ledgers in each format, recorded from the engine
# that walked one hand-assembled cycle circuit instruction by instruction;
# the sampled ledger's totals from the set-bit count chain.
SZILARD_40_SHA256 = {
    ("exact", "table"): "4cef9d97669b173ca9d05efff4c2b107cd82ffe39f25714be50337109f384644",
    ("exact", "csv"): "d59b5fdb9816bf151a72c62bc9022ea2834de69b464d5f31bff2e15d69ab8058",
    ("exact", "json"): "2e62e3b0655528e0a3bf1144a545e2c81732c986487dce21a90f43a3ed60ba5b",
    ("sampled", "table"): "19e709fa41234bafce3707ba852e1b7cc3007eb7f2276d10feb5eee49ef5daab",
    ("sampled", "csv"): "8c82026a8629db34e88a7250c6985ba0acddc4fd834901885d91beca3d19a706",
    ("sampled", "json"): "6b05ba96c47643d4dbd35ea2167651af3734ea202ad3add119554c4843115e2b",
}
SZILARD_40_ARGV = {
    "exact": ["szilard", "--cycles", "40"],
    "sampled": ["szilard", "--cycles", "40", "--skip-reset", "--shots", "5000", "--seed", "7"],
}


@pytest.mark.parametrize("mode, fmt", SZILARD_40_SHA256)
def test_golden_engine_bytes(mode, fmt):
    text, code = execute(parse(SZILARD_40_ARGV[mode] + ["--format", fmt]))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == SZILARD_40_SHA256[mode, fmt]
