from __future__ import annotations

import numpy as np
import pytest

import oracle
import util
from paradoxlab.circuit import (
    Circuit,
    Gate,
    Instruction,
    RunResult,
    apply_instruction,
    basis_permutation,
    circuit_unitary,
    make_gate,
    run_density,
    sample,
    validate,
)
from paradoxlab.descriptor import locality_audit
from paradoxlab.errors import (
    BadParams,
    BadTargets,
    DimensionMismatch,
    InvalidCircuit,
    NonUnitary,
    NonUnitaryInstruction,
    NotAPermutation,
    TooManyQubits,
    UnknownKind,
)
from paradoxlab.qmath import DensityMatrix, maximally_mixed, partial_trace


SQ2 = 1 / np.sqrt(2)


class TestGates:
    def test_hadamard(self):
        np.testing.assert_allclose(make_gate("H").matrix, oracle.H, atol=1e-15)

    def test_rx_zero_is_identity(self):
        np.testing.assert_allclose(make_gate("RX", 0.0).matrix, np.eye(2), atol=1e-15)

    def test_rx_pi_is_minus_i_x(self):
        np.testing.assert_allclose(make_gate("RX", np.pi).matrix, -1j * oracle.X, atol=1e-12)

    def test_rx_matches_canonical_form(self):
        theta = 0.7
        got = make_gate("RX", theta).matrix
        np.testing.assert_allclose(got, oracle.rx(theta), atol=1e-15)

    def test_cnot_permutation(self):
        """Control is targets[0], carried in the low local bit."""
        want = np.zeros((4, 4))
        want[0, 0] = want[3, 1] = want[2, 2] = want[1, 3] = 1
        np.testing.assert_allclose(make_gate("CNOT").matrix, want, atol=1e-15)

    def test_swap_permutation(self):
        want = np.zeros((4, 4))
        want[0, 0] = want[2, 1] = want[1, 2] = want[3, 3] = 1
        np.testing.assert_allclose(make_gate("SWAP").matrix, want, atol=1e-15)

    def test_ch_applies_h_only_when_control_set(self):
        want = np.zeros((4, 4))
        want[0, 0] = want[2, 2] = 1
        want[1, 1] = want[1, 3] = want[3, 1] = SQ2
        want[3, 3] = -SQ2
        np.testing.assert_allclose(make_gate("CH").matrix, want, atol=1e-12)

    def test_ccx_flips_target_when_both_controls_set(self):
        m = make_gate("CCX").matrix
        want = np.eye(8)
        want[3, 3] = want[7, 7] = 0
        want[3, 7] = want[7, 3] = 1
        np.testing.assert_allclose(m, want, atol=1e-15)

    def test_all_gates_unitary(self):
        for kind in ("H", "X", "Y", "Z", "I", "CNOT", "SWAP", "CH", "CCX"):
            m = make_gate(kind).matrix
            np.testing.assert_allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)
        m = make_gate("RX", 1.3).matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            make_gate("T")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            make_gate("H", 0.3)
        with pytest.raises(BadParams):
            make_gate("RX")

    def test_non_unitary_gate_rejected_when_appended(self):
        # A NaN angle would make a NaN matrix; it is refused as a bad angle first.
        with pytest.raises(BadParams, match="theta nan is not a finite number"):
            Circuit(1).rx(float("nan"), 0)

    def test_non_unitary_matrix_rejected_when_built(self):
        with pytest.raises(NonUnitary):
            Gate("U", np.array([[1, 1], [0, 1]]))

    def test_non_power_of_two_matrix_rejected_when_built(self):
        with pytest.raises(DimensionMismatch):
            Gate("P3", np.eye(3)[:, [1, 2, 0]])

    def test_library_gate_is_shared_and_read_only(self):
        h = make_gate("H")
        assert make_gate("H") is h
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 0

    @pytest.mark.parametrize("builder, want", [("y", oracle.Y), ("i", oracle.I2)])
    def test_y_and_i_builders_apply_the_oracle_gate(self, builder, want):
        c = getattr(Circuit(2), builder)(1)
        (instr,) = c.instructions
        assert (instr.op, instr.gate.kind, instr.targets) == ("unitary", builder.upper(), (1,))
        np.testing.assert_array_equal(instr.gate.matrix, want)
        rho = oracle.random_density(4, np.random.default_rng(11))
        lifted = oracle.lift(want, [1], 2)
        got = run_density(c, DensityMatrix(rho)).final_state.mat
        np.testing.assert_allclose(got, lifted @ rho @ lifted.conj().T, atol=1e-12)


class TestValidate:
    def test_clean_circuit(self):
        c = Circuit(2, 1).h(0).cx(0, 1)
        assert validate(c, Instruction("measure", (1,), clbit=0)) == []
        c.measure(1, 0)
        assert [i.op for i in c.instructions] == ["unitary", "unitary", "measure"]

    def test_repeated_targets_flagged(self):
        with pytest.raises(BadTargets):
            Circuit(2).cx(0, 0)

    def test_out_of_range_flagged(self):
        with pytest.raises(BadTargets):
            Circuit(2).x(5)

    def test_clbit_range(self):
        with pytest.raises(BadTargets):
            Circuit(2, 1).measure(0, 3)

    def test_negative_clbit_count_rejected(self):
        with pytest.raises(InvalidCircuit, match="non-negative clbit count"):
            Circuit(1, -3)

    def test_raw_out_of_range_instruction_reported(self):
        raw = Circuit(3).x(2).instructions[0]
        assert validate(Circuit(2), raw) == ["target 2 outside register of 2 qubits"]
        with pytest.raises(BadTargets, match="^target 2 outside register of 2 qubits$"):
            Circuit(2, 0, [raw])

    def test_directly_built_instruction_checked(self):
        with pytest.raises(BadTargets):
            Instruction("unitary", (0, 0), gate=make_gate("CNOT"))

    @pytest.mark.parametrize(
        "args, kwargs, error, message",
        [
            (("bogus", (0,)), {}, UnknownKind, "no instruction op 'bogus'"),
            ((["measure"], (0,)), {"clbit": 0}, UnknownKind, r"no instruction op \['measure'\]"),
            (("unitary", (0,)), {}, BadParams, "unitary instruction has no gate"),
            # The circuit format holds unitaries and measurements only.
            (("reset", (0,)), {}, UnknownKind, "no instruction op 'reset'"),
            (("channel", (0,)), {}, UnknownKind, "no instruction op 'channel'"),
            (("measure", (0,)), {}, BadParams, "measure instruction has no clbit"),
        ],
    )
    def test_op_and_payload_checked_when_built(self, args, kwargs, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Instruction(*args, **kwargs)

    def test_duplicate_clbit_write_reported(self):
        c = Circuit(2, 1).h(0).measure(0, 0)
        with pytest.raises(BadTargets, match="^instruction 2: clbit 0 written twice$"):
            c.measure(1, 0)
        assert len(c.instructions) == 2

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: Circuit(2, 1).x(1.9), "target"),
            (lambda: Circuit(2, 1).measure(1.2, 0), "target"),
            (lambda: Circuit(2, 1).measure(1, 0.7), "clbit"),
            (lambda: Circuit(2).x(True), "target"),
            (lambda: Circuit(2.5), "n_qubits"),
            (lambda: Circuit(2, 0.5), "n_clbits"),
        ],
    )
    def test_non_integer_index_rejected(self, build, field):
        """Indices and counts follow the file format's rule instead of int()'s truncation."""
        with pytest.raises(BadParams, match=field):
            build()

    def test_numpy_and_whole_float_indices_accepted(self):
        c = Circuit(np.int64(2), np.int32(1)).x(np.int64(1)).h(1.0).h(np.uint8(1))
        c.measure(np.int16(1), np.int8(0))
        assert (c.n_qubits, c.n_clbits) == (2, 1)
        assert all(type(t) is int for i in c.instructions for t in i.targets)
        assert type(c.instructions[-1].clbit) is int
        assert run_density(c).distribution == pytest.approx({"1": 1.0}, abs=1e-12)

    def test_qubit_ceiling(self):
        with pytest.raises(TooManyQubits):
            Circuit(7)
        with pytest.raises(InvalidCircuit):
            Circuit(0)


class TestFixedRegister:
    def test_register_sizes_are_read_only(self):
        c = Circuit(2, 1)
        for name in ("n_qubits", "n_clbits"):
            with pytest.raises(AttributeError):
                setattr(c, name, 3)
        assert (c.n_qubits, c.n_clbits) == (2, 1)

    def test_instructions_cannot_be_appended_to(self):
        c = Circuit(1).h(0)
        assert isinstance(c.instructions, tuple)
        with pytest.raises(AttributeError):
            c.instructions.append(c.instructions[0])
        with pytest.raises(AttributeError):
            c.instructions = ()
        assert len(c.instructions) == 1

    def test_constructor_checks_each_instruction(self):
        first, second = Circuit(2, 1).measure(0, 0).x(1).instructions
        assert Circuit(2, 1, [first, second]).instructions == (first, second)
        with pytest.raises(BadTargets, match="^clbit 0 outside register of 0 bits$"):
            Circuit(2, 0, [second, first])
        with pytest.raises(BadTargets, match="^instruction 2: clbit 0 written twice$"):
            Circuit(2, 1, [first, second, first])

    def test_first_duplicate_named_before_a_later_bad_target(self):
        doc = {
            "n_qubits": 2,
            "n_clbits": 2,
            "instructions": [
                {"op": "measure", "target": 0, "clbit": 1},
                {"op": "measure", "target": 1, "clbit": 1},
                {"op": "measure", "target": 0, "clbit": 1},
                {"op": "unitary", "kind": "X", "targets": [5]},
            ],
        }
        with pytest.raises(BadTargets, match="^instruction 1: clbit 1 written twice$"):
            Circuit.from_dict(doc)

    def test_only_appends_are_checked(self, monkeypatch):
        measured = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).measure(1, 1)
        unitary = Circuit(2).h(0).cx(0, 1)
        seen = []
        monkeypatch.setattr("paradoxlab.circuit.validate", lambda c, i: seen.append(i) or [])
        run_density(measured)
        circuit_unitary(unitary)
        locality_audit(unitary)
        assert seen == []
        unitary.x(1)
        assert seen == [unitary.instructions[-1]]


class TestStatevector:
    """The state a unitary circuit makes of |0...0> is its unitary's first column."""

    def test_hadamard(self):
        psi = circuit_unitary(Circuit(1).h(0))[:, 0]
        np.testing.assert_allclose(psi, [SQ2, SQ2], atol=1e-12)

    def test_bell_pair(self):
        psi = circuit_unitary(Circuit(2).h(0).cx(0, 1))[:, 0]
        np.testing.assert_allclose(psi, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_rejects_measurement(self):
        c = Circuit(1, 1).h(0).measure(0, 0)
        with pytest.raises(NonUnitaryInstruction):
            circuit_unitary(c)

    def test_matches_oracle_on_random_circuits(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = util.random_unitary_circuit(n, 12, rng)
            got = circuit_unitary(c)[:, 0]
            want = np.zeros(2 ** n, dtype=complex)
            want[0] = 1
            for instr in c.instructions:
                want = oracle.lift(instr.gate.matrix, list(instr.targets), n) @ want
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestRunDensity:
    def test_measure_plus_state(self):
        r = run_density(Circuit(1, 1).h(0).measure(0, 0))
        assert r.distribution["0"] == pytest.approx(0.5, abs=1e-12)
        assert r.distribution["1"] == pytest.approx(0.5, abs=1e-12)

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(53)
        c = Circuit(3, 3, util.random_unitary_circuit(3, 10, rng).instructions)
        for q in range(3):
            c.measure(q, q)
        r = run_density(c)
        assert sum(r.distribution.values()) == pytest.approx(1.0, abs=1e-9)

    def test_bitstrings_render_clbit_zero_leftmost(self):
        c = Circuit(2, 2).x(0).measure(0, 0).measure(1, 1)
        r = run_density(c)
        assert r.distribution == {"10": 1.0}

    def test_reduced_states_of_bell(self):
        r = run_density(Circuit(2).h(0).cx(0, 1))
        for q in range(2):
            np.testing.assert_allclose(partial_trace(r.final_state, [q]).mat, np.eye(2) / 2, atol=1e-12)

    def test_backends_agree_on_random_circuits(self):
        """Terminal-measurement distribution equals squared amplitudes."""
        rng = np.random.default_rng(157)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            unitary = util.random_unitary_circuit(n, 15, rng)
            amps = circuit_unitary(unitary)[:, 0]
            c = Circuit(n, n, unitary.instructions)
            for q in range(n):
                c.measure(q, q)
            dist = run_density(c).distribution
            for idx in range(2 ** n):
                key = "".join(str((idx >> q) & 1) for q in range(n))
                assert dist.get(key, 0.0) == pytest.approx(
                    float(abs(amps[idx]) ** 2), abs=1e-9
                )

    def test_branch_dropped_by_its_joint_weight(self):
        """Branch 11 weighs 1e-14 * 0.05 = 5e-16, below BRANCH_FLOOR, though its own p is not."""
        c = Circuit(2, 2).rx(2 * np.arcsin(1e-7), 0).measure(0, 0)
        c.rx(2 * np.arcsin(np.sqrt(0.05)), 1).measure(1, 1)
        assert set(run_density(c).distribution) == {"00", "01", "10"}

    def test_initial_state_override(self):
        rho = DensityMatrix(np.array([[0.0, 0], [0, 1.0]]))
        c = Circuit(1).x(0)
        r = run_density(c, initial=rho)
        np.testing.assert_allclose(r.final_state.mat, [[1, 0], [0, 0]], atol=1e-12)

    def test_initial_state_of_another_size_rejected(self):
        with pytest.raises(BadTargets, match="^initial state has 2 qubits, circuit has 1$"):
            run_density(Circuit(1).x(0), initial=maximally_mixed(2))

    def test_measurement_is_not_a_plain_step(self):
        measure = Circuit(1, 1).measure(0, 0).instructions[0]
        with pytest.raises(NonUnitaryInstruction):
            apply_instruction(np.eye(2) / 2, measure)

    def test_invalid_circuit_rejected(self):
        first = Circuit(2, 1).measure(0, 0).instructions[0]
        c = Circuit(2, 1, [first])
        with pytest.raises(BadTargets, match="^instruction 1: clbit 0 written twice$"):
            c.measure(1, 0)
        assert run_density(c).distribution == {"0": 1.0}


class TestSample:
    def test_certain_outcome(self):
        r = run_density(Circuit(1, 1).measure(0, 0))
        assert sample(r, 100, seed=0) == {"0": 100}

    def test_same_seed_same_counts(self):
        r = run_density(Circuit(1, 1).h(0).measure(0, 0))
        a = sample(r, 5000, seed=42)
        b = sample(r, 5000, seed=42)
        assert a == b

    def test_counts_total_and_spread(self):
        r = run_density(Circuit(1, 1).h(0).measure(0, 0))
        counts = sample(r, 10000, seed=7)
        assert sum(counts.values()) == 10000
        # 3 sigma for a fair coin over 10^4 draws
        assert abs(counts["0"] - 5000) <= 150

    @pytest.mark.parametrize(
        "shots, seed, field",
        [(2.5, 0, "shots"), (True, 0, "shots"), (-1, 0, "shots"), ("1", 0, "shots"),
         (10, -1, "seed"), (10, 1.5, "seed"), (10, True, "seed"), (10, "1", "seed")],
    )
    def test_counts_and_seeds_are_non_negative_integers(self, shots, seed, field):
        """2.5 shots used to draw 2 and True 1; a bad seed raised numpy's own error."""
        r = run_density(Circuit(1, 1).h(0).measure(0, 0))
        with pytest.raises(BadParams, match=f"{field} must be a non-negative integer"):
            sample(r, shots, seed)


def rx_doc(theta):
    """One-qubit circuit document holding a single RX at ``theta``."""
    return {
        "n_qubits": 1,
        "instructions": [{"op": "unitary", "kind": "RX", "theta": theta, "targets": [0]}],
    }


class TestSerialization:
    def build(self):
        c = Circuit(3, 2)
        c.h(0).rx(0.3, 1).cx(0, 2).ch(2, 1).swap(0, 1).ccx(0, 1, 2)
        c.measure(0, 0).measure(2, 1)
        return c

    def test_round_trip_structure(self):
        c = self.build()
        back = Circuit.from_json(c.to_json())
        assert back.n_qubits == c.n_qubits and back.n_clbits == c.n_clbits
        assert len(back.instructions) == len(c.instructions)
        for a, b in zip(c.instructions, back.instructions):
            assert a.op == b.op
            assert a.targets == b.targets

    def test_round_trip_behavior(self):
        c = self.build()
        back = Circuit.from_json(c.to_json())
        a = run_density(c)
        b = run_density(back)
        assert np.max(np.abs(a.final_state.mat - b.final_state.mat)) <= 1e-12
        assert set(a.distribution) == set(b.distribution)

    def test_unitary_json_fields(self):
        import json

        doc = json.loads(Circuit(1).rx(0.3, 0).to_json())
        assert doc["instructions"][0] == {
            "op": "unitary",
            "kind": "RX",
            "theta": 0.3,
            "targets": [0],
        }


    @pytest.mark.parametrize(
        "field, doc",
        [
            ("n_qubits", {"n_qubits": 2.9}),
            ("n_clbits", {"n_qubits": 1, "n_clbits": 0.5}),
            (
                "target",
                {
                    "n_qubits": 2,
                    "n_clbits": 1,
                    "instructions": [{"op": "measure", "target": 1.9, "clbit": 0}],
                },
            ),
            (
                "clbit",
                {
                    "n_qubits": 1,
                    "n_clbits": 2,
                    "instructions": [{"op": "measure", "target": 0, "clbit": 1.5}],
                },
            ),
            (
                "target",
                {
                    "n_qubits": 2,
                    "instructions": [{"op": "unitary", "kind": "X", "targets": [1.5]}],
                },
            ),
            # Strings and booleans are not numbers, though int() converts them.
            ("n_qubits", {"n_qubits": "2"}),
            ("n_clbits", {"n_qubits": 1, "n_clbits": True}),
            (
                "target",
                {
                    "n_qubits": 2,
                    "instructions": [{"op": "unitary", "kind": "CNOT", "targets": "10"}],
                },
            ),
            (
                "target",
                {
                    "n_qubits": 2,
                    "instructions": [{"op": "unitary", "kind": "H", "targets": [True]}],
                },
            ),
            (
                "clbit",
                {
                    "n_qubits": 1,
                    "n_clbits": 1,
                    "instructions": [{"op": "measure", "target": 0, "clbit": False}],
                },
            ),
            # An angle is any finite number, but still not a boolean or a string.
            ("theta", rx_doc(True)),
            ("theta", rx_doc("0.3")),
            ("theta", rx_doc(float("nan"))),
        ],
    )
    def test_fractional_number_rejected(self, field, doc):
        with pytest.raises(BadParams, match=field):
            Circuit.from_dict(doc)

    def test_whole_float_accepted(self):
        doc = {
            "n_qubits": 2.0,
            "n_clbits": 1.0,
            "instructions": [{"op": "measure", "target": 1.0, "clbit": 0.0}],
        }
        c = Circuit.from_dict(doc)
        assert (c.n_qubits, c.n_clbits) == (2, 1)
        assert (c.instructions[0].targets, c.instructions[0].clbit) == ((1,), 0)

    def test_integer_angle_accepted(self):
        assert Circuit.from_dict(rx_doc(1)).instructions[0].gate.theta == 1.0

    @pytest.mark.parametrize(
        "step",
        [
            {"op": "channel", "dim": 2, "operators": [[[1, 0], [0, 0], [0, 0], [1, 0]]],
             "targets": [0]},
            {"op": "reset", "target": 0},
        ],
        ids=["channel", "reset"],
    )
    def test_non_unitary_op_refused_at_load(self, step):
        """The format holds unitaries and measurements only; other ops are unknown."""
        with pytest.raises(UnknownKind, match=f"^no instruction op '{step['op']}'$"):
            Circuit.from_dict({"n_qubits": 1, "instructions": [step]})


class TestCircuitUnitary:
    def test_composes_in_time_order(self):
        c = Circuit(1).h(0).z(0)
        u = circuit_unitary(c)
        np.testing.assert_allclose(u, oracle.Z @ oracle.H, atol=1e-12)

    def test_rejects_non_unitary_ops(self):
        with pytest.raises(NonUnitaryInstruction):
            circuit_unitary(Circuit(1, 1).measure(0, 0))


class TestBasisPermutation:
    def test_rows_apply_the_unitary_by_indexing(self):
        """A 3-cycle taking 1 to 2 to 3 to 1: not its own inverse, so rows read
        the wrong way round fail."""
        c = Circuit(2).cx(0, 1).cx(1, 0)
        src = basis_permutation(c)
        assert src.tolist() == [0, 3, 1, 2]
        assert not src.flags.writeable
        psi = np.random.default_rng(3).normal(size=(4, 2))
        assert np.array_equal(psi[src], circuit_unitary(c).real @ psi)

    @pytest.mark.parametrize("c", [Circuit(1).h(0), Circuit(1).z(0), Circuit(1).rx(np.pi, 0)],
                             ids=["mixing", "signed", "rounded"])
    def test_anything_else_refused(self, c):
        with pytest.raises(NotAPermutation, match="not a permutation of the basis states"):
            basis_permutation(c)
