from __future__ import annotations

import numpy as np
import pytest

import oracle
import util
from paradoxlab.circuit import Circuit, run_density, run_statevector
from paradoxlab.descriptor import (
    DescriptorFrame,
    advance,
    dependence_probe,
    expectation,
    init_frame,
    locality_audit,
)
from paradoxlab.errors import (
    BadParams,
    InvalidCircuit,
    NonUnitaryInstruction,
    ShapeMismatch,
    TooManyQubits,
)
from paradoxlab.qmath import StateVector, basis_state, partial_trace


def advance_all(frame: DescriptorFrame, circuit: Circuit) -> DescriptorFrame:
    for instr in circuit.instructions:
        frame = advance(frame, instr)
    return frame


class TestInitFrame:
    def test_single_qubit_triple(self):
        f = init_frame(1)
        for got, want in zip(f.triples[0], (oracle.X, oracle.Y, oracle.Z)):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_embedding_uses_little_endian_order(self):
        f = init_frame(2)
        np.testing.assert_allclose(f.triples[0][0], np.kron(oracle.I2, oracle.X), atol=1e-15)
        np.testing.assert_allclose(f.triples[1][0], np.kron(oracle.X, oracle.I2), atol=1e-15)

    def test_matrices_hermitian_involutory_traceless(self):
        f = init_frame(3)
        for triple in f.triples:
            for m in triple:
                np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
                np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-12)
                assert abs(np.trace(m)) <= 1e-12

    def test_size_limits(self):
        with pytest.raises(TooManyQubits):
            init_frame(7)
        with pytest.raises(BadParams):
            init_frame(0)


class TestAdvance:
    def test_hadamard_swaps_x_and_z(self):
        f = advance_all(init_frame(1), Circuit(1).h(0))
        np.testing.assert_allclose(f.triples[0][2], oracle.X, atol=1e-12)
        np.testing.assert_allclose(f.triples[0][0], oracle.Z, atol=1e-12)
        np.testing.assert_allclose(f.triples[0][1], -oracle.Y, atol=1e-12)

    def test_rx_rotates_z_toward_y(self):
        theta = 0.9
        f = advance_all(init_frame(1), Circuit(1).rx(theta, 0))
        want = np.cos(theta) * oracle.Z + np.sin(theta) * oracle.Y
        np.testing.assert_allclose(f.triples[0][2], want, atol=1e-12)

    def test_cnot_spreads_target_z_to_control(self):
        f = advance_all(init_frame(2), Circuit(2).cx(0, 1))
        np.testing.assert_allclose(f.triples[1][2], np.kron(oracle.Z, oracle.Z), atol=1e-12)
        # control X picks up the target
        np.testing.assert_allclose(f.triples[0][0], np.kron(oracle.X, oracle.X), atol=1e-12)

    def test_off_support_qubit_untouched(self):
        f0 = init_frame(2)
        f1 = advance_all(f0, Circuit(2).h(1).rx(0.4, 1))
        for a, b in zip(f0.triples[0], f1.triples[0]):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_step_counter(self):
        f = advance_all(init_frame(1), Circuit(1).h(0).z(0))
        assert f.t == 2

    def test_rejects_non_unitary_instruction(self):
        f = init_frame(1)
        instr = Circuit(1).reset(0).instructions[0]
        with pytest.raises(NonUnitaryInstruction):
            advance(f, instr)

    def test_invariants_survive_random_circuits(self):
        rng = np.random.default_rng(307)
        paulis = (oracle.X, oracle.Y, oracle.Z)
        for _ in range(6):
            n = int(rng.integers(1, 7))
            c = util.random_unitary_circuit(n, 10, rng)
            f = advance_all(init_frame(n), c)
            eye = np.eye(2 ** n)
            prefix = eye.astype(complex)
            for instr in c.instructions:
                prefix = oracle.lift(instr.gate.matrix, list(instr.targets), n) @ prefix
            for q, triple in enumerate(f.triples):
                for m, sigma in zip(triple, paulis):
                    want = prefix.conj().T @ oracle.lift(sigma, [q], n) @ prefix
                    np.testing.assert_allclose(m, want, atol=1e-10)
                    np.testing.assert_allclose(m, m.conj().T, atol=1e-9)
                    np.testing.assert_allclose(m @ m, eye, atol=1e-9)
                    assert abs(np.trace(m)) <= 1e-9

    def test_pauli_algebra_preserved(self):
        """sigma_x sigma_y = i sigma_z in every frame."""
        rng = np.random.default_rng(311)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            c = util.random_unitary_circuit(n, 8, rng)
            f = advance_all(init_frame(n), c)
            for x, y, z in f.triples:
                np.testing.assert_allclose(x @ y, 1j * z, atol=1e-9)


class TestLocalityAudit:
    def test_empty_circuit(self):
        report = locality_audit(Circuit(2))
        assert report.overall is True and list(report.steps) == []

    def test_random_circuits_pass(self):
        rng = np.random.default_rng(401)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            c = util.random_unitary_circuit(n, 12, rng)
            report = locality_audit(c)
            assert report.overall is True
            for step in report.steps:
                assert step.max_offsupport_delta <= 1e-10

    def test_rejects_non_unitary_circuit(self):
        with pytest.raises(NonUnitaryInstruction):
            locality_audit(Circuit(1).reset(0))


class TestDependenceProbe:
    def test_spectator_qubit_independent(self):
        depends, delta = dependence_probe(
            lambda t: Circuit(2).rx(t, 0).cx(0, 1), qubit=1, value_a=0.3, value_b=1.1
        )
        # qubit 1 descriptors pick the angle up through the CNOT
        assert depends is True and delta > 1e-9
        depends, delta = dependence_probe(
            lambda t: Circuit(2).rx(t, 0), qubit=1, value_a=0.3, value_b=1.1
        )
        assert depends is False and delta <= 1e-9

    def test_rotated_qubit_depends(self):
        depends, _ = dependence_probe(
            lambda t: Circuit(1).rx(t, 0), qubit=0, value_a=0.3, value_b=1.1
        )
        assert depends is True

    def test_equal_values_never_depend(self):
        depends, delta = dependence_probe(
            lambda t: Circuit(1).rx(t, 0), qubit=0, value_a=0.5, value_b=0.5
        )
        assert depends is False and delta == 0.0

    def test_delta_matches_walked_frames_on_random_circuits(self):
        rng = np.random.default_rng(601)
        for _ in range(6):
            n = int(rng.integers(1, 7))
            before = util.random_unitary_circuit(n, 8, rng)
            after = util.random_unitary_circuit(n, 8, rng)
            rotated = int(rng.integers(n))

            def build(theta):
                c = Circuit(n)
                c.instructions.extend(before.instructions)
                c.rx(theta, rotated)
                c.instructions.extend(after.instructions)
                return c

            qubit = int(rng.integers(n))
            a, b = (float(v) for v in rng.uniform(-np.pi, np.pi, size=2))
            depends, delta = dependence_probe(build, qubit, a, b)
            frames = [advance_all(init_frame(n), build(v)) for v in (a, b)]
            want = max(
                float(np.max(np.abs(x - y)))
                for x, y in zip(frames[0].triples[qubit], frames[1].triples[qubit])
            )
            assert delta == pytest.approx(want, abs=1e-12)
            assert depends is (want > 1e-9)

    def test_shape_mismatch(self):
        def build(t):
            c = Circuit(1).rx(t, 0)
            if t > 1:
                c.h(0)
            return c

        with pytest.raises(ShapeMismatch):
            dependence_probe(build, qubit=0, value_a=0.5, value_b=1.5)


class TestExpectation:
    def test_initial_z_on_ground_state(self):
        f = init_frame(1)
        assert expectation(f, {0: "z"}, basis_state(1)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_parity(self):
        c = Circuit(2).h(0).cx(0, 1)
        f = advance_all(init_frame(2), c)
        got = expectation(f, {0: "z", 1: "z"}, basis_state(2))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_rotated_bell_closed_form(self):
        theta, phi = 0.7, -0.2
        c = Circuit(2).h(0).cx(0, 1).rx(theta, 0).rx(phi, 1)
        f = advance_all(init_frame(2), c)
        got = expectation(f, {0: "z", 1: "z"}, basis_state(2))
        assert got == pytest.approx(np.cos(theta + phi), abs=1e-9)

    def test_bad_axis_rejected(self):
        with pytest.raises(BadParams):
            expectation(init_frame(1), {0: "w"}, basis_state(1))
        with pytest.raises(BadParams):
            expectation(init_frame(1), {}, basis_state(1))

    def test_matches_schrodinger_on_random_circuits(self):
        rng = np.random.default_rng(503)
        axes = "xyz"
        paulis = {"x": oracle.X, "y": oracle.Y, "z": oracle.Z}
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = util.random_unitary_circuit(n, 10, rng)
            f = advance_all(init_frame(n), c)
            size = int(rng.integers(1, n + 1))
            qubits = sorted(rng.choice(n, size=size, replace=False))
            obs = {int(q): axes[int(rng.integers(3))] for q in qubits}
            got = expectation(f, obs, basis_state(n))
            psi = run_statevector(c).amplitudes
            op = np.eye(2 ** n, dtype=complex)
            for q, ax in sorted(obs.items()):
                op = op @ oracle.lift(paulis[ax], [q], n)
            want = float(np.real(psi.conj() @ op @ psi))
            assert got == pytest.approx(want, abs=1e-9)

    def test_marginals_rebuild_reduced_states(self):
        """1/2 (I + sum <sigma> sigma) equals the reduced density matrix."""
        rng = np.random.default_rng(509)
        paulis = {"x": oracle.X, "y": oracle.Y, "z": oracle.Z}
        for _ in range(5):
            n = int(rng.integers(1, 4))
            c = util.random_unitary_circuit(n, 8, rng)
            f = advance_all(init_frame(n), c)
            final = run_density(c).final_state
            for q in range(n):
                acc = np.eye(2, dtype=complex)
                for ax, m in paulis.items():
                    acc = acc + expectation(f, {q: ax}, basis_state(n)) * m
                np.testing.assert_allclose(acc / 2, partial_trace(final, [q]).mat, atol=1e-9)
