from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import oracle
import util
from paradoxlab import descriptor, qmath
from paradoxlab.circuit import Circuit, circuit_unitary, run_density
from paradoxlab.descriptor import (
    AXES,
    AuditStep,
    _drift,
    _images,
    _parts,
    advance,
    dependence_probe,
    expectation,
    locality_audit,
)
from paradoxlab.errors import (
    BadParams,
    BadTargets,
    InvalidState,
    NonUnitaryInstruction,
    ShapeMismatch,
)
from paradoxlab.qmath import LOCALITY_ATOL, DensityMatrix, basis_state, partial_trace

PAULIS = {"x": oracle.X, "y": oracle.Y, "z": oracle.Z}


def advance_all(circuit: Circuit) -> np.ndarray:
    """The prefix unitary after every step of ``circuit``."""
    prefix = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for instr in circuit.instructions:
        prefix = advance(prefix, instr)
    return prefix


def triples(prefix: np.ndarray) -> tuple:
    """Every qubit's (x, y, z) images under ``prefix``."""
    return _images(prefix, range(prefix.shape[0].bit_length() - 1))


def rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta sigma / 2) for the Pauli sigma named by ``axis``."""
    return np.cos(theta / 2) * oracle.I2 - 1j * np.sin(theta / 2) * PAULIS[axis]


def assemble(m: np.ndarray, s: np.ndarray) -> tuple:
    """The (x, y, z) images of the raw pair M = A^dag B, S = (A - B)^dag (A + B)."""
    anti = m - m.conj().T
    return m + m.conj().T, -1j * anti, s - anti


def kernel_images(prefix: np.ndarray, q: int) -> list:
    """Qubit ``q``'s (x, y, z) images with each Pauli applied by the general kernel."""
    pdag = prefix.conj().T
    return [pdag @ qmath._apply_op(PAULIS[ax], prefix, [q]) for ax in AXES]


def kernel_audit(c: Circuit) -> list:
    """The locality audit's steps, with every image built through ``kernel_images``."""
    n = c.n_qubits
    prefix = np.eye(2 ** n, dtype=complex)
    before = [kernel_images(prefix, q) for q in range(n)]
    steps = []
    for i, instr in enumerate(c.instructions):
        prefix = qmath._apply_op(instr.gate.matrix, prefix, instr.targets)
        after = [kernel_images(prefix, q) for q in range(n)]
        delta = 0.0
        for q in set(range(n)) - set(instr.targets):
            for b, a in zip(before[q], after[q]):
                delta = max(delta, float(np.max(np.abs(a - b))))
        steps.append(AuditStep(i, delta, delta <= LOCALITY_ATOL))
        before = after
    return steps


class TestInitFrame:
    """Images under the identity prefix, where the audit starts."""

    def test_single_qubit_triple(self):
        for got, want in zip(triples(np.eye(2))[0], (oracle.X, oracle.Y, oracle.Z)):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_embedding_uses_little_endian_order(self):
        images = triples(np.eye(4))
        np.testing.assert_allclose(images[0][0], np.kron(oracle.I2, oracle.X), atol=1e-15)
        np.testing.assert_allclose(images[1][0], np.kron(oracle.X, oracle.I2), atol=1e-15)

    def test_matrices_hermitian_involutory_traceless(self):
        for triple in triples(np.eye(8)):
            for m in triple:
                np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
                np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-12)
                assert abs(np.trace(m)) <= 1e-12


class TestAdvance:
    def test_hadamard_swaps_x_and_z(self):
        (x, y, z), = triples(advance_all(Circuit(1).h(0)))
        np.testing.assert_allclose(z, oracle.X, atol=1e-12)
        np.testing.assert_allclose(x, oracle.Z, atol=1e-12)
        np.testing.assert_allclose(y, -oracle.Y, atol=1e-12)

    def test_rx_rotates_z_toward_y(self):
        theta = 0.9
        images = triples(advance_all(Circuit(1).rx(theta, 0)))
        want = np.cos(theta) * oracle.Z + np.sin(theta) * oracle.Y
        np.testing.assert_allclose(images[0][2], want, atol=1e-12)

    def test_cnot_spreads_target_z_to_control(self):
        images = triples(advance_all(Circuit(2).cx(0, 1)))
        np.testing.assert_allclose(images[1][2], np.kron(oracle.Z, oracle.Z), atol=1e-12)
        # control X picks up the target
        np.testing.assert_allclose(images[0][0], np.kron(oracle.X, oracle.X), atol=1e-12)

    def test_off_support_qubit_untouched(self):
        after = triples(advance_all(Circuit(2).h(1).rx(0.4, 1)))
        for a, b in zip(triples(np.eye(4))[0], after[0]):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_rejects_non_unitary_instruction(self):
        instr = Circuit(1, 1).measure(0, 0).instructions[0]
        with pytest.raises(NonUnitaryInstruction):
            advance(np.eye(2, dtype=complex), instr)

    def test_invariants_survive_random_circuits(self):
        rng = np.random.default_rng(307)
        paulis = (oracle.X, oracle.Y, oracle.Z)
        for _ in range(6):
            n = int(rng.integers(1, 7))
            c = util.random_unitary_circuit(n, 10, rng)
            images = triples(advance_all(c))
            eye = np.eye(2 ** n)
            prefix = eye.astype(complex)
            for instr in c.instructions:
                prefix = oracle.lift(instr.gate.matrix, list(instr.targets), n) @ prefix
            for q, triple in enumerate(images):
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
            for x, y, z in triples(advance_all(c)):
                np.testing.assert_allclose(x @ y, 1j * z, atol=1e-9)


class TestPauliImages:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_match_oracle_and_kernel_on_haar_prefixes(self, n):
        rng = np.random.default_rng(700 + n)
        prefix = oracle.random_unitary(2 ** n, rng)
        for q, triple in enumerate(_images(prefix, range(n))):
            for ax, got, kernel in zip(AXES, triple, kernel_images(prefix, q)):
                want = prefix.conj().T @ oracle.lift(PAULIS[ax], [q], n) @ prefix
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got, kernel, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_y_is_minus_i_times_the_antihermitian_part(self, n):
        """The raw pair is (A^dag B, (A - B)^dag (A + B)) of the row-gathered halves.

        The audit compares M - M^dag for Y; their differences' moduli agree bit for bit.
        """
        rng = np.random.default_rng(740 + n)
        prefixes = [oracle.random_unitary(2 ** n, rng) for _ in range(2)]
        rows = np.arange(2 ** n)
        for q in range(n):
            antis = []
            for prefix in prefixes:
                a, b = (prefix[rows[(rows >> q & 1) == bit]] for bit in (0, 1))
                m, s = _parts(prefix, q)
                assert m.tobytes() == (a.conj().T @ b).tobytes()
                assert s.tobytes() == ((a - b).conj().T @ (a + b)).tobytes()
                antis.append(m - m.conj().T)
                assert _images(prefix, [q])[0][1].tobytes() == (-1j * antis[-1]).tobytes()
            ys = [_images(prefix, [q])[0][1] for prefix in prefixes]
            assert np.abs(ys[1] - ys[0]).tobytes() == np.abs(antis[1] - antis[0]).tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hermitian_and_square_to_identity(self, n):
        prefix = oracle.random_unitary(2 ** n, np.random.default_rng(720 + n))
        eye = np.eye(2 ** n)
        for triple in _images(prefix, range(n)):
            for image in triple:
                np.testing.assert_allclose(image, image.conj().T, rtol=0, atol=1e-12)
                np.testing.assert_allclose(image @ image, eye, rtol=0, atol=1e-12)


def assert_audit_matches_kernel(n: int, seed: int, circuits: int) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(circuits):
        c = util.random_unitary_circuit(n, 20, rng)
        steps, want = locality_audit(c).steps, kernel_audit(c)
        assert [(s.instr, s.ok) for s in steps] == [(s.instr, s.ok) for s in want]
        np.testing.assert_allclose(
            [s.max_offsupport_delta for s in steps],
            [s.max_offsupport_delta for s in want],
            rtol=0,
            atol=1e-14,
        )


def assert_drift_caught(
    monkeypatch, c: Circuit, drift_step: int, drifted: int = 3, axis: str = "x"
) -> None:
    """Qubit ``drifted`` of ``c`` turns by 1e-6 about ``axis`` at ``drift_step``.

    That step alone must fail.
    """
    theta, n = 1e-6, c.n_qubits
    assert drifted not in c.instructions[drift_step].targets
    turn = oracle.lift(rotation(axis, theta), [drifted], n)
    calls = []

    def drifting_advance(prefix, instr):
        after = advance(prefix, instr)
        calls.append(after)
        if len(calls) - 1 == drift_step:
            return turn @ after
        return after

    monkeypatch.setattr(descriptor, "advance", drifting_advance)
    report = locality_audit(c)
    # Only the drifted qubit's images of the other two axes move: the turn commutes with its own.
    clean = calls[drift_step]
    want = max(
        float(np.max(np.abs(clean.conj().T @ (turn.conj().T @ p @ turn - p) @ clean)))
        for p in (oracle.lift(PAULIS[ax], [drifted], n) for ax in AXES if ax != axis)
    )
    # Each change is its norm, 2 sin(theta / 2), times a unitary, whose columns have unit
    # length: its largest entry lies between that norm and the norm over sqrt(2^n).
    assert theta / math.sqrt(2 ** n) * (1 - 1e-9) <= want <= theta * (1 + 1e-9)
    step = report.steps[drift_step]
    assert step.ok is False
    assert step.max_offsupport_delta == pytest.approx(want, rel=1e-6)
    assert [s.ok for s in report.steps if s is not step] == [True] * (len(c.instructions) - 1)
    assert report.overall is False


def recorded_audit(monkeypatch, c: Circuit, alter=lambda frame, q, parts: parts) -> tuple:
    """The audit of ``c`` and how often it computes each (frame, qubit) image.

    Frame k is the prefix after k steps; frame 0 is the first step's input.
    ``alter(k, q, parts)`` may replace an image triple before the audit
    compares it.
    """
    frames, computed = [], Counter()

    def recording_advance(prefix, instr):
        if not frames:
            frames.append(prefix)
        after = advance(prefix, instr)
        frames.append(after)
        return after

    def counting_parts(prefix, q):
        k = next(k for k, p in enumerate(frames) if p is prefix)
        computed[k, q] += 1
        return alter(k, q, _parts(prefix, q))

    monkeypatch.setattr(descriptor, "advance", recording_advance)
    monkeypatch.setattr(descriptor, "_parts", counting_parts)
    return locality_audit(c), computed


class TestLocalityAudit:
    def test_steps_equal_kernel_audit_on_six_qubits(self):
        assert_audit_matches_kernel(6, seed=409, circuits=3)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_steps_equal_kernel_audit_on_fewer_qubits(self, n):
        assert_audit_matches_kernel(n, seed=409 + n, circuits=3)

    def test_off_support_drift_caught(self, monkeypatch):
        """A step that also rotates an untouched qubit fails by the rotation's size."""
        drift_step = 4
        rng = np.random.default_rng(411)
        c = util.random_unitary_circuit(4, drift_step, rng).cx(0, 1)
        c = Circuit(4, 0, [*c.instructions, *util.random_unitary_circuit(4, 4, rng).instructions])
        assert_drift_caught(monkeypatch, c, drift_step)

    def test_drift_caught_on_a_qubit_the_previous_gate_touched(self, monkeypatch):
        """The drifted qubit's before-image is not carried over but computed afresh."""
        c = Circuit(4).h(0).cx(2, 1).rx(0.3, 2).ch(1, 3).cx(0, 1)
        tail = util.random_unitary_circuit(4, 4, np.random.default_rng(412))
        c = Circuit(4, 0, [*c.instructions, *tail.instructions])
        assert 3 in c.instructions[3].targets
        assert_drift_caught(monkeypatch, c, drift_step=4)

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("drifted", range(6))
    def test_drift_caught_on_every_qubit_of_six(self, monkeypatch, drifted, axis):
        """Qubits 0-4 gather strided row halves, qubit 5 reads contiguous ones."""
        rng = np.random.default_rng(415 + drifted)
        head, tail = (util.random_unitary_circuit(6, 3, rng) for _ in range(2))
        others = [q for q in range(6) if q != drifted]
        c = Circuit(6, 0, head.instructions).cx(others[0], others[-1])
        c = Circuit(6, 0, [*c.instructions, *tail.instructions])
        assert_drift_caught(monkeypatch, c, drift_step=3, drifted=drifted, axis=axis)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_drift_equals_oracle_image_change_on_haar_pairs(self, n):
        """Per qubit, the drift is the largest entry change of U^dag sigma U over the three axes."""
        rng = np.random.default_rng(770 + n)
        for _ in range(2):
            u = oracle.random_unitary(2 ** n, rng)
            near = oracle.lift(oracle.rx(1e-7), [int(rng.integers(n))], n) @ u
            for v in (oracle.random_unitary(2 ** n, rng), near):
                for q in range(n):
                    want = max(
                        float(np.max(np.abs(v.conj().T @ p @ v - u.conj().T @ p @ u)))
                        for p in (oracle.lift(PAULIS[ax], [q], n) for ax in AXES)
                    )
                    got = float(np.max(_drift(_parts(u, q), _parts(v, q))))
                    assert got == pytest.approx(want, rel=0, abs=1e-12)

    def test_non_finite_drift_fails(self, monkeypatch):
        """A NaN difference fails its step; it must not drop out of the maximum."""

        def poisoning_advance(prefix, instr):
            after = advance(prefix, instr)
            after[0, 0] = np.nan
            return after

        monkeypatch.setattr(descriptor, "advance", poisoning_advance)
        report = locality_audit(Circuit(3).h(0).cx(0, 1).x(2))
        assert [s.ok for s in report.steps] == [False] * 3
        assert all(math.isnan(s.max_offsupport_delta) for s in report.steps)
        assert report.overall is False

    def test_computes_each_compared_image_once_and_no_other(self, monkeypatch):
        """Frame k's images are those of the qubits off step k-1's or step k's support."""
        rng = np.random.default_rng(413)
        fixed = Circuit(4).cx(0, 1).h(1).x(3).ccx(0, 1, 2).swap(2, 3).h(2).rx(0.2, 0)
        for c in [fixed, *(util.random_unitary_circuit(n, 15, rng) for n in (2, 3, 5, 6))]:
            _, computed = recorded_audit(monkeypatch, c)
            want = {
                (k + side, q)
                for k, instr in enumerate(c.instructions)
                for q in set(range(c.n_qubits)) - set(instr.targets)
                for side in (0, 1)
            }
            assert set(computed) == want
            assert set(computed.values()) == {1}
        # Qubit 1 is on the CNOT's and the H's support: frame 1 has no image of it.
        assert (1, 1) not in recorded_audit(monkeypatch, fixed)[1]

    @pytest.mark.parametrize("image", range(3))
    def test_drift_in_any_one_image_caught(self, monkeypatch, image):
        """X, Y and Z are each compared: a raw-pair shift moving one alone fails its step."""
        eps, ones = 1e-6, np.ones((8, 8))
        # A Hermitian shift of M moves X alone. An anti-Hermitian one moves Y, and Z
        # unless S takes the same shift as M - M^dag. A shift of S moves Z alone.
        dm, ds = [(eps / 2 * ones, 0), (0.5j * eps * ones, 1j * eps * ones), (0, eps * ones)][image]
        m, s = _parts(oracle.random_unitary(8, np.random.default_rng(414)), 2)
        moved = [np.abs(a - b).max() for a, b in zip(assemble(m + dm, s + ds), assemble(m, s))]
        assert moved[image] == pytest.approx(eps, rel=1e-9)
        assert max(moved[:image] + moved[image + 1:]) <= 1e-15

        def shift(k, q, parts):
            # Qubit 2's pair after the CNOT; the X gate that follows touches qubit 2.
            return (parts[0] + dm, parts[1] + ds) if (k, q) == (2, 2) else parts

        report, _ = recorded_audit(monkeypatch, Circuit(3).h(0).cx(0, 1).x(2).rx(0.4, 1), shift)
        assert report.steps[1].max_offsupport_delta == pytest.approx(eps, rel=1e-9)
        assert [s.ok for s in report.steps] == [True, False, True, True]

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
            locality_audit(Circuit(1, 1).measure(0, 0))


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
                c = Circuit(n, 0, before.instructions).rx(theta, rotated)
                return Circuit(n, 0, c.instructions + after.instructions)

            qubit = int(rng.integers(n))
            a, b = (float(v) for v in rng.uniform(-np.pi, np.pi, size=2))
            depends, delta = dependence_probe(build, qubit, a, b)
            images = [triples(advance_all(build(v)))[qubit] for v in (a, b)]
            want = max(float(np.max(np.abs(x - y))) for x, y in zip(*images))
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

    @pytest.mark.parametrize(
        "qubit, error", [(1.5, BadParams), (True, BadParams), (2, BadTargets), (-1, BadTargets)]
    )
    def test_qubit_must_be_an_index_in_range(self, qubit, error):
        with pytest.raises(error, match="qubit"):
            dependence_probe(lambda t: Circuit(2).rx(t, 0), qubit, 0.3, 1.1)

    @pytest.mark.parametrize(
        "bad", ["0.3", True, math.nan, pytest.param(Fraction(10**400), id="Fraction(10**400)")]
    )
    def test_values_must_be_finite_reals(self, bad):
        def build(t):
            raise AssertionError("build called with a refused value")

        with pytest.raises(BadParams, match="value_a must be a finite real"):
            dependence_probe(build, 0, bad, 1.1)
        with pytest.raises(BadParams, match="value_b must be a finite real"):
            dependence_probe(build, 0, 1.1, bad)

    def test_any_finite_real_value_accepted(self):
        def build(t):
            return Circuit(1).rx(t, 0)

        want = dependence_probe(build, 0, 0.25, 1.1)
        assert dependence_probe(build, 0, Fraction(1, 4), np.float64(1.1)) == want

    @pytest.mark.parametrize("qubit", [0, 1])
    def test_non_finite_difference_refused(self, monkeypatch, qubit):
        """A NaN difference must not drop out of the maximum and read as no dependence."""

        def poisoned_unitary(c):
            u = circuit_unitary(c)
            u[0, 0] = np.nan
            return u

        monkeypatch.setattr(descriptor, "circuit_unitary", poisoned_unitary)
        with pytest.raises(InvalidState, match=f"qubit {qubit}'s images differ by nan"):
            dependence_probe(lambda t: Circuit(2).rx(t, 0).cx(0, 1), qubit, 0.3, 1.1)


class TestExpectation:
    def test_initial_z_on_ground_state(self):
        assert expectation(np.eye(2), {0: "z"}, basis_state(1)) == pytest.approx(1.0, abs=1e-12)

    def test_bell_parity(self):
        c = Circuit(2).h(0).cx(0, 1)
        got = expectation(advance_all(c), {0: "z", 1: "z"}, basis_state(2))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_rotated_bell_closed_form(self):
        theta, phi = 0.7, -0.2
        c = Circuit(2).h(0).cx(0, 1).rx(theta, 0).rx(phi, 1)
        got = expectation(advance_all(c), {0: "z", 1: "z"}, basis_state(2))
        assert got == pytest.approx(np.cos(theta + phi), abs=1e-9)

    def test_bad_axis_rejected(self):
        with pytest.raises(BadParams):
            expectation(np.eye(2), {0: "w"}, basis_state(1))
        with pytest.raises(BadParams):
            expectation(np.eye(2), {}, basis_state(1))

    @pytest.mark.parametrize("prefix", [np.eye(4), np.ones((2, 3))])
    def test_prefix_must_match_the_state(self, prefix):
        with pytest.raises(BadParams, match="does not match a 1-qubit state"):
            expectation(prefix, {0: "z"}, basis_state(1))

    @pytest.mark.parametrize("ax", AXES)
    def test_one_qubit_observable_on_six_qubits_matches_oracle(self, ax):
        """Only the named qubit's images are computed; the value is tr(rho U^dag sigma U)."""
        rng = np.random.default_rng(531)
        u = oracle.random_unitary(64, rng)
        rho = oracle.random_density(64, rng)
        for q in range(6):
            want = np.trace(rho @ u.conj().T @ oracle.lift(PAULIS[ax], [q], 6) @ u).real
            got = expectation(u, {q: ax}, DensityMatrix(rho))
            assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "observable, error",
        [({1.5: "z"}, BadParams), ({True: "z"}, BadParams), ({"0": "z", 1: "x"}, BadParams),
         ({2: "z"}, BadTargets), ({-1: "z"}, BadTargets)],
    )
    def test_qubit_must_be_an_index_in_range(self, observable, error):
        with pytest.raises(error, match="qubit"):
            expectation(np.eye(4), observable, basis_state(2))

    def test_matches_schrodinger_on_random_circuits(self):
        rng = np.random.default_rng(503)
        axes = "xyz"
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = util.random_unitary_circuit(n, 10, rng)
            prefix = advance_all(c)
            size = int(rng.integers(1, n + 1))
            qubits = sorted(rng.choice(n, size=size, replace=False))
            obs = {int(q): axes[int(rng.integers(3))] for q in qubits}
            got = expectation(prefix, obs, basis_state(n))
            psi = circuit_unitary(c)[:, 0]
            op = np.eye(2 ** n, dtype=complex)
            for q, ax in sorted(obs.items()):
                op = op @ oracle.lift(PAULIS[ax], [q], n)
            want = float(np.real(psi.conj() @ op @ psi))
            assert got == pytest.approx(want, abs=1e-9)

    def test_mixed_initial_state_matches_oracle(self):
        """Re tr(rho U^dag O U) for a random mixed rho, which no pure state stands in for."""
        rng = np.random.default_rng(521)
        axes = "xyz"
        for _ in range(10):
            n = int(rng.integers(1, 5))
            c = util.random_unitary_circuit(n, 10, rng)
            prefix = advance_all(c)
            rho = oracle.random_density(2 ** n, rng)
            qubits = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            obs = {int(q): axes[int(rng.integers(3))] for q in qubits}
            op = np.eye(2 ** n, dtype=complex)
            for q, ax in sorted(obs.items()):
                op = op @ oracle.lift(PAULIS[ax], [q], n)
            u = circuit_unitary(c)
            want = float(np.real(np.trace(rho @ u.conj().T @ op @ u)))
            assert expectation(prefix, obs, DensityMatrix(rho)) == pytest.approx(want, abs=1e-12)

    def test_marginals_rebuild_reduced_states(self):
        """1/2 (I + sum <sigma> sigma) equals the reduced density matrix."""
        rng = np.random.default_rng(509)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            c = util.random_unitary_circuit(n, 8, rng)
            prefix = advance_all(c)
            final = run_density(c).final_state
            for q in range(n):
                acc = np.eye(2, dtype=complex)
                for ax, m in PAULIS.items():
                    acc = acc + expectation(prefix, {q: ax}, basis_state(n)) * m
                np.testing.assert_allclose(acc / 2, partial_trace(final, [q]).mat, atol=1e-9)
