from __future__ import annotations

import numpy as np
import pytest

import oracle
from paradoxlab.circuit import Circuit, run_density
from paradoxlab.epr import (
    ALICE,
    ALICE_MEM,
    BOB,
    BOB_MEM,
    CHECK,
    EprConfig,
    build_epr_circuit,
    build_epr_unitary,
    check_distribution,
    info_flow_report,
    sweep,
)
from paradoxlab.errors import BadParams, InvalidState
from paradoxlab.qmath import _apply_op, trace_distance


def closed_form(theta, phi):
    return (1 - np.cos(theta + phi)) / 2


def oracle_check_probability(theta, phi):
    """Independent five-qubit simulation of the all-quantum parity circuit."""
    state = np.zeros(32, dtype=complex)
    state[0] = 1
    steps = [
        (oracle.H, [0]),
        (oracle.CNOT, [0, 1]),
        (oracle.rx(theta), [0]),
        (oracle.rx(phi), [1]),
        (oracle.CNOT, [0, 2]),
        (oracle.CNOT, [1, 3]),
        (oracle.CNOT, [2, 4]),
        (oracle.CNOT, [3, 4]),
    ]
    for op, qubits in steps:
        state = oracle.lift(op, qubits, 5) @ state
    probs = np.abs(state) ** 2
    return float(sum(probs[i] for i in range(32) if (i >> 4) & 1))


class TestCircuitShape:
    def test_register_layout(self):
        assert (ALICE, BOB, ALICE_MEM, BOB_MEM, CHECK) == (0, 1, 2, 3, 4)

    def test_deferred_form_measures_only_the_check(self):
        c = build_epr_circuit(EprConfig(0.3, 0.4))
        measures = [i for i in c.instructions if i.op == "measure"]
        assert len(measures) == 1
        assert measures[0].targets == (CHECK,)
        assert c.instructions[-1].op == "measure"

    def test_measured_form_collapses_memories_before_parity(self):
        c = build_epr_circuit(EprConfig(0.3, 0.4, deferred=False))
        ops = [i.op for i in c.instructions]
        first_measure = ops.index("measure")
        parity_targets = [
            i.targets for i in c.instructions if i.op == "unitary" and CHECK in i.targets
        ]
        assert parity_targets == [(ALICE_MEM, CHECK), (BOB_MEM, CHECK)]
        first_parity = next(
            k for k, i in enumerate(c.instructions) if i.op == "unitary" and CHECK in i.targets
        )
        assert first_measure < first_parity

    def test_unitary_form_has_no_measurements(self):
        c = build_epr_unitary(EprConfig(0.1, 0.2))
        assert all(i.op == "unitary" for i in c.instructions)
        truncated = build_epr_unitary(EprConfig(0.1, 0.2), include_parity=False)
        assert len(truncated.instructions) == len(c.instructions) - 2

    def test_config_validation(self):
        with pytest.raises(BadParams):
            EprConfig(float("nan"), 0.0)


class TestCheckDistribution:
    def test_aligned_axes_never_fire(self):
        assert check_distribution(EprConfig(0.0, 0.0)) == 0.0

    def test_opposite_rotations_cancel(self):
        assert check_distribution(EprConfig(np.pi / 2, -np.pi / 2)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_quarter_turns_always_fire(self):
        assert check_distribution(EprConfig(np.pi / 2, np.pi / 2)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_closed_form_on_grid(self):
        for theta in np.linspace(-np.pi, np.pi, 9):
            for phi in np.linspace(-np.pi, np.pi, 9):
                got = check_distribution(EprConfig(theta, phi))
                assert got == pytest.approx(closed_form(theta, phi), abs=1e-9)

    def test_matches_independent_oracle(self):
        for theta, phi in [(0.7, -0.3), (1.9, 2.4), (-2.2, 0.5)]:
            got = check_distribution(EprConfig(theta, phi))
            assert got == pytest.approx(oracle_check_probability(theta, phi), abs=1e-10)

    def test_measured_form_agrees_with_deferred(self):
        for theta in np.linspace(-np.pi, np.pi, 5):
            for phi in np.linspace(-np.pi, np.pi, 5):
                a = check_distribution(EprConfig(theta, phi, deferred=True))
                b = check_distribution(EprConfig(theta, phi, deferred=False))
                assert a == pytest.approx(b, abs=1e-9)


class TestNoSignalling:
    def test_bob_marginal_ignores_theta(self):
        phi = 0.37
        states = []
        for theta in np.linspace(-np.pi, np.pi, 9):
            c = Circuit(5).h(ALICE).cx(ALICE, BOB).rx(theta, ALICE).rx(phi, BOB)
            states.append(run_density(c).reduced_states[BOB])
        for other in states[1:]:
            assert trace_distance(states[0], other) <= 1e-10

    def test_alice_marginal_ignores_phi(self):
        theta = -1.1
        states = []
        for phi in np.linspace(-np.pi, np.pi, 9):
            c = Circuit(5).h(ALICE).cx(ALICE, BOB).rx(theta, ALICE).rx(phi, BOB)
            states.append(run_density(c).reduced_states[ALICE])
        for other in states[1:]:
            assert trace_distance(states[0], other) <= 1e-10


class TestSweep:
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (3, 5), (7, 2), (9, 11)])
    def test_random_grids_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape) * 1000 + shape[0])
        thetas = rng.uniform(-4 * np.pi, 4 * np.pi, shape[0])
        phis = rng.uniform(-4 * np.pi, 4 * np.pi, shape[1])
        rows = sweep(thetas, phis)
        assert [(r.theta, r.phi) for r in rows] == [
            (float(t), float(p)) for t in thetas for p in phis
        ]
        for row in rows:
            assert abs(row.p_check_one - oracle_check_probability(row.theta, row.phi)) <= 1e-12
            cfg = EprConfig(row.theta, row.phi)
            assert abs(row.p_check_one - check_distribution(cfg)) <= 1e-12

    def test_empty_axis(self):
        assert sweep([], [0.1, 0.2]) == []
        assert sweep([0.1], []) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(BadParams):
            sweep([0.1, bad], [0.2])
        with pytest.raises(BadParams):
            sweep([0.1], [bad, 0.2])

    def test_unnormalized_batch_rejected(self, monkeypatch):
        def leaky(op, state, targets):
            return 0.999 * _apply_op(op, state, targets)

        monkeypatch.setattr("paradoxlab.epr._apply_op", leaky)
        with pytest.raises(InvalidState):
            sweep([0.1, 0.2], [0.3])

    def test_grid_shape_and_values(self):
        thetas = [0.0, 0.5]
        phis = [0.0, 0.25, 0.5]
        rows = sweep(thetas, phis)
        assert len(rows) == 6
        for row in rows:
            assert row.p_check_one == pytest.approx(
                check_distribution(EprConfig(row.theta, row.phi)), abs=1e-12
            )

    def test_opposite_diagonal_is_silent(self):
        rows = sweep([0.3], [-0.3])
        assert rows[0].p_check_one == pytest.approx(0.0, abs=1e-9)


class TestInfoFlowReport:
    def test_dependence_pattern(self):
        report = info_flow_report(EprConfig(0.3, 0.8))
        assert report.dependence == {
            "alice_memory": {"theta": True, "phi": False},
            "bob_memory": {"theta": False, "phi": True},
            "check": {"theta": True, "phi": True},
        }

    def test_correlation_is_cosine(self):
        report = info_flow_report(EprConfig(0.4, -0.4))
        assert report.correlation == pytest.approx(1.0, abs=1e-9)
        report = info_flow_report(EprConfig(0.4, 0.4))
        assert report.correlation == pytest.approx(np.cos(0.8), abs=1e-9)
        assert report.correlation == pytest.approx(1 - 2 * report.p_check_one, abs=1e-12)

    def test_requires_deferred_form(self):
        with pytest.raises(BadParams):
            info_flow_report(EprConfig(0.1, 0.2, deferred=False))
