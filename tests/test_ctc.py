from __future__ import annotations

import numpy as np
import pytest

import oracle
from paradoxlab.circuit import Circuit, run_density
from paradoxlab.ctc import (
    STATE_LABELS,
    CtcProblem,
    bb84_problem,
    bb84_unitary,
    classical_control_demo,
    consistency_map,
    demo_distribution,
    distinguisher_problem,
    distinguisher_unitary,
    grandfather_problem,
    nonlinearity_witness,
    run_ctc_circuit,
    solve_fixed_point,
    state_from_label,
)
from paradoxlab.errors import (
    BadLabel,
    BadParams,
    BadTargets,
    DimensionMismatch,
    NonUnitary,
)
from paradoxlab.qmath import DensityMatrix, is_unitary, maximally_mixed, trace_distance

X = np.array([[0, 1], [1, 0]], dtype=complex)

KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}

# Fixed points of the distinguisher consistency map, solved by hand from
# a_new = a*s00 + (1-a)*h00 and checked by brute force.
DIST_FIXED = {
    "0": np.array([[1, 0], [0, 0]], dtype=complex),
    "1": np.array([[1, -1], [-1, 2]], dtype=complex) / 3,
    "+": np.array([[2, 1], [1, 1]], dtype=complex) / 3,
    "-": np.array([[0, 0], [0, 1]], dtype=complex),
}

# Loop register basis index (m0 + 2*m1) consistent with each input claim.
BB84_CLAIM_INDEX = {"0": 0, "1": 2, "+": 1, "-": 3}
BB84_OUTPUT = {"0": "00", "1": "10", "+": "01", "-": "11"}


def dist_problem(label):
    return distinguisher_problem(label)


class TestLabels:
    def test_all_four_states(self):
        assert STATE_LABELS == ("0", "1", "+", "-")
        for label in STATE_LABELS:
            vec = state_from_label(label).amplitudes
            assert np.allclose(vec, KETS[label], atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(BadLabel):
            state_from_label("x")


class TestProblemValidation:
    def test_unitarity_enforced(self):
        with pytest.raises(NonUnitary):
            CtcProblem(np.ones((4, 4), dtype=complex), maximally_mixed(1), 1, 1)

    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatch):
            CtcProblem(np.eye(4, dtype=complex), maximally_mixed(2), 1, 1)
        with pytest.raises(DimensionMismatch):
            CtcProblem(np.eye(2, dtype=complex), maximally_mixed(1), 1, 1)

    def test_loopless_problem_rejected(self):
        with pytest.raises(BadParams):
            CtcProblem(np.eye(2, dtype=complex), maximally_mixed(1), 1, 0)

    def test_system_state_required_iff_system_qubits(self):
        with pytest.raises(BadParams):
            CtcProblem(np.eye(2, dtype=complex), maximally_mixed(1), 0, 1)
        with pytest.raises(BadParams):
            CtcProblem(np.eye(4, dtype=complex), None, 1, 1)


class TestConsistencyMap:
    def test_identity_interaction(self):
        p = CtcProblem(np.eye(4, dtype=complex), maximally_mixed(1), 1, 1)
        rho = DensityMatrix.from_matrix(oracle.random_density(2, np.random.default_rng(5)))
        out = consistency_map(p, rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_swap_loads_system_into_loop(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        p = CtcProblem(swap, DensityMatrix.from_matrix(np.diag([1.0, 0])), 1, 1)
        rho = DensityMatrix.from_matrix(oracle.random_density(2, np.random.default_rng(7)))
        out = consistency_map(p, rho)
        assert np.allclose(out.mat, np.diag([1.0, 0]), atol=1e-12)

    def test_distinguisher_on_mixed_loop(self):
        out = consistency_map(dist_problem("0"), maximally_mixed(1))
        expect = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        assert np.allclose(out.mat, expect, atol=1e-12)

    def test_output_is_always_a_state(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n_sys = int(rng.integers(1, 3))
            n_loop = int(rng.integers(1, 3))
            u = oracle.random_unitary(2 ** (n_sys + n_loop), rng)
            sys_state = DensityMatrix.from_matrix(oracle.random_density(2 ** n_sys, rng))
            p = CtcProblem(u, sys_state, n_sys, n_loop)
            rho = DensityMatrix.from_matrix(oracle.random_density(2 ** n_loop, rng))
            out = consistency_map(p, rho)  # constructor enforces the invariants
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "n_sys, n_loop, pure",
        [(0, n_loop, None) for n_loop in range(1, 5)]
        + [(n_sys, n_loop, pure) for n_sys in (1, 2) for n_loop in range(1, 5)
           for pure in (True, False)],
    )
    def test_matches_oracle_channel(self, n_sys, n_loop, pure):
        """Map values and fixed-direction count against tr_sys[U (sigma x rho) U']."""
        rng = np.random.default_rng([n_sys, n_loop, int(bool(pure))])
        u = oracle.random_unitary(2 ** (n_sys + n_loop), rng)
        if n_sys == 0:
            sigma = None
        elif pure:
            sigma = oracle.density(oracle.random_unitary(2 ** n_sys, rng)[:, 0])
        else:
            sigma = oracle.random_density(2 ** n_sys, rng)

        def channel(rho):
            joint = rho if sigma is None else np.kron(sigma, rho)
            return oracle.ptrace(u @ joint @ u.conj().T, range(n_loop), n_sys + n_loop)

        p = CtcProblem(
            u, None if sigma is None else DensityMatrix.from_matrix(sigma), n_sys, n_loop
        )
        for _ in range(2):
            rho = oracle.random_density(2 ** n_loop, rng)
            out = consistency_map(p, DensityMatrix.from_matrix(rho))
            assert np.max(np.abs(out.mat - channel(rho))) <= 1e-12
        if n_loop == 4 and pure:
            return  # the oracle's 256 columns take ~0.5 s here; mixed covers the size
        d = 2 ** n_loop
        s = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d * d):
            unit = np.zeros((d, d), dtype=complex)
            unit[j // d, j % d] = 1.0
            s[:, j] = channel(unit).reshape(-1)
        sig = np.linalg.svd(s - np.eye(d * d), compute_uv=False)
        assert solve_fixed_point(p).multiplicity_hint == int(np.sum(sig <= 1e-9))

    def test_wrong_loop_size(self):
        with pytest.raises(DimensionMismatch):
            consistency_map(dist_problem("0"), maximally_mixed(2))


class TestDistinguisherUnitary:
    def test_unitary(self):
        assert is_unitary(distinguisher_unitary(), 1e-12)

    def test_consistent_pairs(self):
        u = distinguisher_unitary()
        vec_in = np.kron(KETS["0"], KETS["0"])  # system high, loop low
        assert np.allclose(u @ vec_in, vec_in, atol=1e-12)
        vec_in = np.kron(KETS["-"], KETS["1"])
        vec_out = np.kron(KETS["1"], KETS["1"])
        assert np.allclose(u @ vec_in, vec_out, atol=1e-12)


class TestSolver:
    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_distinguisher_fixed_points(self, label):
        sol = solve_fixed_point(dist_problem(label))
        assert oracle.tdist(sol.rho_loop.mat, DIST_FIXED[label]) <= 1e-10
        assert sol.residual <= 1e-12
        assert sol.multiplicity_hint == 1
        assert sol.method == "iteration"

    def test_self_consistency_invariant(self):
        for label in STATE_LABELS:
            p = dist_problem(label)
            sol = solve_fixed_point(p)
            mapped = consistency_map(p, sol.rho_loop)
            assert trace_distance(mapped, sol.rho_loop) <= 1e-10

    def test_grandfather_loop(self):
        sol = solve_fixed_point(grandfather_problem())
        assert oracle.tdist(sol.rho_loop.mat, np.eye(2) / 2) <= 1e-12
        assert sol.residual <= 1e-12
        assert sol.multiplicity_hint == 2
        assert sol.entropy_bits == pytest.approx(1.0, abs=1e-9)

    def test_dephasing_loop_keeps_max_entropy(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        sol = solve_fixed_point(CtcProblem(z, None, 0, 1))
        assert oracle.tdist(sol.rho_loop.mat, np.eye(2) / 2) <= 1e-12
        assert sol.multiplicity_hint == 2

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_bb84_fixed_points(self, label):
        sol = solve_fixed_point(bb84_problem(label))
        expect = np.zeros((4, 4), dtype=complex)
        idx = BB84_CLAIM_INDEX[label]
        expect[idx, idx] = 1.0
        assert oracle.tdist(sol.rho_loop.mat, expect) <= 1e-8
        assert sol.residual <= 1e-10
        assert sol.multiplicity_hint == 1

    def test_eigensolve_fallback(self):
        sol = solve_fixed_point(dist_problem("0"), max_iter=4)
        assert sol.method == "eigensolve"
        assert oracle.tdist(sol.rho_loop.mat, DIST_FIXED["0"]) <= 1e-10
        assert sol.residual <= 1e-12

    def test_entropy_reported(self):
        sol = solve_fixed_point(dist_problem("0"))
        assert sol.entropy_bits == pytest.approx(0.0, abs=1e-9)

    def test_bad_solver_params(self):
        with pytest.raises(BadParams):
            solve_fixed_point(dist_problem("0"), tol=0.0)
        with pytest.raises(BadParams):
            solve_fixed_point(dist_problem("0"), max_iter=0)


class TestRunCtc:
    def test_distinguisher_zero(self):
        result = run_ctc_circuit(dist_problem("0"), [1])
        assert result.distribution == {"0": 1.0}
        assert result.solution.residual <= 1e-10

    def test_distinguisher_minus(self):
        result = run_ctc_circuit(dist_problem("-"), [1])
        assert result.distribution == {"1": 1.0}

    def test_distinguisher_off_design_inputs(self):
        result = run_ctc_circuit(dist_problem("1"), [1])
        assert result.distribution["1"] == pytest.approx(2 / 3, abs=1e-9)
        result = run_ctc_circuit(dist_problem("+"), [1])
        assert result.distribution["1"] == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_bb84_single_shot_table(self, label):
        result = run_ctc_circuit(bb84_problem(label), [2, 3])
        assert result.distribution == {BB84_OUTPUT[label]: 1.0}
        assert result.solution.residual <= 1e-10

    def test_grandfather_has_nothing_to_measure(self):
        result = run_ctc_circuit(grandfather_problem(), [])
        assert result.distribution == {}
        assert result.solution.residual <= 1e-12

    def test_loop_qubits_not_measurable(self):
        with pytest.raises(BadTargets):
            run_ctc_circuit(dist_problem("0"), [0])
        with pytest.raises(BadTargets):
            run_ctc_circuit(bb84_problem("0"), [2, 2])


class TestBb84Unitary:
    def test_unitary(self):
        assert is_unitary(bb84_unitary(), 1e-12)

    def test_correct_claims_are_invariant(self):
        u = bb84_unitary()
        for label in STATE_LABELS:
            idx = BB84_CLAIM_INDEX[label]
            loop = np.zeros(4, dtype=complex)
            loop[idx] = 1.0
            vec_in = np.kron(np.kron(KETS["0"], KETS[label]), loop)  # a, s, loop
            out = u @ vec_in
            # loop register factor must come back unchanged
            back = out.reshape(4, 4)  # rows: system block, cols: loop block
            probs = np.sum(np.abs(back) ** 2, axis=0)
            assert probs[idx] == pytest.approx(1.0, abs=1e-12)


class TestClassicalControlDemo:
    def test_returns_plain_circuit(self):
        c = classical_control_demo("0", "single")
        assert isinstance(c, Circuit)
        kinds = [i.gate.kind for i in c.instructions if i.op == "unitary"]
        assert kinds == ["SWAP", "CH"]  # no preparation gates for |0>

    def test_minus_preparation_gates(self):
        c = classical_control_demo("-", "single")
        kinds = [i.gate.kind for i in c.instructions if i.op == "unitary"]
        assert kinds[:3] == ["H", "Z", "X"]

    def test_single_distributions(self):
        assert demo_distribution("0", "single") == pytest.approx({"0": 1.0}, abs=1e-12)
        assert demo_distribution("-", "single") == pytest.approx({"1": 1.0}, abs=1e-12)

    def test_single_rejects_undistinguishable_labels(self):
        for label in ("1", "+"):
            with pytest.raises(BadLabel):
                classical_control_demo(label, "single")

    def test_unknown_protocol_or_label(self):
        with pytest.raises(BadLabel):
            classical_control_demo("0", "double")
        with pytest.raises(BadLabel):
            classical_control_demo("2", "bb84")

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_bb84_distributions(self, label):
        dist = demo_distribution(label, "bb84")
        assert dist[BB84_OUTPUT[label]] == pytest.approx(1.0, abs=1e-9)

    def test_mode_agreement(self):
        """Pre-seeded demo circuits match the honest fixed-point runs."""
        pairs = [("0", "single"), ("-", "single")] + [
            (label, "bb84") for label in STATE_LABELS
        ]
        for label, protocol in pairs:
            demo = demo_distribution(label, protocol)
            if protocol == "single":
                honest = run_ctc_circuit(dist_problem(label), [1]).distribution
            else:
                honest = run_ctc_circuit(bb84_problem(label), [2, 3]).distribution
            keys = set(demo) | set(honest)
            for key in keys:
                assert demo.get(key, 0.0) == pytest.approx(
                    honest.get(key, 0.0), abs=1e-9
                )


class TestNonlinearity:
    def test_witness_magnitude(self):
        witness = nonlinearity_witness()
        assert witness.trace_distance == pytest.approx(np.sqrt(2) / 6, abs=1e-9)
        assert witness.trace_distance > 0.05

    def test_witness_components(self):
        witness = nonlinearity_witness()
        assert oracle.tdist(witness.mixture_fixed_point.mat, np.eye(2) / 2) <= 1e-10
        averaged = (DIST_FIXED["0"] + DIST_FIXED["1"]) / 2
        assert oracle.tdist(witness.averaged_fixed_points.mat, averaged) <= 1e-8

    def test_componentwise_linearity_fails(self):
        """The fixed point of a mixture is not the mixture of fixed points."""
        mix = DensityMatrix.from_matrix((DIST_FIXED["0"] + DIST_FIXED["1"]) / 2)
        p = CtcProblem(distinguisher_unitary(), maximally_mixed(1), 1, 1)
        sol = solve_fixed_point(p)
        assert oracle.tdist(sol.rho_loop.mat, mix.mat) > 0.05


class TestDemoCircuitShapes:
    def test_bb84_demo_measures_two_bits(self):
        c = classical_control_demo("+", "bb84")
        measures = [i for i in c.instructions if i.op == "measure"]
        assert len(measures) == 2
        assert run_density(c).distribution  # runs clean
