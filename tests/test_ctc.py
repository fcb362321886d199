from __future__ import annotations

import numpy as np
import pytest

import oracle
from paradoxlab import cli, ctc
from paradoxlab.circuit import Circuit, run_density
from paradoxlab.ctc import (
    STATE_LABELS,
    CtcProblem,
    bb84_problem,
    bb84_unitary,
    classical_control_demo,
    consistency_map,
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
    DimensionMismatch,
    InvalidState,
    NoConvergence,
    NonUnitary,
    TooManyQubits,
)
from paradoxlab.qmath import (
    OUTCOME_FLOOR,
    SOLVE_TOL,
    DensityMatrix,
    is_unitary,
    maximally_mixed,
    trace_distance,
)
from util import BUILDS, count_calls

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
            rho = state_from_label(label).mat
            assert np.allclose(rho, oracle.density(KETS[label]), atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(BadLabel):
            state_from_label("x")


class TestProblemValidation:
    def test_unitarity_enforced(self):
        with pytest.raises(NonUnitary):
            CtcProblem(np.ones((4, 4), dtype=complex), maximally_mixed(1))

    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatch, match="not square"):
            CtcProblem(np.eye(4, 2, dtype=complex), maximally_mixed(1))
        with pytest.raises(DimensionMismatch, match="power of two"):
            CtcProblem(np.eye(6, dtype=complex), maximally_mixed(1))

    def test_sizes_derived_from_arrays(self):
        u = np.eye(8, dtype=complex)
        p = CtcProblem(u, maximally_mixed(1))
        assert (p.n_sys, p.n_loop) == (1, 2)
        p = CtcProblem(u)
        assert (p.n_sys, p.n_loop) == (0, 3)
        assert DensityMatrix(np.eye(4) / 4).n == 2
        with pytest.raises(InvalidState, match="not square"):
            DensityMatrix(np.full((2, 4), 0.25))
        with pytest.raises(DimensionMismatch, match="power of two"):
            DensityMatrix(np.eye(3) / 3)

    def test_qubit_ceiling_is_the_circuit_limit(self):
        CtcProblem(np.eye(64, dtype=complex))
        with pytest.raises(TooManyQubits, match=r"^7 qubits exceeds the limit of 6$"):
            CtcProblem(np.eye(128, dtype=complex))

    def test_loopless_problem_rejected(self):
        with pytest.raises(BadParams):
            CtcProblem(np.eye(2, dtype=complex), maximally_mixed(1))


class TestSharedProblems:
    """The demo problems are built once per process and handed out read-only."""

    BUILDERS = {"distinguisher": distinguisher_problem, "bb84": bb84_problem}

    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_one_read_only_problem_per_label(self, build, label):
        p = build(label)
        assert build(label) is p
        assert not p.u.flags.writeable and not p.system_state.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p.u[0, 0] = 0

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_one_read_only_state_per_label(self, label):
        state = state_from_label(label)
        assert state_from_label(label) is state and not state.mat.flags.writeable

    def test_grandfather_is_shared_read_only(self):
        p = grandfather_problem()
        assert grandfather_problem() is p and not p.u.flags.writeable

    @pytest.mark.parametrize("build", [*BUILDERS.values(), state_from_label],
                             ids=[*BUILDERS, "state"])
    @pytest.mark.parametrize("label", ["x", "", None, 0, ["0"], {"0": 1}, np.array("0")],
                             ids=["text", "empty", "none", "int", "list", "dict", "array"])
    def test_bad_label_refused(self, build, label):
        with pytest.raises(BadLabel):
            build(label)

    def test_second_bb84_run_builds_no_circuit(self, monkeypatch, capsys):
        argv = ["ctc", "bb84", "--input", "+"]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        counted = count_calls(monkeypatch, BUILDS)
        assert cli.main(argv) == 0
        assert capsys.readouterr() == first
        assert counted == {"validate": 0, "is_unitary": 0}


class TestConsistencyMap:
    def test_identity_interaction(self):
        p = CtcProblem(np.eye(4, dtype=complex), maximally_mixed(1))
        rho = DensityMatrix(oracle.random_density(2, np.random.default_rng(5)))
        out = consistency_map(p, rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_swap_loads_system_into_loop(self):
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        p = CtcProblem(swap, DensityMatrix(np.diag([1.0, 0])))
        rho = DensityMatrix(oracle.random_density(2, np.random.default_rng(7)))
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
            sys_state = DensityMatrix(oracle.random_density(2 ** n_sys, rng))
            p = CtcProblem(u, sys_state)
            rho = DensityMatrix(oracle.random_density(2 ** n_loop, rng))
            out = consistency_map(p, rho)  # constructor enforces the invariants
            assert abs(np.trace(out.mat).real - 1.0) <= 1e-10

    @pytest.mark.parametrize("n_loop", [1, 2, 3])
    def test_output_is_exactly_hermitian(self, n_loop):
        """The channel's raw output is Hermitian only to rounding; the map's is exactly."""
        rng = np.random.default_rng([29, n_loop])
        for seed in range(5):
            p = random_loop_problem(1, n_loop, [29, n_loop, seed])
            m = consistency_map(p, DensityMatrix(oracle.random_density(2 ** n_loop, rng))).mat
            assert np.array_equal(m, m.conj().T)

    @pytest.mark.parametrize(
        "n_sys, n_loop, pure",
        [(0, n_loop, None) for n_loop in range(1, 5)]
        + [(n_sys, n_loop, pure) for n_sys in (1, 2) for n_loop in range(1, 5)
           for pure in (True, False)],
    )
    def test_matches_oracle_channel(self, n_sys, n_loop, pure):
        """Map values against tr_sys[U (sigma x rho) U']."""
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

        p = CtcProblem(u, None if sigma is None else DensityMatrix(sigma))
        for _ in range(2):
            rho = oracle.random_density(2 ** n_loop, rng)
            out = consistency_map(p, DensityMatrix(rho))
            assert np.max(np.abs(out.mat - channel(rho))) <= 1e-12

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
        assert (sol.method, sol.iterations) == ("eigensolve", 3)

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
        assert sol.entropy_bits == pytest.approx(1.0, abs=1e-9)
        # I/2 is its own image: returned before any Krylov step, not divided by
        # its zero residual.
        assert sol.iterations == 1

    def test_dephasing_loop_keeps_max_entropy(self):
        z = np.diag([1.0, -1.0]).astype(complex)
        sol = solve_fixed_point(CtcProblem(z))
        assert oracle.tdist(sol.rho_loop.mat, np.eye(2) / 2) <= 1e-12
        assert sol.iterations == 1

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_bb84_fixed_points(self, label):
        sol = solve_fixed_point(bb84_problem(label))
        expect = np.zeros((4, 4), dtype=complex)
        idx = BB84_CLAIM_INDEX[label]
        expect[idx, idx] = 1.0
        assert oracle.tdist(sol.rho_loop.mat, expect) <= 1e-8
        assert sol.residual <= 1e-10

    def test_eigensolve_fallback(self):
        """A weak partial SWAP mixes too slowly for plain iteration; GMRES
        solves it in one Krylov step, two map applications in all."""
        p = CtcProblem(oracle.partial_swap(1, 0.03), state_from_label("0"))
        sol = solve_fixed_point(p)
        assert (sol.method, sol.iterations) == ("eigensolve", 2)
        assert oracle.tdist(sol.rho_loop.mat, DIST_FIXED["0"]) <= 1e-10
        assert sol.residual <= 1e-12

    def test_entropy_reported(self):
        sol = solve_fixed_point(dist_problem("0"))
        assert sol.entropy_bits == pytest.approx(0.0, abs=1e-9)

    def test_bad_solver_params(self):
        for tol in (0.0, 1.0, 1e30, float("inf"), float("nan"), -1, 2.5, True, "1e-6"):
            with pytest.raises(BadParams, match="tol must be a positive real below 1"):
                solve_fixed_point(dist_problem("0"), tol=tol)

    @pytest.mark.parametrize("n_loop", [2, 5])
    def test_unreachable_tolerance(self, n_loop):
        """No loop state is self-consistent to 1e-300; the solve says so."""
        rng = np.random.default_rng(n_loop)
        u = oracle.random_unitary(2 ** (n_loop + 1), rng)
        p = CtcProblem(u, state_from_label("+"))
        with pytest.raises(NoConvergence):
            solve_fixed_point(p, tol=1e-300)

    @pytest.mark.parametrize("n_loop", [1, 3])
    def test_rounding_floor_stops_the_krylov_steps(self, n_loop):
        """At 1e-300 these loops reach the map's rounding floor before the
        Krylov bound: GMRES stops there and the residual check reports the
        stagnation, rather than running out of Krylov space."""
        p = CtcProblem(oracle.partial_swap(n_loop, 0.3), state_from_label("+"))
        with pytest.raises(NoConvergence, match="^GMRES stagnated at residual "):
            solve_fixed_point(p, tol=1e-300)

    def test_nilpotent_map_breaks_gmres_down(self):
        """S - I = A with A e0 = e1 and A e1 = 0, in GMRES's real coordinates:
        the first Krylov vector e1 is sent to zero, so the space is singular
        before any correction is found."""
        a = np.zeros((4, 4))
        a[1, 0] = 1.0

        def apply(x):
            return x + (a @ (x.real + x.imag).ravel()).reshape(2, 2)

        with pytest.raises(NoConvergence, match="^GMRES broke down on a singular Krylov space$"):
            ctc._gmres_fixed_point(apply, 2, SOLVE_TOL)

    def test_non_finite_map_exhausts_the_krylov_space(self):
        """A map that returns NaN never meets the stopping rule, and its
        Krylov steps never break down, so the solve runs out of space instead
        of returning a NaN fixed point. A finite map runs out only through
        rounding: in exact arithmetic the d*d-th step closes the space."""
        with pytest.raises(NoConvergence, match="^GMRES exhausted the Krylov space above 1e-12$"):
            ctc._gmres_fixed_point(lambda x: x * np.nan, 2, SOLVE_TOL)


def random_loop_problem(n_sys, n_loop, seed):
    rng = np.random.default_rng(seed)
    u = oracle.random_unitary(2 ** (n_sys + n_loop), rng)
    state = DensityMatrix(oracle.random_density(2 ** n_sys, rng)) if n_sys else None
    return CtcProblem(u, state)


def partial_swap_problem(n_loop, angle, seed):
    rng = np.random.default_rng(seed)
    state = DensityMatrix(oracle.random_density(2, rng))
    return CtcProblem(oracle.partial_swap(n_loop, angle), state)


def _sigma(p):
    return p.system_state.mat if p.n_sys else np.ones((1, 1))


# Loops with a known number of fixed directions, one or many.
FIXED_SPACE_PROBLEMS = {
    "grandfather": (grandfather_problem, 2),
    "identity on 2 loop qubits": (lambda: CtcProblem(np.eye(8), state_from_label("+")), 16),
    "Z dephasing": (lambda: CtcProblem(np.diag([1.0, -1.0])), 2),
    **{f"partial SWAP at 0.3 on {n} loop qubits": (
        lambda n=n: CtcProblem(oracle.partial_swap(n, 0.3), state_from_label("+")),
        4 ** (n - 1)) for n in range(1, 5)},
    **{f"Haar on {n} loop qubits": (lambda n=n: random_loop_problem(1, n, [7, n]), 1)
       for n in range(1, 5)},
}


class TestRealForm:
    """GMRES solves in the real coordinates y = vec(Re X + Im X) of a Hermitian
    X, and its own answer already lies in the loop's fixed space, which a
    complex SVD of S - I finds, also where that space has many directions."""

    @pytest.mark.parametrize("name", FIXED_SPACE_PROBLEMS)
    def test_fixed_space_matches_complex_svd(self, name):
        """The answer equals its projection onto the oracle's fixed space."""
        make, count = FIXED_SPACE_PROBLEMS[name]
        p = make()
        d = 2 ** p.n_loop
        null = oracle.fixed_space(p.u, _sigma(p), p.n_loop)
        best, _ = ctc._gmres_fixed_point(ctc._loop_map(ctc._loop_kraus(p)), d, SOLVE_TOL)
        projected = (null @ (null.conj().T @ best.reshape(-1))).reshape(d, d)
        projected = (projected + projected.conj().T) / 2
        sol = solve_fixed_point(p)
        assert null.shape[1] == count
        assert np.max(np.abs(sol.rho_loop.mat - projected / np.trace(projected))) <= 1e-12


class TestStackedPass:
    """Randomized equivalence of the solve with the dense Cesaro-limit oracle:
    random loops and partial SWAPs, each solved at 1e-12 against the oracle
    and at 1e-3 against its own tolerance."""

    @staticmethod
    def assert_matches(p, expect):
        sol = solve_fixed_point(p)
        assert np.max(np.abs(sol.rho_loop.mat - expect)) <= 1e-9
        assert sol.residual <= 1e-12
        assert solve_fixed_point(p, tol=1e-3).residual <= 1e-3

    @pytest.mark.parametrize("n_loop", [1, 2, 3])
    @pytest.mark.parametrize("n_sys", [0, 1, 2])
    def test_random_loops(self, n_sys, n_loop):
        for seed in range(3):
            p = random_loop_problem(n_sys, n_loop, [n_sys, n_loop, seed])
            sigma = p.system_state.mat if n_sys else np.ones((1, 1))
            self.assert_matches(p, oracle.cesaro_limit(p.u, sigma, n_loop))

    @pytest.mark.parametrize("n_loop", range(1, 6))
    @pytest.mark.parametrize("angle", [0.3, 0.1, 0.03])
    def test_weak_partial_swaps(self, angle, n_loop):
        """At 5 loop qubits the oracle's 1024-column SVD takes ~1.2 s; there the
        limit is read in closed form: loop qubit 0 takes the input, the idle
        loop qubits keep I/d."""
        p = partial_swap_problem(n_loop, angle, n_loop)
        sigma = p.system_state.mat
        if n_loop <= 4:
            expect = oracle.cesaro_limit(p.u, sigma, n_loop)
        else:
            expect = np.kron(np.eye(2 ** (n_loop - 1)) / 2 ** (n_loop - 1), sigma)
        self.assert_matches(p, expect)


def weak_loop(n_loop, eps, seed):
    """exp(-i eps H) on one system qubit (+) and the loop, H Hermitian Gaussian."""
    rng = np.random.default_rng(seed)
    dim = 2 ** (n_loop + 1)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vals, vecs = np.linalg.eigh((z + z.conj().T) / 2)
    u = (vecs * np.exp(-1j * eps * vals)) @ vecs.conj().T
    return CtcProblem(u, state_from_label("+"))


class TestSlowLoops:
    """Loops that mix too slowly for plain iteration, on every register size."""

    @pytest.mark.parametrize("n_loop", range(1, 6))
    @pytest.mark.parametrize("angle", [0.01, 0.03])
    def test_weak_partial_swap(self, angle, n_loop):
        """Loop qubit 0 takes the input; the idle loop qubits stay maximally mixed.
        The start's residual is an eigenvector of the map: one Krylov step."""
        u = oracle.partial_swap(n_loop, angle)
        idle = np.eye(2 ** (n_loop - 1)) / 2 ** (n_loop - 1)
        for label in STATE_LABELS:
            psi = oracle.density(KETS[label])
            sol = solve_fixed_point(CtcProblem(u, DensityMatrix(psi)))
            assert np.max(np.abs(sol.rho_loop.mat - np.kron(idle, psi))) <= 1e-10
            assert (sol.method, sol.iterations) == ("eigensolve", 2)

    @pytest.mark.parametrize("n_loop", range(2, 6))
    @pytest.mark.parametrize("eps", [0.05, 0.01])
    def test_weakly_coupled_random_loop(self, eps, n_loop):
        p = weak_loop(n_loop, eps, seed=[n_loop, int(eps * 1000)])
        sol = solve_fixed_point(p)
        if n_loop <= 4:
            expect = oracle.cesaro_limit(p.u, p.system_state.mat, n_loop)
            assert np.max(np.abs(sol.rho_loop.mat - expect)) <= 1e-9
        else:
            assert trace_distance(consistency_map(p, sol.rho_loop), sol.rho_loop) <= 1e-12


class TestRunCtc:
    def test_distinguisher_zero(self):
        result = run_ctc_circuit(dist_problem("0"))
        assert result.distribution == {"0": 1.0}
        assert result.solution.residual <= 1e-10

    def test_distinguisher_minus(self):
        result = run_ctc_circuit(dist_problem("-"))
        assert result.distribution == {"1": 1.0}

    def test_distinguisher_off_design_inputs(self):
        result = run_ctc_circuit(dist_problem("1"))
        assert result.distribution["1"] == pytest.approx(2 / 3, abs=1e-9)
        result = run_ctc_circuit(dist_problem("+"))
        assert result.distribution["1"] == pytest.approx(1 / 3, abs=1e-9)

    @pytest.mark.parametrize("label", STATE_LABELS)
    def test_bb84_single_shot_table(self, label):
        result = run_ctc_circuit(bb84_problem(label))
        assert result.distribution == {BB84_OUTPUT[label]: 1.0}
        assert result.solution.residual <= 1e-10

    def test_grandfather_has_nothing_to_measure(self):
        result = run_ctc_circuit(grandfather_problem())
        assert result.distribution == {}
        assert result.solution.residual <= 1e-12

    @staticmethod
    def _reference_readout(p, rho_loop):
        """Read out every system qubit, lowest first, from the evolved joint state."""
        joint = np.kron(p.system_state.mat, rho_loop.mat)
        evolved = p.u @ joint @ p.u.conj().T
        dist = {}
        for index, prob in enumerate(np.real(np.diag(evolved))):
            if prob <= 0.0:
                continue
            key = "".join(str((index >> q) & 1) for q in range(p.n_loop, p.n_loop + p.n_sys))
            dist[key] = dist.get(key, 0.0) + float(prob)
        dist = {k: v for k, v in dist.items() if v > OUTCOME_FLOOR}
        total = sum(dist.values())
        return {k: v / total for k, v in sorted(dist.items())}

    @pytest.mark.parametrize("seed", range(6))
    def test_reads_every_system_qubit_lowest_first(self, seed):
        rng = np.random.default_rng(seed)
        n_sys, n_loop = 1 + seed % 2, 1 + (seed // 2) % 2
        u = oracle.random_unitary(2 ** (n_sys + n_loop), rng)
        if seed < 3:
            sigma = oracle.density(oracle.random_unitary(2 ** n_sys, rng)[:, 0])
        else:
            sigma = oracle.random_density(2 ** n_sys, rng)
        p = CtcProblem(u, DensityMatrix(sigma))
        result = run_ctc_circuit(p)
        assert result.distribution == self._reference_readout(p, result.solution.rho_loop)


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
        assert run_density(classical_control_demo("0", "single")).distribution == pytest.approx({"0": 1.0}, abs=1e-12)
        assert run_density(classical_control_demo("-", "single")).distribution == pytest.approx({"1": 1.0}, abs=1e-12)

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
        dist = run_density(classical_control_demo(label, "bb84")).distribution
        assert dist[BB84_OUTPUT[label]] == pytest.approx(1.0, abs=1e-9)

    def test_mode_agreement(self):
        """Pre-seeded demo circuits match the honest fixed-point runs."""
        pairs = [("0", "single"), ("-", "single")] + [
            (label, "bb84") for label in STATE_LABELS
        ]
        for label, protocol in pairs:
            demo = run_density(classical_control_demo(label, protocol)).distribution
            if protocol == "single":
                honest = run_ctc_circuit(dist_problem(label)).distribution
            else:
                honest = run_ctc_circuit(bb84_problem(label)).distribution
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
        mix = DensityMatrix((DIST_FIXED["0"] + DIST_FIXED["1"]) / 2)
        p = CtcProblem(distinguisher_unitary(), maximally_mixed(1))
        sol = solve_fixed_point(p)
        assert oracle.tdist(sol.rho_loop.mat, mix.mat) > 0.05


class TestDemoCircuitShapes:
    def test_bb84_demo_measures_two_bits(self):
        c = classical_control_demo("+", "bb84")
        measures = [i for i in c.instructions if i.op == "measure"]
        assert len(measures) == 2
        assert run_density(c).distribution  # runs clean
