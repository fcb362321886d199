"""Metamorphic relations: how an answer must move when its input moves.

A relation needs no second implementation of the physics; it compares the
program with itself on related inputs drawn from a seeded generator.
"""

import numpy as np
import pytest

import oracle
from paradoxlab import ctc, epr, szilard
from paradoxlab.circuit import Circuit
from paradoxlab.descriptor import locality_audit
from paradoxlab.qmath import SOLVE_TOL, DensityMatrix, trace_distance
from util import random_unitary_circuit

# Related sweep points differ by the rounding of a few gate applications on
# 32-entry state vectors, a few ulps of 1; this bound is far above that.
SWEEP_ATOL = 1e-12
# The CLI's print floor. An audit of a unitary circuit changes nothing off a
# step's support in exact arithmetic, so each delta is the rounding of a few
# products of matrices of side at most 64 with entries at most 1 in modulus:
# tens of ulps of 1, far below this bound.
AUDIT_PRINT_FLOOR = 1e-12


def sweep_grid(thetas, phis) -> np.ndarray:
    p = [point.p_check_one for point in epr.sweep(thetas, phis)]
    return np.reshape(p, (len(thetas), len(phis)))


def test_epr_check_depends_on_the_angle_sum_alone():
    rng = np.random.default_rng(7)
    thetas, phis = rng.uniform(-2 * np.pi, 2 * np.pi, size=(2, 40))
    base = sweep_grid(thetas, phis)
    related = {"swapped": sweep_grid(phis, thetas).T,
               "theta + 2 pi": sweep_grid(thetas + 2 * np.pi, phis),
               "phi + 2 pi": sweep_grid(thetas, phis + 2 * np.pi)}
    for delta in rng.uniform(-np.pi, np.pi, size=3):
        related[f"shifted by {delta:+.3f}"] = sweep_grid(thetas + delta, phis - delta)
    gaps = {name: float(np.max(np.abs(grid - base))) for name, grid in related.items()}
    assert max(gaps.values()) <= SWEEP_ATOL, gaps


@pytest.mark.parametrize("skip_reset", [True, False])
def test_engine_run_is_a_prefix_of_a_longer_run(skip_reset):
    """A cycle depends only on the cycles before it, sampled totals included."""
    def run(cycles):
        cfg = szilard.SzilardConfig(cycles=cycles, skip_reset=skip_reset, depolarize_p=0.7)
        return szilard.run_cycles(cfg, shots=1000, seed=5)

    assert run(5) == run(12)[:5]


def traceless_gap(u, sigma, n_loop) -> float:
    """The smallest singular value of S - I on traceless loop matrices, S the
    loop map (``oracle.superoperator``): 0 unless the fixed point is unique."""
    d = 2 ** n_loop
    traceless = np.linalg.svd(np.eye(d).reshape(1, -1))[2][1:].conj().T
    s = oracle.superoperator(u, sigma, n_loop)
    return float(np.linalg.svd((s - np.eye(d * d)) @ traceless, compute_uv=False)[-1])


@pytest.mark.parametrize("n_loop", [1, 2, 3, 4])
def test_loop_fixed_point_follows_a_loop_basis_change(n_loop):
    """W = (I x V) U (I x V^dag) has the fixed point V rho V^dag, rho U's.

    Bound: a solve returns x with trace-distance residual at most SOLVE_TOL,
    so |(S - I) x|_F <= 2 SOLVE_TOL. x and the exact fixed point both have
    trace one, so their difference is traceless and, with g the gap above,
    at most 2 SOLVE_TOL / g in Frobenius norm, sqrt(d) SOLVE_TOL / g in trace
    distance. Clipping x's negative weight and renormalizing at most triples
    that. The maps of U and W are unitarily similar, so they share g, and the
    relation may miss by twice one solve's bound.
    """
    rng = np.random.default_rng([15, n_loop])
    d = 2 ** n_loop
    for _ in range(3):
        u = oracle.random_unitary(2 * d, rng)
        v = oracle.random_unitary(d, rng)
        sigma = oracle.random_density(2, rng)
        lift = np.kron(np.eye(2), v)
        base = ctc.solve_fixed_point(ctc.CtcProblem(u, DensityMatrix(sigma))).rho_loop.mat
        moved = ctc.CtcProblem(lift @ u @ lift.conj().T, DensityMatrix(sigma))
        got = ctc.solve_fixed_point(moved).rho_loop.mat
        bound = 2 * 3 * np.sqrt(d) * SOLVE_TOL / traceless_gap(u, sigma, n_loop)
        assert trace_distance(got, v @ base @ v.conj().T) <= bound


@pytest.mark.parametrize("n_sys, n_loop", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_loop_answer_follows_a_system_basis_change(n_sys, n_loop):
    """U' = U (W^dag x I) fed the system state W sigma W^dag has U's fixed
    point and U's readout.

    U' (W sigma W^dag x rho) U'^dag = U (sigma x rho) U^dag for every loop
    state rho, so both problems have one loop map, hence one gap g, and one
    evolved joint state per loop state. Bound: as in the loop-basis relation,
    each solve lies within 3 sqrt(d) SOLVE_TOL / g of the exact fixed point
    in trace distance, so the two solves within twice that. The readout
    probabilities are a channel of the loop state, so each moves by at most
    the loop states' trace distance, plus rounding: five products of
    dim-sided matrices with entries at most 1 in modulus (U', W sigma W^dag
    and the evolved joint state), each entry off by at most about dim ulps.
    """
    rng = np.random.default_rng([16, n_sys, n_loop])
    d, dim = 2 ** n_loop, 2 ** (n_sys + n_loop)
    for _ in range(3):
        u = oracle.random_unitary(dim, rng)
        w = oracle.random_unitary(2 ** n_sys, rng)
        sigma = oracle.random_density(2 ** n_sys, rng)
        base = ctc.run_ctc_circuit(ctc.CtcProblem(u, DensityMatrix(sigma)))
        moved = ctc.run_ctc_circuit(ctc.CtcProblem(
            u @ np.kron(w.conj().T, np.eye(d)), DensityMatrix(w @ sigma @ w.conj().T)))
        bound = 2 * 3 * np.sqrt(d) * SOLVE_TOL / traceless_gap(u, sigma, n_loop)
        assert trace_distance(moved.solution.rho_loop, base.solution.rho_loop) <= bound
        assert moved.distribution.keys() == base.distribution.keys()
        gaps = [abs(moved.distribution[k] - p) for k, p in base.distribution.items()]
        assert max(gaps) <= bound + 5 * dim * np.finfo(float).eps


def relabeled(c: Circuit, perm) -> Circuit:
    """``c`` with every gate target q moved to ``perm[q]``."""
    doc = c.to_dict()
    for instr in doc["instructions"]:
        instr["targets"] = [int(perm[q]) for q in instr["targets"]]
    return Circuit.from_dict(doc)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_locality_audit_ignores_qubit_labels(n):
    """Renaming the qubits of a unitary circuit moves no step's verdict.

    Each step's off-support drift is a rounding residue, so both audits pass
    every step with every delta below the print floor, whatever the labels.
    """
    rng = np.random.default_rng([15, n])
    for _ in range(12):
        c = random_unitary_circuit(n, int(rng.integers(5, 31)), rng)
        base, moved = locality_audit(c), locality_audit(relabeled(c, rng.permutation(n)))
        assert [s.ok for s in moved.steps] == [s.ok for s in base.steps]
        assert moved.overall == base.overall
        deltas = [s.max_offsupport_delta for s in base.steps + moved.steps]
        assert max(deltas) <= AUDIT_PRINT_FLOOR, max(deltas)
