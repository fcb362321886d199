"""Closed-timelike-curve engine built on the self-consistency rule.

A loop register enters an interaction together with ordinary system qubits
and must come out in exactly the state it went in: the physical loop state
is a fixed point of the map rho -> tr_sys(U (rho_sys x rho) U').  This
module finds such fixed points, runs circuits against them, and ships the
two demonstration interactions: a single-qubit discriminator that tells
|0> from |-> in one shot, and a four-state discriminator that reads out
both the basis and the value of an unknown |0>/|1>/|+>/|-> input.

Layout convention: loop qubits occupy the low indices, system qubits the
high ones, so a joint state is kron(system, loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, circuit_unitary, make_gate, run_density
from .errors import (
    BadLabel,
    BadParams,
    BadTargets,
    DimensionMismatch,
    NoConvergence,
    NonUnitary,
    TooManyQubits,
)
from .qmath import (
    NULL_ATOL,
    OUTCOME_FLOOR,
    SOLVE_TOL,
    DensityMatrix,
    StateVector,
    adjoint,
    is_unitary,
    kron_all,
    maximally_mixed,
    trace_distance,
    vn_entropy_bits,
)

STATE_LABELS = ("0", "1", "+", "-")

_SQ2 = 1.0 / np.sqrt(2.0)
_KETS: Dict[str, np.ndarray] = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
    "-": np.array([_SQ2, -_SQ2], dtype=complex),
}

# Loop registers larger than this skip the superoperator machinery.
_MAX_EIGEN_LOOP = 4

MAX_PROBLEM_QUBITS = 6


def state_from_label(label: str) -> StateVector:
    """One of the four standard single-qubit states by its text label."""
    if label not in _KETS:
        raise BadLabel(f"unknown state label {label!r}, expected one of 0 1 + -")
    return StateVector(1, _KETS[label])


@dataclass(frozen=True, eq=False)
class CtcProblem:
    """An interaction unitary plus the ordinary-qubit input state.

    ``u`` acts on system (high) and loop (low) qubits together;
    ``system_state`` is required exactly when ``n_sys`` > 0.
    """

    u: np.ndarray
    system_state: Optional[DensityMatrix]
    n_sys: int
    n_loop: int

    def __post_init__(self):
        if not isinstance(self.n_loop, int) or self.n_loop < 1:
            raise BadParams(f"n_loop must be a positive integer, got {self.n_loop!r}")
        if not isinstance(self.n_sys, int) or self.n_sys < 0:
            raise BadParams(f"n_sys must be a non-negative integer, got {self.n_sys!r}")
        if self.n_sys + self.n_loop > MAX_PROBLEM_QUBITS:
            raise TooManyQubits(
                f"problem has {self.n_sys + self.n_loop} qubits, "
                f"limit is {MAX_PROBLEM_QUBITS}"
            )
        u = np.asarray(self.u, dtype=complex)
        dim = 2 ** (self.n_sys + self.n_loop)
        if u.shape != (dim, dim):
            raise DimensionMismatch(
                f"unitary shape {u.shape} does not match {dim}x{dim}"
            )
        if not is_unitary(u):
            raise NonUnitary("interaction matrix is not unitary within tolerance")
        if self.n_sys == 0:
            if self.system_state is not None:
                raise BadParams("system_state given but n_sys is 0")
        else:
            if self.system_state is None:
                raise BadParams("system_state required when n_sys > 0")
            if self.system_state.n != self.n_sys:
                raise DimensionMismatch(
                    f"system_state has {self.system_state.n} qubits, expected {self.n_sys}"
                )
        object.__setattr__(self, "u", u.copy())


class NonlinearityWitness(NamedTuple):
    trace_distance: float
    mixture_fixed_point: DensityMatrix
    averaged_fixed_points: DensityMatrix


@dataclass(frozen=True)
class FixedPointSolution:
    rho_loop: DensityMatrix
    residual: float
    iterations: int
    method: str
    multiplicity_hint: int
    entropy_bits: float


@dataclass(frozen=True)
class CtcRunResult:
    distribution: Dict[str, float]
    solution: FixedPointSolution


def _loop_kraus(p: CtcProblem) -> List[np.ndarray]:
    """Kraus operators sqrt(w) (<s| x I) U (|v> x I) of the consistency map, one
    per system basis state s and eigenpair (w > 0, v) of the system state."""
    if not p.n_sys:
        return [p.u]
    d_sys, d_loop = 2 ** p.n_sys, 2 ** p.n_loop
    weights, vecs = np.linalg.eigh(p.system_state.mat)
    keep = weights > 0
    blocks = p.u.reshape(d_sys, d_loop, d_sys, d_loop)
    kraus = np.einsum("slbm,bv->vslm", blocks, vecs[:, keep] * np.sqrt(weights[keep]))
    return list(kraus.reshape(-1, d_loop, d_loop))


def _loop_map(kraus: Sequence[np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """The consistency map as a raw matrix function: mat -> sum_K K mat K'."""
    pairs = [(k, adjoint(k)) for k in kraus]
    return lambda mat: sum(k @ mat @ kdag for k, kdag in pairs)


def consistency_map(p: CtcProblem, rho_loop: DensityMatrix) -> DensityMatrix:
    """Send the loop state once around the loop."""
    if not isinstance(rho_loop, DensityMatrix) or rho_loop.n != p.n_loop:
        raise DimensionMismatch(
            f"loop state must have {p.n_loop} qubits"
        )
    out = _loop_map(_loop_kraus(p))(rho_loop.mat)
    return DensityMatrix(p.n_loop, (out + adjoint(out)) / 2)


def _to_state(mat: np.ndarray) -> Optional[np.ndarray]:
    """Hermitize, clip negative weight, renormalize; None if trace vanishes."""
    h = (mat + adjoint(mat)) / 2
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    total = float(np.sum(vals))
    if total <= NULL_ATOL:
        return None
    vals /= total
    return (vecs * vals) @ adjoint(vecs)


def solve_fixed_point(
    p: CtcProblem, tol: float = SOLVE_TOL, max_iter: int = 10000
) -> FixedPointSolution:
    """Find a self-consistent loop state.

    Iterates the consistency map from the maximally mixed state, checking
    the plain iterate, the two-step average, and the running average each
    pass; on non-convergence falls back to an eigensolve of the map's
    matrix form.  The raw winner is then projected onto the map's exact
    fixed subspace, which typically lands within machine precision.  When
    several fixed points exist the maximum-entropy candidate is kept (the
    mixed starting point already biases iteration toward it).

    ``multiplicity_hint`` counts the unit-eigenvalue directions of the map;
    it is 0 for loop registers above 4 qubits, where the matrix form is
    skipped and only plain iteration is attempted.
    """
    if not (isinstance(tol, float) and tol > 0.0):
        raise BadParams(f"tol must be a positive real, got {tol!r}")
    if not isinstance(max_iter, int) or max_iter < 1:
        raise BadParams(f"max_iter must be a positive integer, got {max_iter!r}")

    kraus = _loop_kraus(p)
    apply = _loop_map(kraus)
    d = 2 ** p.n_loop

    def residual_of(mat: np.ndarray) -> float:
        return trace_distance(apply(mat), mat)

    best: Optional[np.ndarray] = None
    best_residual = np.inf
    iterations = 0
    method = "iteration"

    rho = np.eye(d, dtype=complex) / d
    running_sum = np.zeros((d, d), dtype=complex)
    for k in range(1, max_iter + 1):
        nxt = apply(rho)
        running_sum += nxt
        for cand in (nxt, (rho + nxt) / 2, running_sum / k):
            r = residual_of(cand)
            if r < best_residual:
                best, best_residual = cand, r
        if best_residual <= tol:
            iterations = k
            break
        rho = nxt
    else:
        iterations = max_iter

    use_superop = p.n_loop <= _MAX_EIGEN_LOOP
    multiplicity = 0
    null_basis = None
    if use_superop:
        # Row-major vec(K rho K') = kron(K, K*) vec(rho).
        s = sum(np.kron(k, k.conj()) for k in kraus)
        _, sig, vh = np.linalg.svd(s - np.eye(d * d))
        null_rows = vh[sig <= NULL_ATOL]
        multiplicity = null_rows.shape[0]
        null_basis = null_rows.conj().T  # columns span the fixed subspace

    if best_residual > tol:
        if null_basis is None or null_basis.shape[1] == 0:
            raise NoConvergence(
                f"no fixed point within {tol} after {max_iter} iterations "
                f"(best residual {best_residual:.3e})"
            )
        method = "eigensolve"
        candidates: List[np.ndarray] = []
        start = (np.eye(d, dtype=complex) / d).reshape(-1)
        projected = (null_basis @ (adjoint(null_basis) @ start)).reshape(d, d)
        for raw in [projected] + [v.reshape(d, d) for v in null_basis.T]:
            for part in (raw, (raw - adjoint(raw)) / 2j):
                state = _to_state(part)
                if state is not None and residual_of(state) <= tol:
                    candidates.append(state)
        if not candidates:
            raise NoConvergence(
                f"eigensolve found no self-consistent state within {tol}"
            )
        best = max(
            candidates, key=lambda m: vn_entropy_bits(DensityMatrix.from_matrix(m))
        )
        best_residual = residual_of(best)

    if null_basis is not None and null_basis.shape[1] > 0:
        vec = best.reshape(-1)
        refined = (null_basis @ (adjoint(null_basis) @ vec)).reshape(d, d)
        state = _to_state(refined)
        if state is not None:
            r = residual_of(state)
            if r <= best_residual:
                best, best_residual = state, r

    rho_star = DensityMatrix.from_matrix(_to_state(best))
    return FixedPointSolution(
        rho_loop=rho_star,
        residual=float(residual_of(rho_star.mat)),
        iterations=iterations,
        method=method,
        multiplicity_hint=multiplicity,
        entropy_bits=vn_entropy_bits(rho_star),
    )


def run_ctc_circuit(
    p: CtcProblem, measure: Sequence[int], tol: float = SOLVE_TOL
) -> CtcRunResult:
    """Solve the loop, evolve system x loop through the interaction, and
    read out the listed system qubits (first listed renders leftmost)."""
    targets = [int(q) for q in measure]
    if len(set(targets)) != len(targets):
        raise BadTargets(f"duplicate measurement targets in {targets}")
    for q in targets:
        if not p.n_loop <= q < p.n_loop + p.n_sys:
            raise BadTargets(
                f"qubit {q} is not a system qubit of this problem"
            )
    solution = solve_fixed_point(p, tol=tol)
    joint = (
        np.kron(p.system_state.mat, solution.rho_loop.mat)
        if p.n_sys
        else solution.rho_loop.mat
    )
    evolved = p.u @ joint @ adjoint(p.u)
    distribution: Dict[str, float] = {}
    if targets:
        probs = np.real(np.diag(evolved))
        for index, prob in enumerate(probs):
            if prob <= 0.0:
                continue
            key = "".join(str((index >> q) & 1) for q in targets)
            distribution[key] = distribution.get(key, 0.0) + float(prob)
        distribution = {k: v for k, v in distribution.items() if v > OUTCOME_FLOOR}
        total = sum(distribution.values())
        distribution = {k: v / total for k, v in sorted(distribution.items())}
    return CtcRunResult(distribution=distribution, solution=solution)


def _distinguisher_gates(c: Circuit) -> Circuit:
    return c.swap(0, 1).ch(1, 0)


def distinguisher_unitary() -> np.ndarray:
    """Swap the unknown input into the loop, then rotate the loop by H when
    the (swapped-out) loop bit reads 1."""
    return circuit_unitary(_distinguisher_gates(Circuit(2)))


def _bb84_gates(c: Circuit) -> Circuit:
    return (
        c.ch(0, 2)  # rotate a conjugate-basis claim into the computational basis
        .cx(1, 2)  # subtract the claimed value: s = 0 iff the claim checks out
        .ccx(2, 0, 1)  # failed conjugate claim: bump the value bit
        .cx(2, 0)  # failed claim: toggle the basis bit
        .cx(1, 2)  # re-arm s so the output reports the claimed value
        .cx(0, 3)  # publish the basis on the ancilla
    )


def bb84_unitary() -> np.ndarray:
    """Four-state discriminator over loop (m0, m1) and system (s, a).

    The loop register carries a claim: m0 names the basis (0: computational,
    1: conjugate), m1 the value.  The interaction checks the claim against
    the input and, on failure, advances the claim to the next of the four
    states, so only the true claim survives as a fixed point; the answer is
    published on (s, a) as (value, basis).
    """
    return circuit_unitary(_bb84_gates(Circuit(4)))


def distinguisher_problem(label: str) -> CtcProblem:
    sys_state = state_from_label(label).density()
    return CtcProblem(distinguisher_unitary(), sys_state, 1, 1)


def bb84_problem(label: str) -> CtcProblem:
    ground = np.diag([1.0, 0.0]).astype(complex)
    psi = state_from_label(label).density()
    sys_state = DensityMatrix(2, kron_all([psi.mat, ground]))
    return CtcProblem(bb84_unitary(), sys_state, 2, 2)


def grandfather_problem() -> CtcProblem:
    """A loop that meets its own negation: U = X with no system qubits."""
    return CtcProblem(make_gate("X").matrix, None, 0, 1)


def classical_control_demo(input_label: str, protocol: str) -> Circuit:
    """The interaction as an ordinary circuit with the loop register
    pre-seeded to its known fixed point, chosen from the input label.

    No solver is involved; agreement with the honest fixed-point runs is
    what makes the pre-seeding legitimate.
    """
    if protocol == "single":
        if input_label == "0":
            c = Circuit(2, 1)
        elif input_label == "-":
            c = Circuit(2, 1).h(1).z(1).x(0)
        else:
            raise BadLabel(
                f"single-state demo takes labels 0 or -, got {input_label!r}"
            )
        return _distinguisher_gates(c).measure(1, 0)
    if protocol == "bb84":
        if input_label not in STATE_LABELS:
            raise BadLabel(f"unknown state label {input_label!r}")
        c = Circuit(4, 2)
        if input_label == "1":
            c.x(2)
        elif input_label == "+":
            c.h(2)
        elif input_label == "-":
            c.h(2).z(2)
        # loop claim (m0 = basis, m1 = value) matching the input
        if input_label in ("+", "-"):
            c.x(0)
        if input_label in ("1", "-"):
            c.x(1)
        return _bb84_gates(c).measure(2, 0).measure(3, 1)
    raise BadLabel(f"unknown protocol {protocol!r}, expected single or bb84")


def demo_distribution(input_label: str, protocol: str) -> Dict[str, float]:
    """Outcome distribution of the pre-seeded demonstration circuit."""
    return run_density(classical_control_demo(input_label, protocol)).distribution


def nonlinearity_witness() -> NonlinearityWitness:
    """Quantify the map's non-linearity on the discriminator.

    Feeding the equal mixture of |0> and |1> yields the maximally mixed
    loop state, but averaging the loop states obtained from |0> and |1>
    separately gives something else; for a linear theory the two would
    coincide.  Returns both states and their trace distance (sqrt(2)/6).
    """
    mixture = CtcProblem(distinguisher_unitary(), maximally_mixed(1), 1, 1)
    rho_mixture = solve_fixed_point(mixture).rho_loop
    rho_zero = solve_fixed_point(distinguisher_problem("0")).rho_loop
    rho_one = solve_fixed_point(distinguisher_problem("1")).rho_loop
    averaged = DensityMatrix.from_matrix((rho_zero.mat + rho_one.mat) / 2)
    return NonlinearityWitness(
        trace_distance=trace_distance(rho_mixture, averaged),
        mixture_fixed_point=rho_mixture,
        averaged_fixed_points=averaged,
    )
