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

import mmap
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, circuit_unitary, make_gate
from .errors import (
    BadLabel,
    BadParams,
    DimensionMismatch,
    NoConvergence,
)
from .qmath import (
    OUTCOME_FLOOR,
    SOLVE_TOL,
    DensityMatrix,
    _real,
    _require_state,
    _unitary,
    adjoint,
    maximally_mixed,
    trace_distance,
    vn_entropy_bits,
)

# Gates that prepare each labelled state from |0>, applied in order.
_PREPARE = {"0": "", "1": "x", "+": "h", "-": "hz"}
STATE_LABELS = tuple(_PREPARE)


def _prepare(c: Circuit, label: str, q: int) -> Circuit:
    """Append the gates that take qubit ``q`` from |0> to the labelled state."""
    for gate in _PREPARE[label]:
        getattr(c, gate)(q)
    return c


def state_from_label(label: str) -> DensityMatrix:
    """One of the four standard single-qubit states by its text label, as |psi><psi|."""
    if label not in _PREPARE:
        raise BadLabel(f"unknown state label {label!r}, expected one of 0 1 + -")
    ket = circuit_unitary(_prepare(Circuit(1), label, 0))[:, 0]
    return DensityMatrix(np.outer(ket, ket.conj()))


@dataclass(frozen=True, eq=False)
class CtcProblem:
    """An interaction unitary plus the ordinary-qubit input state.

    ``u`` acts on system (high) and loop (low) qubits together. The system
    has ``system_state``'s qubits, none without a state, and the loop the
    rest of ``u``'s; ``n_sys`` and ``n_loop`` are derived, never passed.
    """

    u: np.ndarray
    system_state: Optional[DensityMatrix] = None
    n_sys: int = field(init=False)
    n_loop: int = field(init=False)

    def __post_init__(self):
        u = _unitary(self.u, "interaction")
        n_total = u.shape[0].bit_length() - 1
        n_sys = 0
        if self.system_state is not None:
            _require_state(self.system_state, "system state")
            n_sys = self.system_state.n
        if n_total <= n_sys:
            raise BadParams(f"a {n_total}-qubit interaction leaves no loop qubit")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "n_sys", n_sys)
        object.__setattr__(self, "n_loop", n_total - n_sys)


class NonlinearityWitness(NamedTuple):
    trace_distance: float
    mixture_fixed_point: DensityMatrix
    averaged_fixed_points: DensityMatrix


@dataclass(frozen=True)
class FixedPointSolution:
    rho_loop: DensityMatrix
    residual: float
    iterations: int  # map applications: the start's residual plus one per Krylov step
    method: str  # always "eigensolve"; bench/spans.py reads it
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
    """The consistency map as a raw matrix function: mat -> sum_K K mat K'.
    A ``(..., d, d)`` stack maps slice by slice, each by the same arithmetic."""
    pairs = [(k, adjoint(k)) for k in kraus]
    return lambda mat: sum(k @ mat @ kdag for k, kdag in pairs)


def consistency_map(p: CtcProblem, rho_loop: DensityMatrix) -> DensityMatrix:
    """Send the loop state once around the loop."""
    if not isinstance(rho_loop, DensityMatrix) or rho_loop.n != p.n_loop:
        raise DimensionMismatch(
            f"loop state must have {p.n_loop} qubits"
        )
    out = _loop_map(_loop_kraus(p))(rho_loop.mat)
    return DensityMatrix((out + adjoint(out)) / 2)


def _to_state(mat: np.ndarray) -> np.ndarray:
    """Hermitize, clip negative weight, renormalize.  Only GMRES's answer comes
    here; its trace is one, and the clipped weights sum to at least that."""
    h = (mat + adjoint(mat)) / 2
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    vals /= np.sum(vals)
    return (vecs * vals) @ adjoint(vecs)


def _hermitian(y: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian d x d matrix X stored as the real vector y = vec(Re X + Im X).
    Re X is symmetric and Im X antisymmetric, so the storage is an isometry."""
    m = y.reshape(d, d)
    return ((1 + 1j) * m + (1 - 1j) * m.T) / 2


def _fresh_zeros(rows: int, cols: int) -> np.ndarray:
    """Float zeros on a new anonymous mapping. Pages no step writes never become
    resident; np.zeros on recycled heap memory would clear, and so touch, them all."""
    return np.frombuffer(mmap.mmap(-1, 8 * rows * cols), dtype=float).reshape(rows, cols)


def _gmres_fixed_point(apply: Callable, d: int, tol: float) -> Tuple[np.ndarray, int]:
    """GMRES on (S - I) x = 0 from I/d (Brown & Walker 1997): x, Krylov dimension.
    Corrections stay in the traceless range(S - I), so x is the iterates' Cesaro
    limit, of trace one.  A Hermitian X travels as the real matrix Re X + Im X.
    A start that already meets the stopping rule comes back at dimension 0."""

    def op(y: np.ndarray) -> np.ndarray:
        out = apply(_hermitian(y, d))
        return (out.real + out.imag).reshape(-1) - y
    def done(estimate: float) -> bool:  # estimate: Frobenius norm of (S - I) x
        return estimate <= floor or estimate * np.sqrt(d) / 2 <= tol

    start = np.eye(d, dtype=complex) / d
    r0 = -op(start.real.reshape(-1))
    beta = float(np.linalg.norm(r0))
    floor = d * np.finfo(float).eps * beta  # below the map's rounding: nothing to gain
    if done(beta):
        return start, 0
    bound = d * d + 1  # storage is sized once, at the Krylov bound
    basis = _fresh_zeros(bound, d * d)  # rows: orthonormal Krylov basis
    rot = _fresh_zeros(bound, bound)  # Givens product
    tri = _fresh_zeros(bound, bound)  # rotated Hessenberg, upper triangular
    basis[0], rot[0, 0] = r0 / beta, 1.0
    for k in range(d * d):
        w = op(basis[k])
        h = basis[:k + 1] @ w  # classical Gram-Schmidt, run twice
        w -= h @ basis[:k + 1]
        again = basis[:k + 1] @ w
        w -= again @ basis[:k + 1]
        h_next = float(np.linalg.norm(w))
        col = rot[:k + 1, :k + 1] @ (h + again)
        rho = float(np.hypot(col[k], h_next))
        if rho == 0.0:
            raise NoConvergence("GMRES broke down on a singular Krylov space")
        rot[k + 1, k + 1] = 1.0
        givens = np.array([[col[k], h_next], [-h_next, col[k]]]) / rho
        rot[k:k + 2, :k + 2] = givens @ rot[k:k + 2, :k + 2]
        tri[:k, k], tri[k, k] = col[:k], rho
        if done(beta * abs(rot[k + 1, 0])):
            y = np.linalg.solve(tri[:k + 1, :k + 1], beta * rot[:k + 1, 0])
            return start + _hermitian(y @ basis[:k + 1], d), k + 1
        basis[k + 1] = w / h_next
    raise NoConvergence(f"GMRES exhausted the Krylov space above {tol}")


def solve_fixed_point(p: CtcProblem, tol: float = SOLVE_TOL) -> FixedPointSolution:
    """Find a self-consistent loop state.

    Runs matrix-free GMRES on S - I from I/d (``_gmres_fixed_point``), which
    returns the limit of the running average of the map's iterates: I/d for
    a unital loop.  ``iterations`` counts the map applications GMRES made,
    one for the start plus one per Krylov step; ``method`` is always
    ``eigensolve``.  NoConvergence means GMRES broke down or stagnated above
    ``tol``.  ``tol`` bounds a trace distance, and no two states are more
    than 1 apart, so it must lie below 1 to decide anything.
    """
    given, tol = tol, _real(tol)
    if not 0.0 < tol < 1.0:
        raise BadParams(f"tol must be a positive real below 1, got {given!r}")

    apply = _loop_map(_loop_kraus(p))
    d = 2 ** p.n_loop

    def residual_of(mat: np.ndarray) -> float:
        return trace_distance(apply(mat), mat)

    x, krylov_dim = _gmres_fixed_point(apply, d, tol)
    residual = residual_of(x)
    if residual > tol:
        raise NoConvergence(f"GMRES stagnated at residual {residual:.3e}")

    rho_star = DensityMatrix(_to_state(x))
    return FixedPointSolution(
        rho_loop=rho_star,
        residual=float(residual_of(rho_star.mat)),
        iterations=1 + krylov_dim,
        method="eigensolve",
        entropy_bits=vn_entropy_bits(rho_star),
    )


def run_ctc_circuit(p: CtcProblem, tol: float = SOLVE_TOL) -> CtcRunResult:
    """Solve the loop, evolve system x loop through the interaction, and read
    out every system qubit, lowest first and leftmost; a problem without
    system qubits gives an empty distribution."""
    solution = solve_fixed_point(p, tol=tol)
    distribution: Dict[str, float] = {}
    if p.n_sys:
        system = range(p.n_loop, p.n_loop + p.n_sys)
        joint = np.kron(p.system_state.mat, solution.rho_loop.mat)
        probs = np.real(np.diag(p.u @ joint @ adjoint(p.u)))
        for index, prob in enumerate(probs):
            if prob <= 0.0:
                continue
            key = "".join(str((index >> q) & 1) for q in system)
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
    return CtcProblem(distinguisher_unitary(), state_from_label(label))


def bb84_problem(label: str) -> CtcProblem:
    ground = np.diag([1.0, 0.0]).astype(complex)
    # The input sits on s, the low system qubit; a starts at |0>.
    sys_state = DensityMatrix(np.kron(ground, state_from_label(label).mat))
    return CtcProblem(bb84_unitary(), sys_state)


def grandfather_problem() -> CtcProblem:
    """A loop that meets its own negation: U = X with no system qubits."""
    return CtcProblem(make_gate("X").matrix)


def classical_control_demo(input_label: str, protocol: str) -> Circuit:
    """The interaction as an ordinary circuit with the loop register
    pre-seeded to its known fixed point, chosen from the input label.

    No solver is involved; agreement with the honest fixed-point runs is
    what makes the pre-seeding legitimate.
    """
    if protocol == "single":
        if input_label not in ("0", "-"):
            raise BadLabel(f"single-state demo takes labels 0 or -, got {input_label!r}")
        c = _prepare(Circuit(2, 1), input_label, 1)
        if input_label == "-":
            c.x(0)
        return _distinguisher_gates(c).measure(1, 0)
    if protocol == "bb84":
        if input_label not in STATE_LABELS:
            raise BadLabel(f"unknown state label {input_label!r}")
        c = _prepare(Circuit(4, 2), input_label, 2)
        # loop claim (m0 = basis, m1 = value) matching the input
        if input_label in ("+", "-"):
            c.x(0)
        if input_label in ("1", "-"):
            c.x(1)
        return _bb84_gates(c).measure(2, 0).measure(3, 1)
    raise BadLabel(f"unknown protocol {protocol!r}, expected single or bb84")


def nonlinearity_witness() -> NonlinearityWitness:
    """Quantify the map's non-linearity on the discriminator.

    Feeding the equal mixture of |0> and |1> yields the maximally mixed
    loop state, but averaging the loop states obtained from |0> and |1>
    separately gives something else; for a linear theory the two would
    coincide.  Returns both states and their trace distance (sqrt(2)/6).
    """
    mixture = CtcProblem(distinguisher_unitary(), maximally_mixed(1))
    rho_mixture = solve_fixed_point(mixture).rho_loop
    rho_zero = solve_fixed_point(distinguisher_problem("0")).rho_loop
    rho_one = solve_fixed_point(distinguisher_problem("1")).rho_loop
    averaged = DensityMatrix((rho_zero.mat + rho_one.mat) / 2)
    return NonlinearityWitness(
        trace_distance=trace_distance(rho_mixture, averaged),
        mixture_fixed_point=rho_mixture,
        averaged_fixed_points=averaged,
    )
