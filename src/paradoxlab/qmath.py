"""Dense linear algebra and quantum-information primitives.

Registers are little-endian: qubit 0 is the least significant bit of a
basis index, so ``np.kron(a, b)`` places ``a`` on the high-order qubits.
Everything works on explicit numpy matrices; the register ceiling is
``MAX_QUBITS`` = 6 qubits, so dense is always fine.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    BadParams,
    BadTargets,
    DimensionMismatch,
    InvalidState,
    NonUnitary,
    NotTracePreserving,
    TooManyQubits,
)

# Register ceiling and numerical tolerances used across the package, one meaning each.
MAX_QUBITS = 6  # largest register any entry point accepts
UNITARY_ATOL = 1e-10  # largest entry of |U'U - I| in a unitary
HERMITIAN_ATOL = 1e-10  # largest entry of |rho - rho'| in a density matrix
TRACE_ATOL = 1e-10  # largest |tr rho - 1| of a density matrix
NORM_ATOL = 1e-10  # largest |<psi|psi> - 1| of a state vector
PSD_FLOOR = -1e-10  # lowest eigenvalue a density matrix may have
ENTROPY_EIG_FLOOR = 1e-12  # eigenvalues at or below this add nothing to an entropy
KRAUS_ATOL = 1e-9  # largest entry of |sum K'K - I| in a Kraus set
BRANCH_FLOOR = 1e-15  # measurement branches of this weight or less are dropped
LOCALITY_ATOL = 1e-10  # largest off-support change of a Pauli image in a local step
DEPENDENCE_ATOL = 1e-9  # Pauli images further apart than this depend on the parameter
EXPECTATION_IMAG_ATOL = 1e-9  # largest imaginary part of a Pauli-product expectation
SOLVE_TOL = 1e-12  # default loop fixed-point residual; smaller magnitudes print as 0
OUTCOME_FLOOR = 1e-12  # loop readout probabilities at or below this are dropped
# Largest shot count: it keeps every count far inside the int64 range of numpy's
# binomial and multinomial draws; sampling costs the same at any shot count.
MAX_SHOTS = 10_000_000


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    # A unitary's entries lie in the unit disc; checking that first keeps the
    # product below from overflowing on a huge entry.
    if np.max(np.abs(u)) > 1.0 + atol:
        return False
    return bool(np.max(np.abs(adjoint(u) @ u - np.eye(u.shape[0]))) <= atol)


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2 ** n != dim:
        raise DimensionMismatch(f"{what} dimension {dim} is not a power of two")
    return n


def _unitary(m, what: str) -> np.ndarray:
    """A complex copy of ``m``, refused unless it is a square unitary on at most
    ``MAX_QUBITS`` qubits: the one intake check for gates, loop interactions
    and matrix files. The size is checked before the d x d unitarity product."""
    m = np.array(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} of shape {m.shape} is not square")
    _register(_qubit_count(m.shape[0], what))
    if not is_unitary(m):
        raise NonUnitary(f"{what} fails the unitarity check")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix; ``n`` qubits read from its side."""

    mat: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        if not np.isfinite(mat).all():
            raise InvalidState("density matrix has non-finite entries")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidState(f"density matrix of shape {mat.shape} is not square")
        object.__setattr__(self, "n", _register(_qubit_count(mat.shape[0], "density matrix")))
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL:
            raise InvalidState("density matrix is not hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_ATOL:
            raise InvalidState(f"trace is {np.trace(mat).real}, expected 1")
        if np.min(np.linalg.eigvalsh(mat)) < PSD_FLOOR:
            raise InvalidState("density matrix has a negative eigenvalue")
        object.__setattr__(self, "mat", mat)


def _require_state(state, what: str) -> None:
    """Refuse anything but a ``DensityMatrix`` where a public function reads one."""
    if not isinstance(state, DensityMatrix):
        raise InvalidState(f"{what} must be a DensityMatrix, not {type(state).__name__}")


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Trace-preserving set of Kraus operators over a fixed dimension."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.operators)
        if not ops:
            raise DimensionMismatch("empty Kraus set")
        if not all(np.isfinite(k).all() for k in ops):
            raise NotTracePreserving("Kraus operators have non-finite entries")
        dim = ops[0].shape[0]
        for k in ops:
            if k.shape != (dim, dim):
                raise DimensionMismatch("Kraus operators differ in shape")
        # Completeness puts every entry in the unit disc; checking that first
        # keeps the sum below from overflowing into infinities and NaN.
        if max(np.max(np.abs(k)) for k in ops) > 1.0 + KRAUS_ATOL:
            raise NotTracePreserving("a Kraus operator has an entry outside the unit disc")
        total = sum(adjoint(k) @ k for k in ops)
        if np.max(np.abs(total - np.eye(dim))) > KRAUS_ATOL:
            raise NotTracePreserving("sum of K^dag K deviates from identity")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _check_targets(targets: Sequence[int], n: int, op_dim: int) -> list:
    targets = list(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise BadTargets(f"repeated target in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise BadTargets(f"target {t} outside register of {n} qubits")
    if op_dim != 2 ** len(targets):
        raise DimensionMismatch(
            f"operator dimension {op_dim} does not match {len(targets)} targets"
        )
    return targets


def _axes(qubits: Sequence[int], n: int) -> list:
    """Axes of ``qubits`` in a 2^n index reshaped to (2,) * n; qubit 0 is the last."""
    return [n - 1 - q for q in qubits]


@lru_cache(maxsize=512)
def _op_rows(n: int, targets: tuple) -> tuple:
    """``(col_axes, gather, scatter)`` for applying a 2^k operator to ``targets`` of n qubits.

    Row ``[j, f]`` of ``gather`` is the register row whose target bits hold
    ``j`` read most significant first (targets[0] on top) and whose other
    qubits hold ``f``; ``scatter`` reads ``j`` as an operator row instead, so
    bit p goes to targets[p]. ``col_axes`` transposes an operator reshaped to
    (2,) * 2k so that its columns follow ``gather``'s order. The arrays are
    shared, so read-only. Every target tuple of the library's gates (up to
    three qubits) on up to six qubits is one of 301 keys, each under 2 kB.
    """
    k = len(targets)
    j = np.arange(2 ** k)[:, None]
    # Register rows with every target bit clear, the other qubits counting up.
    free = np.arange(2 ** n)
    for t in targets:
        free = free[(free >> t) & 1 == 0]
    gather, scatter = np.tile(free, (2 ** k, 1)), np.tile(free, (2 ** k, 1))
    for p, t in enumerate(targets):
        gather |= ((j >> (k - 1 - p)) & 1) << t
        scatter |= ((j >> p) & 1) << t
    gather.setflags(write=False)
    scatter.setflags(write=False)
    return tuple(range(k)) + tuple(_axes(range(k), 2 * k)), gather, scatter


def _apply_op(op: np.ndarray, state: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply ``op`` to qubits ``targets`` of the 2^n register indexing ``state``'s first axis.

    Further axes ride along, so a matrix is left-multiplied by the lift of
    ``op``. targets[p] carries bit p of ``op``'s index; callers check targets.
    The state's rows are gathered with the target bits on top, multiplied by
    ``op`` in one ``np.dot`` and scattered back through row indices cached
    per ``(n, targets)``. Both ``dot`` operands are the ones numpy's tensordot
    builds for this contraction, in the same memory order, so the result has
    the same bytes.
    """
    col_axes, gather, scatter = _op_rows(state.shape[0].bit_length() - 1, tuple(targets))
    d = op.shape[0]
    op_cols = op.reshape((2,) * len(col_axes)).transpose(col_axes).reshape(d, d)
    prod = np.dot(op_cols, state.take(gather, axis=0).reshape(d, -1))
    out = np.empty(state.shape, dtype=prod.dtype)
    out[scatter] = prod.reshape(scatter.shape + state.shape[1:])
    return out


def _conjugate(u: np.ndarray, mat: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """``lift(u) @ mat @ lift(u)^dagger`` for a square ``mat``."""
    return _apply_op(u.conj(), _apply_op(u, mat, targets).T, targets).T


def _kraus_map(ops: Sequence[np.ndarray], mat: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """``sum_k lift(K) @ mat @ lift(K)^dagger``, hermitized."""
    out = sum(_conjugate(k, mat, targets) for k in ops)
    return (out + out.conj().T) / 2


def embed_operator(op: np.ndarray, targets: Sequence[int], n: int) -> np.ndarray:
    """Lift ``op`` acting on ``targets`` to the full 2^n-dimensional space.

    targets[p] carries bit p of the operator's own index.
    """
    op = np.asarray(op, dtype=complex)
    n = _register(n)
    targets = _check_targets(targets, n, op.shape[0])
    return _apply_op(op, np.eye(2 ** n, dtype=complex), targets)


def evolve_density(rho: DensityMatrix, u: np.ndarray, targets: Sequence[int]) -> DensityMatrix:
    """Conjugate ``rho`` by a unitary acting on ``targets``."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise NonUnitary("operator fails the unitarity check")
    targets = _check_targets(targets, rho.n, u.shape[0])
    return DensityMatrix(_conjugate(u, rho.mat, targets))


def apply_kraus(rho: DensityMatrix, kraus: KrausSet, targets: Sequence[int]) -> DensityMatrix:
    """Apply a trace-preserving channel given by Kraus operators on ``targets``."""
    targets = _check_targets(targets, rho.n, kraus.dim)
    return DensityMatrix(_kraus_map(kraus.operators, rho.mat, targets))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all qubits not in ``keep``; kept qubits stay in ascending order."""
    _require_state(rho, "state")
    keep = sorted(set(_whole(q, "kept qubit") for q in keep))
    if not keep:
        raise BadTargets("keep list must be nonempty")
    for q in keep:
        if not 0 <= q < rho.n:
            raise BadTargets(f"kept qubit {q} outside register of {rho.n} qubits")
    return DensityMatrix(_partial_trace(rho.mat, keep))


def _partial_trace(mat: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """``partial_trace`` of a 2^n square array; ``keep`` is ascending, distinct and in range."""
    n = mat.shape[0].bit_length() - 1
    # Label each axis of the (2,) * 2n reshape by its position; a traced
    # qubit's column axis reuses its row label, so einsum sums that diagonal.
    kept = sorted(_axes(keep, n))
    cols = [n + a if a in kept else a for a in range(n)]
    out = np.einsum(
        mat.reshape((2,) * (2 * n)), list(range(n)) + cols, kept + [n + a for a in kept]
    )
    return out.reshape(2 ** len(keep), -1)


def vn_entropy_bits(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits; eigenvalues at or below 1e-12 contribute 0."""
    _require_state(rho, "state")
    return _vn_entropy_bits(rho.mat)


def _vn_entropy_bits(mat: np.ndarray) -> float:
    """``vn_entropy_bits`` of a hermitian array, which is not checked to be a state."""
    vals = np.linalg.eigvalsh(mat)
    vals = vals[vals > ENTROPY_EIG_FLOOR]
    return float(-np.sum(vals * np.log2(vals)))


def _mat_of(state) -> np.ndarray:
    return state.mat if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference; accepts DensityMatrix or ndarray."""
    a, b = _mat_of(a), _mat_of(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"states of shape {a.shape} and {b.shape} cannot be compared")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


# --- common states ---------------------------------------------------------


def _register(n) -> int:
    """A qubit count: a whole number, not negative, at most ``MAX_QUBITS``."""
    n = _whole(n, "qubit count")
    if n < 0:
        raise BadParams(f"qubit count {n} is negative")
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the limit of {MAX_QUBITS}")
    return n


def basis_state(n: int, index: int = 0) -> DensityMatrix:
    """The computational basis state |index><index| of ``n`` qubits."""
    dim = 2 ** _register(n)
    index = _whole(index, "basis index")
    if not 0 <= index < dim:
        raise BadParams(f"basis index {index} outside register of {n} qubits")
    mat = np.zeros((dim, dim), dtype=complex)
    mat[index, index] = 1.0
    return DensityMatrix(mat)


def maximally_mixed(n: int) -> DensityMatrix:
    dim = 2 ** _register(n)
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


# --- matrix file format ----------------------------------------------------


def _whole(value, what: str) -> int:
    """A count or index: any integer (numpy's too) or a whole float, never a bool or string."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise BadParams(f"{what} {value!r} is not a whole number")
    return int(value)


def _count(value, what: str, floor: int = 0, ceiling: float = math.inf) -> int:
    """A count or seed as an ``int``: any integer (numpy's too) but a bool, in [floor, ceiling]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        sign = "positive" if floor else "non-negative"
        raise BadParams(f"{what} must be a {sign} integer, got {value!r}")
    if value > ceiling:
        raise BadParams(f"{value} {what} exceeds the limit of {ceiling}")
    return int(value)


def _real(value) -> float:
    """A real scalar as a float, for the callers' own range checks: any ``numbers.Real``
    (numpy's and ``Fraction`` too). A bool, string, complex or other value maps to NaN
    and a real beyond float range to an infinity; it never raises ``OverflowError``."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:  # an int or Fraction past float range
        return math.inf if value > 0 else -math.inf


def matrix_to_entries(m: np.ndarray) -> list:
    """Row-major [[re, im], ...] listing of a square complex matrix, read
    through one float view: the same floats as each entry's parts."""
    return np.ascontiguousarray(m, dtype=complex).view(float).reshape(-1, 2).tolist()


def _part(value, what: str) -> float:
    if math.isfinite(real := _real(value)):
        return real
    raise BadParams(f"entry {what} part {value!r} is not a finite number")


def _entry(index: int, entry) -> complex:
    """Entry ``index`` of a matrix file, refused unless it is a pair of finite reals."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise BadParams(f"entry {index} is not a [re, im] pair")
    re, im = entry
    return complex(_part(re, "real"), _part(im, "imaginary"))


def entries_to_matrix(dim: int, entries: Sequence[Sequence[float]]) -> np.ndarray:
    """The ``dim`` x ``dim`` matrix of a row-major list of [re, im] pairs of
    finite reals, refusing the first entry that is not one."""
    if not isinstance(entries, (list, tuple)):
        raise BadParams("entries must be a list of [re, im] pairs")
    if len(entries) != dim * dim:
        raise DimensionMismatch(f"expected {dim * dim} entries, got {len(entries)}")
    # A saved file's entries, lists of two plain finite floats, are read in
    # bulk: their parts, in order, are the float view of the complex matrix.
    if set(map(type, entries)) == {list} and set(map(len, entries)) == {2}:
        parts = list(chain.from_iterable(entries))
        if set(map(type, parts)) == {float}:
            flat = np.fromiter(parts, float, len(parts))
            if np.isfinite(flat).all():
                return flat.view(complex).reshape(dim, dim)
    return np.array([_entry(i, entry) for i, entry in enumerate(entries)]).reshape(dim, dim)


def save_unitary(path: str, m: np.ndarray) -> None:
    m = _unitary(m, "matrix")
    payload = {"dim": int(m.shape[0]), "entries": matrix_to_entries(m)}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_unitary(path: str) -> np.ndarray:
    """Read a matrix file; its dimension must be a power of two, at most 2^MAX_QUBITS,
    and the matrix unitary. The dimension is checked before any entry is read."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        dim = _whole(data["dim"], "dim")
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed matrix file: {exc}") from exc
    _register(_qubit_count(dim, "matrix"))
    return _unitary(entries_to_matrix(dim, entries), f"matrix in {path}")
