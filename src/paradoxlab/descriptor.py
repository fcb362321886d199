"""Heisenberg-picture tracking of per-qubit Pauli observables.

The engine carries the circuit prefix applied so far as one unitary U,
a plain array. Each qubit's descriptor, the images U^dag sigma U of its
three bare Pauli operators, is computed from it where it is read. With A
and B the rows of U whose bit q is clear and set, and M = A^dag B, qubit
q's images are X = M + M^dag, Y = -i(M - M^dag) and Z = A^dag A - B^dag B.
Z is taken as (A - B)^dag (A + B) - (M - M^dag), which is the same
operator, so a qubit costs two half-depth products.

Where a gate does not touch a qubit, its images must stay put; the
locality audit checks exactly that, numerically, with no shortcuts. A
step computes only the products of the qubits off its support, before
and after it, and keeps them raw: M and S = (A - B)^dag (A + B). From
their changes dM and dS it builds the three image changes dM + dM^dag,
dA = dM - dM^dag and dS - dA, of X, of M - M^dag (whose entries are Y's,
swapped and negated) and of Z, and compares every entry of each. An
after-pair serves as the next step's before-pair; one the previous step
did not compute, because its gate touched that qubit, is computed from
the previous prefix, so no pair is computed twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from . import qmath
from .circuit import Circuit, Instruction, circuit_unitary
from .errors import (
    BadParams,
    BadTargets,
    InvalidState,
    NonUnitaryInstruction,
    ShapeMismatch,
)
from .qmath import DEPENDENCE_ATOL, LOCALITY_ATOL, DensityMatrix

AXES = ("x", "y", "z")


def _parts(prefix: np.ndarray, q: int) -> tuple:
    """Qubit ``q``'s products (M, S) = (A^dag B, (A - B)^dag (A + B)) under ``prefix``."""
    d = prefix.shape[0]
    # A row index splits into (bits above q, bit q, bits below q).
    halves = prefix.reshape(-1, 2, 2 ** q, d)
    a, b = (halves[:, k].reshape(d // 2, d) for k in (0, 1))
    return a.conj().T @ b, (a - b).conj().T @ (a + b)


def _images(prefix: np.ndarray, qubits: Iterable[int]) -> tuple:
    """Per qubit in ``qubits``: its bare (x, y, z) Paulis conjugated by ``prefix``."""
    out = []
    for q in qubits:
        m, s = _parts(prefix, q)
        mdag = m.conj().T
        anti = m - mdag
        out.append((m + mdag, -1j * anti, s - anti))
    return tuple(out)


def _drift(was: tuple, now: tuple) -> list:
    """The largest entry change of X, M - M^dag and Z between two (M, S) pairs."""
    dm = now[0] - was[0]
    # One transposing pass, so the sum and difference read both operands in order.
    dmdag = np.conjugate(dm.T, order="C")
    danti = dm - dmdag
    dz = now[1] - was[1]
    dz -= danti
    dm += dmdag
    return [abs(dm).max(), abs(danti).max(), abs(dz).max()]


def advance(prefix: np.ndarray, instr: Instruction) -> np.ndarray:
    """Extend the prefix unitary by one unitary step."""
    if instr.op != "unitary":
        raise NonUnitaryInstruction(f"descriptors are defined for unitary steps, not {instr.op!r}")
    return qmath._apply_op(instr.gate.matrix, prefix, instr.targets)


@dataclass(frozen=True)
class AuditStep:
    instr: int
    max_offsupport_delta: float
    ok: bool


@dataclass(frozen=True)
class AuditReport:
    steps: tuple
    overall: bool


def locality_audit(c: Circuit) -> AuditReport:
    """Advance the prefix unitary through ``c`` and bound the off-support drift per step.

    A step whose drift is not finite fails; anything but a ``Circuit``
    raises ``BadParams``.
    """
    _require_circuit(c, "locality_audit")
    prefix = np.eye(2 ** c.n_qubits, dtype=complex)
    before: Dict[int, tuple] = {}
    steps: List[AuditStep] = []
    for i, instr in enumerate(c.instructions):
        after = advance(prefix, instr)
        off = [q for q in range(c.n_qubits) if q not in instr.targets]
        now = {q: _parts(after, q) for q in off}
        drifts = [0.0]
        for q in off:
            was = before[q] if q in before else _parts(prefix, q)
            drifts += _drift(was, now[q])
        # np.max, unlike the builtin max, keeps a NaN.
        delta = float(np.max(drifts))
        steps.append(AuditStep(i, delta, delta <= LOCALITY_ATOL))
        before, prefix = now, after
    return AuditReport(tuple(steps), all(s.ok for s in steps))


def _require_circuit(c, what: str) -> None:
    if not isinstance(c, Circuit):
        raise BadParams(f"{what} needs a Circuit, not {type(c).__name__}")


def _shape_signature(c: Circuit) -> list:
    return [(i.op, i.gate.kind if i.gate else None, i.targets) for i in c.instructions]


def dependence_probe(
    build: Callable[[float], Circuit],
    qubit: int,
    value_a: float,
    value_b: float,
) -> Tuple[bool, float]:
    """Compare one qubit's evolved triple under two parameter values.

    ``build`` must return circuits of identical shape (same ops, kinds
    and targets) for both values; only gate angles may differ, and
    anything but a ``Circuit`` raises ``BadParams``. Each value must be a
    finite real, or ``BadParams`` is raised before ``build`` is called.
    A difference that is not finite raises ``InvalidState``.
    """
    values = [qmath._real(v) for v in (value_a, value_b)]
    for name, raw, value in zip(("value_a", "value_b"), (value_a, value_b), values):
        if not math.isfinite(value):
            raise BadParams(f"{name} must be a finite real, got {raw!r}")
    circuits = [build(v) for v in values]
    for c in circuits:
        _require_circuit(c, "dependence_probe's build")
    if circuits[0].n_qubits != circuits[1].n_qubits or _shape_signature(
        circuits[0]
    ) != _shape_signature(circuits[1]):
        raise ShapeMismatch("the two parameter values produce circuits of different shape")
    n = circuits[0].n_qubits
    qubit = qmath._whole(qubit, "qubit")
    if not 0 <= qubit < n:
        raise BadTargets(f"qubit {qubit} outside register of {n} qubits")
    images = [_images(circuit_unitary(c), [qubit])[0] for c in circuits]
    return compare_images(qubit, *images)


def compare_images(qubit: int, was: tuple, now: tuple) -> Tuple[bool, float]:
    """Whether two (x, y, z) image triples of ``qubit`` differ, and their largest entry change.

    A change that is not finite raises ``InvalidState``.
    """
    # np.max, unlike the builtin max, keeps a NaN.
    delta = float(np.max([abs(a - b).max() for a, b in zip(was, now)]))
    if not np.isfinite(delta):
        raise InvalidState(f"qubit {qubit}'s images differ by {delta} between the two values")
    return delta > DEPENDENCE_ATOL, delta


def expectation(
    prefix: np.ndarray, observable: Dict[int, str], initial: DensityMatrix
) -> float:
    """Expectation of a product of evolved per-qubit Pauli axes.

    ``observable`` maps qubit index to one of 'x', 'y', 'z'; the value is
    Re tr(rho O) for the state ``initial`` and the product O of the named
    qubits' images under the prefix unitary, pure or mixed alike. A value
    that is not finite raises ``InvalidState``.
    """
    if not observable:
        raise BadParams("observable must name at least one qubit")
    qmath._require_state(initial, "initial state")
    prefix = np.asarray(prefix)
    n = initial.n
    if prefix.shape != initial.mat.shape:
        raise BadParams(f"prefix of shape {prefix.shape} does not match a {n}-qubit state")
    op = np.eye(2 ** n, dtype=complex)
    for q, ax in sorted((qmath._whole(q, "qubit"), ax) for q, ax in observable.items()):
        if not 0 <= q < n:
            raise BadTargets(f"qubit {q} outside register of {n} qubits")
        if ax not in AXES:
            raise BadParams(f"axis {ax!r} is not one of x, y, z")
        op = op @ _images(prefix, [q])[0][AXES.index(ax)]
    val = complex(np.trace(initial.mat @ op))
    if not np.isfinite(val):
        raise InvalidState(f"observable expectation is {val}")
    if abs(val.imag) > qmath.EXPECTATION_IMAG_ATOL:
        raise BadParams(f"observable expectation has imaginary residue {val.imag}")
    return float(val.real)
