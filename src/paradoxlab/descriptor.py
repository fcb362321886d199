"""Heisenberg-picture tracking of per-qubit Pauli observables.

A frame is the circuit prefix applied so far, as one unitary. Each
qubit's descriptor, the images of its three bare Pauli operators under
that prefix, is computed from it on first read. Where a gate does not
touch a qubit, its images must stay put; the locality audit checks
exactly that, numerically, with no shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import qmath
from .circuit import MAX_QUBITS, Circuit, Instruction, _require_valid, circuit_unitary, make_gate
from .errors import (
    BadParams,
    BadTargets,
    NonUnitaryInstruction,
    ShapeMismatch,
    TooManyQubits,
)
from .qmath import DEPENDENCE_ATOL, LOCALITY_ATOL, StateVector

AXES = ("x", "y", "z")

_PAULIS = {ax: make_gate(ax.upper()).matrix for ax in AXES}


def _images(prefix: np.ndarray, q: int) -> tuple:
    """Qubit ``q``'s bare (x, y, z) Paulis conjugated by ``prefix``."""
    pdag = prefix.conj().T
    return tuple(pdag @ qmath._apply_op(_PAULIS[ax], prefix, [q]) for ax in AXES)


@dataclass(frozen=True, eq=False)
class DescriptorFrame:
    """Heisenberg frame at step ``t``: the accumulated circuit unitary.

    ``prefix`` is all a frame stores. Each qubit's evolved (x, y, z)
    triple is the bare Pauli conjugated by it, so the latest gate sits
    innermost; ``triples`` computes them on first read.
    """

    n: int
    t: int
    prefix: np.ndarray

    @cached_property
    def triples(self) -> tuple:
        """Per qubit: (x image, y image, z image) as full matrices."""
        return tuple(_images(self.prefix, q) for q in range(self.n))


def init_frame(n: int) -> DescriptorFrame:
    if n < 1:
        raise BadParams("frame needs at least one qubit")
    if n > MAX_QUBITS:
        raise TooManyQubits(f"{n} qubits exceeds the limit of {MAX_QUBITS}")
    return DescriptorFrame(n, 0, np.eye(2 ** n, dtype=complex))


def advance(frame: DescriptorFrame, instr: Instruction) -> DescriptorFrame:
    """Extend the tracked prefix by one unitary step."""
    if instr.op != "unitary":
        raise NonUnitaryInstruction(f"descriptors are defined for unitary steps, not {instr.op!r}")
    prefix = qmath._apply_op(instr.gate.matrix, frame.prefix, instr.targets)
    return DescriptorFrame(frame.n, frame.t + 1, prefix)


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
    """Advance a frame through ``c`` and bound the off-support drift per step."""
    _require_valid(c)
    frame = init_frame(c.n_qubits)
    steps: List[AuditStep] = []
    for i, instr in enumerate(c.instructions):
        after = advance(frame, instr)
        support = set(instr.targets)
        delta = 0.0
        for q in range(c.n_qubits):
            if q in support:
                continue
            for before_m, after_m in zip(frame.triples[q], after.triples[q]):
                delta = max(delta, float(np.max(np.abs(after_m - before_m))))
        steps.append(AuditStep(i, delta, delta <= LOCALITY_ATOL))
        frame = after
    return AuditReport(tuple(steps), all(s.ok for s in steps))


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
    and targets) for both values; only gate angles may differ.
    """
    circuits = [build(float(v)) for v in (value_a, value_b)]
    if circuits[0].n_qubits != circuits[1].n_qubits or _shape_signature(
        circuits[0]
    ) != _shape_signature(circuits[1]):
        raise ShapeMismatch("the two parameter values produce circuits of different shape")
    n = circuits[0].n_qubits
    if not 0 <= qubit < n:
        raise BadTargets(f"qubit {qubit} outside register of {n} qubits")
    images = [_images(circuit_unitary(c), qubit) for c in circuits]
    delta = max(float(np.max(np.abs(a - b))) for a, b in zip(*images))
    return delta > DEPENDENCE_ATOL, delta


def expectation(frame: DescriptorFrame, observable: Dict[int, str], initial: StateVector) -> float:
    """Expectation of a product of evolved per-qubit Pauli axes.

    ``observable`` maps qubit index to one of 'x', 'y', 'z'; the value is
    taken in ``initial`` against the frame's evolved operators.
    """
    if not observable:
        raise BadParams("observable must name at least one qubit")
    if initial.n != frame.n:
        raise BadParams(f"initial state has {initial.n} qubits, frame has {frame.n}")
    op = np.eye(2 ** frame.n, dtype=complex)
    for q in sorted(observable):
        ax = observable[q]
        if not 0 <= q < frame.n:
            raise BadTargets(f"qubit {q} outside register of {frame.n} qubits")
        if ax not in _PAULIS:
            raise BadParams(f"axis {ax!r} is not one of x, y, z")
        op = op @ frame.triples[q][AXES.index(ax)]
    val = complex(initial.amplitudes.conj() @ op @ initial.amplitudes)
    if abs(val.imag) > qmath.EXPECTATION_IMAG_ATOL:
        raise BadParams(f"observable expectation has imaginary residue {val.imag}")
    return float(val.real)
