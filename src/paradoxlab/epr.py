"""Entangled-pair parity check with two measurement styles.

Alice and Bob share a Bell pair, rotate their halves by separate angles,
copy the Z-basis record into memory qubits, and fold both records into a
parity check qubit. The all-quantum form keeps every step unitary so the
Heisenberg engine can track where the angle information lives; the
collapsing form measures the memories first and drives the parity gates
off the collapsed qubits.

The angle sweep runs the deferred form as batches of state vectors. After
the Bell preparation, which every batch shares, each gate is an RX or a
permutation of the basis states, so a batch applies them by row gathers
read once at import, with no matrix product; the kernel is not called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .circuit import Circuit, Instruction, RunResult, basis_permutation, run_density
from .descriptor import _images, advance, compare_images
from .errors import BadParams, InvalidState
from .qmath import NORM_ATOL, _apply_op, _real

ALICE, BOB, ALICE_MEM, BOB_MEM, CHECK = range(5)

_PROBE_OFFSET = 0.8

# Grid points per sweep batch. A (32, 64) state is 32 KiB; batching a whole
# 17 x 17 grid at once made every temporary ~150 KiB and raised a
# long-running process's peak resident memory by ~0.5 MB.
_SWEEP_BATCH = 64

# Largest sweep grid (256 x 256): every point is held and rendered at once, so
# a larger grid is refused before anything is allocated.
MAX_SWEEP_POINTS = 65536

# Tracked record: (qubit, whether its probed prefix includes the parity gates).
_PROBED = {
    "alice_memory": (ALICE_MEM, False),
    "bob_memory": (BOB_MEM, False),
    "check": (CHECK, True),
}


@dataclass(frozen=True)
class EprConfig:
    theta: float
    phi: float
    deferred: bool = True

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("phi", self.phi)):
            if not math.isfinite(_real(value)):
                raise BadParams(f"{name} must be a finite real, got {value!r}")
        if not isinstance(self.deferred, bool):
            raise BadParams(f"deferred must be a bool, got {self.deferred!r}")


def build_epr_unitary(cfg: EprConfig, include_parity: bool = True) -> Circuit:
    """Measurement-free form: Bell prep, rotations, memory copies, parity."""
    c = Circuit(5)
    c.h(ALICE).cx(ALICE, BOB)
    c.rx(cfg.theta, ALICE).rx(cfg.phi, BOB)
    c.cx(ALICE, ALICE_MEM).cx(BOB, BOB_MEM)
    if include_parity:
        c.cx(ALICE_MEM, CHECK).cx(BOB_MEM, CHECK)
    return c


def build_epr_circuit(cfg: EprConfig) -> Circuit:
    unitary = build_epr_unitary(cfg, include_parity=cfg.deferred)
    if cfg.deferred:
        return Circuit(5, 1, unitary.instructions).measure(CHECK, 0)
    # collapse the records, then run the parity gates off the collapsed qubits
    c = Circuit(5, 3, unitary.instructions).measure(ALICE_MEM, 0).measure(BOB_MEM, 1)
    return c.cx(ALICE_MEM, CHECK).cx(BOB_MEM, CHECK).measure(CHECK, 2)


def check_distribution(cfg: EprConfig) -> float:
    """Exact probability that the parity check fires.

    Equals (1 - cos(theta + phi)) / 2 for both circuit forms.
    """
    result = run_density(build_epr_circuit(cfg))
    if cfg.deferred:
        return result.distribution.get("1", 0.0)
    return sum(p for key, p in result.distribution.items() if key[2] == "1")


class SweepPoint(NamedTuple):
    theta: float
    phi: float
    p_check_one: float


def _angles(values, name: str) -> np.ndarray:
    """A sweep axis as floats: a scalar or any nesting, flattened, of finite reals."""
    try:
        items = np.asarray(values, dtype=object).ravel().tolist()
    except ValueError as exc:  # a ragged nesting
        raise BadParams(f"{name} must be real numbers: {exc}") from exc
    angles = [_real(value) for value in items]
    bad = [value for value, angle in zip(items, angles) if not math.isfinite(angle)]
    if bad:
        raise BadParams(f"{name} must be a finite real, got {bad[0]!r}")
    return np.array(angles, dtype=float)


# The sweep's angle-free parts, built once at import and shared read-only: the
# deferred circuit as a template whose RX angles each batch supplies, the rows
# whose check qubit reads 1, the start column, |0...0> taken through the
# template's leading gates (the Bell preparation) by the shared kernel, and
# the steps after it as row gathers.
_TEMPLATE = build_epr_unitary(EprConfig(0.0, 0.0))
_DIM = 2 ** _TEMPLATE.n_qubits
_FIRES = (np.arange(_DIM) >> CHECK) & 1 == 1
_FIRES.setflags(write=False)
_LEAD = next(k for k, instr in enumerate(_TEMPLATE.instructions) if instr.gate.kind == "RX")


def _start_column() -> np.ndarray:
    state = np.zeros((_DIM, 1), dtype=complex)
    state[0] = 1.0
    for instr in _TEMPLATE.instructions[:_LEAD]:
        state = _apply_op(instr.gate.matrix, state, instr.targets)
    state.setflags(write=False)
    return state


def _gather_steps(gates: Sequence[Instruction], n_qubits: int) -> tuple:
    """``gates`` as (qubit, rows) steps that act on a batch by row gathers alone.

    An RX on qubit q is (q, X's rows on q), applied as
    cos(a/2) psi - i sin(a/2) psi[rows]; each run of other gates is
    (None, the rows of their product), applied as psi[rows]. Both tables
    are read by ``basis_permutation``, which refuses a run that does not
    permute the basis states.
    """
    steps = []
    for rotates, run in groupby(gates, key=lambda instr: instr.gate.kind == "RX"):
        if rotates:
            for instr in run:
                qubit = instr.targets[0]
                steps.append((qubit, basis_permutation(Circuit(n_qubits).x(qubit))))
        else:
            steps.append((None, basis_permutation(Circuit(n_qubits, 0, run))))
    return tuple(steps)


_START = _start_column()
_STEPS = _gather_steps(_TEMPLATE.instructions[_LEAD:], _TEMPLATE.n_qubits)


def sweep(thetas: Sequence[float], phis: Sequence[float]) -> List[SweepPoint]:
    """Exact check probabilities over the cartesian angle grid, theta-major.

    The deferred circuit is unitary up to its one measurement, so the grid
    runs as batches of pure states: column b of a (32, B) array is one grid
    point. Every batch starts from the Bell-prepared column built at import
    and applies the rest by row gathers: an RX with one angle per column is
    cos(a/2) psi - i sin(a/2) psi[flip], with ``flip`` X's rows on its
    qubit, and the four CX gates after the rotations are one permutation of
    the rows. A grid of more than ``MAX_SWEEP_POINTS`` points is refused
    with ``BadParams`` before it is built.
    """
    thetas, phis = _angles(thetas, "theta"), _angles(phis, "phi")
    if thetas.size * phis.size > MAX_SWEEP_POINTS:
        raise BadParams(
            f"{thetas.size} x {phis.size} angles is {thetas.size * phis.size} grid points,"
            f" above the limit of {MAX_SWEEP_POINTS}"
        )
    grid_theta = np.repeat(thetas, phis.size)
    grid_phi = np.tile(phis, thetas.size)
    p_one = np.empty(grid_theta.size)
    for lo in range(0, grid_theta.size, _SWEEP_BATCH):
        cols = slice(lo, lo + _SWEEP_BATCH)
        half_angle = {ALICE: grid_theta[cols] / 2, BOB: grid_phi[cols] / 2}
        state = np.broadcast_to(_START, (_DIM, half_angle[ALICE].size))
        for qubit, rows in _STEPS:
            if qubit is None:
                state = state[rows]
            else:
                half = half_angle[qubit]
                state = np.cos(half) * state - 1j * np.sin(half) * state[rows]
        probs = np.abs(state) ** 2
        if np.max(np.abs(probs.sum(axis=0) - 1.0)) > NORM_ATOL:
            raise InvalidState("a swept state vector is not normalized")
        p_one[cols] = probs[_FIRES].sum(axis=0)
    return [
        SweepPoint(t, p, v)
        for t, p, v in zip(grid_theta.tolist(), grid_phi.tolist(), p_one.tolist())
    ]


@dataclass(frozen=True)
class EprReport:
    theta: float
    phi: float
    p_check_one: float
    correlation: float
    dependence: Dict[str, Dict[str, bool]]
    run: RunResult = field(repr=False, compare=False)  # the deferred circuit's run


def _probed_images(cfg: EprConfig) -> Dict[str, tuple]:
    """Each tracked record's (x, y, z) images from one walk of the deferred circuit.

    A memory qubit is read from the prefix just before the first parity
    gate, the check qubit from the prefix of the whole circuit.
    """
    c = build_epr_unitary(cfg)
    prefix = np.eye(2 ** c.n_qubits, dtype=complex)
    prefixes = {}
    for instr in c.instructions:
        if CHECK in instr.targets:
            prefixes.setdefault(False, prefix)
        prefix = advance(prefix, instr)
    prefixes[True] = prefix
    return {
        record: _images(prefixes[parity], [qubit])[0]
        for record, (qubit, parity) in _PROBED.items()
    }


def info_flow_report(cfg: EprConfig) -> EprReport:
    """Check statistics plus which angles each tracked qubit's record carries.

    Each angle is probed by moving it alone by ``_PROBE_OFFSET``, so three
    circuits are walked: the base angles and one per moved angle. Memory
    qubits are compared before the parity gates, the check qubit after
    them. The statistics come from one run of the deferred circuit,
    returned as ``run``.
    """
    if not cfg.deferred:
        raise BadParams("information flow is tracked on the all-unitary form")
    # RX has period 4 pi; reducing first keeps base + offset distinct
    # from base where a large angle would absorb the offset in rounding.
    base = replace(
        cfg, theta=math.remainder(cfg.theta, 4 * math.pi), phi=math.remainder(cfg.phi, 4 * math.pi)
    )
    at_base = _probed_images(base)
    moved = {
        angle: _probed_images(replace(base, **{angle: getattr(base, angle) + _PROBE_OFFSET}))
        for angle in ("theta", "phi")
    }
    dependence = {
        record: {
            angle: compare_images(qubit, at_base[record], images[record])[0]
            for angle, images in moved.items()
        }
        for record, (qubit, _) in _PROBED.items()
    }
    if dependence["bob_memory"]["theta"] or dependence["alice_memory"]["phi"]:
        raise RuntimeError("a memory record depends on the far side's angle")
    if not (dependence["check"]["theta"] and dependence["check"]["phi"]):
        raise RuntimeError("the parity record lost an angle dependence")
    run = run_density(build_epr_circuit(cfg))
    p_one = run.distribution.get("1", 0.0)
    return EprReport(cfg.theta, cfg.phi, p_one, 1.0 - 2.0 * p_one, dependence, run)
