"""Entangled-pair parity check with two measurement styles.

Alice and Bob share a Bell pair, rotate their halves by separate angles,
copy the Z-basis record into memory qubits, and fold both records into a
parity check qubit. The all-quantum form keeps every step unitary so the
Heisenberg engine can track where the angle information lives; the
collapsing form measures the memories first and drives the parity gates
off the collapsed qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Sequence

import numpy as np

from .circuit import Circuit, RunResult, make_gate, run_density
from .descriptor import dependence_probe
from .errors import BadParams, InvalidState
from .qmath import NORM_ATOL, _apply_op, _real

ALICE, BOB, ALICE_MEM, BOB_MEM, CHECK = range(5)

_PROBE_OFFSET = 0.8

# Grid points per sweep batch. A (32, 64) state is 32 KiB; batching a whole
# 17 x 17 grid at once made every temporary ~150 KiB and raised a
# long-running process's peak resident memory by ~0.5 MB.
_SWEEP_BATCH = 64

# Tracked record: (qubit, whether the probed circuit includes the parity gates).
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


def sweep(thetas: Sequence[float], phis: Sequence[float]) -> List[SweepPoint]:
    """Exact check probabilities over the cartesian angle grid, theta-major.

    The deferred circuit is unitary up to its one measurement, so the grid
    runs as batches of pure states: column b of a (32, B) array is one grid
    point. Fixed gates go through the shared kernel; an RX with one angle
    per column is cos(a/2) psi - i sin(a/2) X psi.
    """
    thetas, phis = _angles(thetas, "theta"), _angles(phis, "phi")
    grid_theta = np.repeat(thetas, phis.size)
    grid_phi = np.tile(phis, thetas.size)
    x = make_gate("X").matrix
    template = build_epr_unitary(EprConfig(0.0, 0.0))
    dim = 2 ** template.n_qubits
    fires = (np.arange(dim) >> CHECK) & 1 == 1
    p_one = np.empty(grid_theta.size)
    for lo in range(0, grid_theta.size, _SWEEP_BATCH):
        cols = slice(lo, lo + _SWEEP_BATCH)
        half_angle = {ALICE: grid_theta[cols] / 2, BOB: grid_phi[cols] / 2}
        state = np.zeros((dim, half_angle[ALICE].size), dtype=complex)
        state[0] = 1.0
        for instr in template.instructions:
            if instr.gate.kind == "RX":
                half = half_angle[instr.targets[0]]
                flipped = _apply_op(x, state, instr.targets)
                state = np.cos(half) * state - 1j * np.sin(half) * flipped
            else:
                state = _apply_op(instr.gate.matrix, state, instr.targets)
        probs = np.abs(state) ** 2
        if np.max(np.abs(probs.sum(axis=0) - 1.0)) > NORM_ATOL:
            raise InvalidState("a swept state vector is not normalized")
        p_one[cols] = probs[fires].sum(axis=0)
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


def info_flow_report(cfg: EprConfig) -> EprReport:
    """Check statistics plus which angles each tracked qubit's record carries.

    Memory qubits are probed on the circuit truncated before the parity
    gates; the check qubit on the full circuit. The statistics come from one
    run of the deferred circuit, returned as ``run``.
    """
    if not cfg.deferred:
        raise BadParams("information flow is tracked on the all-unitary form")

    def depends(qubit: int, include_parity: bool, angle: str) -> bool:
        def build(v):
            return build_epr_unitary(replace(cfg, **{angle: v}), include_parity)

        # RX has period 4 pi; reducing first keeps base + offset distinct
        # from base where a large angle would absorb the offset in rounding.
        base = math.remainder(getattr(cfg, angle), 4 * math.pi)
        return dependence_probe(build, qubit, base, base + _PROBE_OFFSET)[0]

    dependence = {
        record: {angle: depends(qubit, parity, angle) for angle in ("theta", "phi")}
        for record, (qubit, parity) in _PROBED.items()
    }
    if dependence["bob_memory"]["theta"] or dependence["alice_memory"]["phi"]:
        raise RuntimeError("a memory record depends on the far side's angle")
    if not (dependence["check"]["theta"] and dependence["check"]["phi"]):
        raise RuntimeError("the parity record lost an angle dependence")
    run = run_density(build_epr_circuit(cfg))
    p_one = run.distribution.get("1", 0.0)
    return EprReport(cfg.theta, cfg.phi, p_one, 1.0 - 2.0 * p_one, dependence, run)
