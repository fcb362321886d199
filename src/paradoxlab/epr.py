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
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Sequence

from .circuit import Circuit, run_density
from .descriptor import dependence_probe
from .errors import BadParams

ALICE, BOB, ALICE_MEM, BOB_MEM, CHECK = range(5)

_PROBE_OFFSET = 0.8

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
            if not math.isfinite(value):
                raise BadParams(f"{name} must be finite, got {value}")


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
    c = build_epr_unitary(cfg, include_parity=cfg.deferred)
    if cfg.deferred:
        c.n_clbits = 1
        return c.measure(CHECK, 0)
    # collapse the records, then run the parity gates off the collapsed qubits
    c.n_clbits = 3
    c.measure(ALICE_MEM, 0).measure(BOB_MEM, 1)
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


def sweep(thetas: Sequence[float], phis: Sequence[float]) -> List[SweepPoint]:
    """Exact check probabilities over the cartesian angle grid."""
    return [
        SweepPoint(float(t), float(p), check_distribution(EprConfig(float(t), float(p))))
        for t in thetas
        for p in phis
    ]


@dataclass(frozen=True)
class EprReport:
    theta: float
    phi: float
    p_check_one: float
    correlation: float
    dependence: Dict[str, Dict[str, bool]]


def info_flow_report(cfg: EprConfig) -> EprReport:
    """Check statistics plus which angles each tracked qubit's record carries.

    Memory qubits are probed on the circuit truncated before the parity
    gates; the check qubit on the full circuit.
    """
    if not cfg.deferred:
        raise BadParams("information flow is tracked on the all-unitary form")

    def depends(qubit: int, include_parity: bool, angle: str) -> bool:
        def build(v):
            return build_epr_unitary(replace(cfg, **{angle: v}), include_parity)

        base = getattr(cfg, angle)
        return dependence_probe(build, qubit, base, base + _PROBE_OFFSET)[0]

    dependence = {
        record: {angle: depends(qubit, parity, angle) for angle in ("theta", "phi")}
        for record, (qubit, parity) in _PROBED.items()
    }
    if dependence["bob_memory"]["theta"] or dependence["alice_memory"]["phi"]:
        raise RuntimeError("a memory record depends on the far side's angle")
    if not (dependence["check"]["theta"] and dependence["check"]["phi"]):
        raise RuntimeError("the parity record lost an angle dependence")
    p_one = check_distribution(cfg)
    return EprReport(cfg.theta, cfg.phi, p_one, 1.0 - 2.0 * p_one, dependence)
