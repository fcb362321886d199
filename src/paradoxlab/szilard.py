"""Single-particle information engine with an explicit erasure ledger.

One engine cycle on four qubits: a particle whose position is the working
medium, a one-qubit demon memory, and a two-qubit unary weight register that
embodies the extracted work.  The particle is randomized, its position is
recorded into the memory, and a shift conditioned on whether the record
agrees with the particle moves the weight up or down one level.  A blank
memory always produces an agreeing record (one unit of work out); a stale
uncorrelated record guesses the side and averages to zero.  Resetting the
memory restores the blank state and costs the one bit the record carried,
which is the erasure charge the ledger tracks.  A reset leaves |0><0|
whatever the memory held, so the engine simulates only the observe and
stroke stages and hands the next cycle a blank record.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, depolarizing_kraus, run_density
from .errors import (
    BadMemoryState,
    BadParams,
    BadPartition,
    BadProbability,
    DimensionMismatch,
)
from .qmath import (
    DensityMatrix,
    _nonnegative_int,
    basis_state,
    kron_all,
    partial_trace,
    vn_entropy_bits,
)

PARTICLE = 0
MEMORY = 1
W1 = 2
W0 = 3

_GROUND = np.diag([1.0, 0.0]).astype(complex)

# Unary weight ladder: local index bits are (w1, w0), energy is the bit sum,
# and the cycle starts from |01> so one level of headroom exists either way.
_ENERGY = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
_START_ENERGY = 1.0


def work_expectation(weight_state: DensityMatrix) -> float:
    """Expected work stored in the weight register relative to its start level."""
    if weight_state.n != 2:
        raise DimensionMismatch(
            f"weight register has 2 qubits, got a {weight_state.n}-qubit state"
        )
    energy = float(np.real(np.trace(weight_state.mat @ _ENERGY)))
    return energy - _START_ENERGY


def mutual_information(
    joint: DensityMatrix, part_a: Sequence[int], part_b: Sequence[int]
) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits.

    ``part_a`` and ``part_b`` must be disjoint and together cover every qubit
    of ``joint``.
    """
    a = list(part_a)
    b = list(part_b)
    everything = sorted(a + b)
    if not a or not b or set(a) & set(b) or everything != list(range(joint.n)):
        raise BadPartition(
            f"parts {a} and {b} do not split a {joint.n}-qubit state"
        )
    s_a = vn_entropy_bits(partial_trace(joint, a))
    s_b = vn_entropy_bits(partial_trace(joint, b))
    s_ab = vn_entropy_bits(joint)
    return max(0.0, s_a + s_b - s_ab)


@dataclass(frozen=True)
class SzilardConfig:
    """Engine run parameters.

    ``depolarize_p`` sets the strength of the randomizing channel applied to
    the particle at the start of each cycle and again after the work stroke;
    1.0 is the standard engine, 0.0 leaves the particle wherever it was
    prepared (useful for tracing the logic).
    """

    cycles: int = 1
    skip_reset: bool = False
    depolarize_p: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.cycles, bool) or not isinstance(self.cycles, int) or self.cycles < 1:
            raise BadParams(f"cycles must be a positive integer, got {self.cycles!r}")
        if not isinstance(self.skip_reset, bool):
            raise BadParams(f"skip_reset must be a bool, got {self.skip_reset!r}")
        p = self.depolarize_p
        if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
            raise BadProbability(f"depolarize_p must lie in [0, 1], got {p!r}")


def _require_config(cfg) -> None:
    if not isinstance(cfg, SzilardConfig):
        raise BadParams(f"cfg must be a SzilardConfig, got {cfg!r}")


@dataclass(frozen=True)
class CycleRecord:
    """Bookkeeping for one engine cycle."""

    cycle: int
    expected_work: float
    sampled_work: Optional[int]
    memory_entropy_pre_reset: float
    memory_entropy_post: float
    mutual_info_particle_memory: float


@lru_cache(maxsize=8)
def _stages(depolarize_p: float) -> Tuple[Circuit, Circuit]:
    """The cycle's observe and stroke stages; built once per strength, shared read-only."""
    depolarize = depolarizing_kraus(depolarize_p)
    observe = Circuit(4).channel(depolarize, [PARTICLE]).x(W0)
    observe.cx(PARTICLE, MEMORY)  # record the particle position into the memory
    # Fold the particle onto the record: memory now holds the agreement bit,
    # 0 when the record matches the particle and the weight should rise.
    stroke = Circuit(4).cx(PARTICLE, MEMORY).x(MEMORY).cx(MEMORY, W1).x(MEMORY).cx(MEMORY, W0)
    stroke.cx(PARTICLE, MEMORY)  # unfold, leaving the record in place
    stroke.channel(depolarize, [PARTICLE])  # rethermalize
    return observe, stroke


def run_single_cycle(
    memory_in: DensityMatrix, cfg: SzilardConfig = SzilardConfig()
) -> Tuple[CycleRecord, DensityMatrix]:
    """Run one cycle from a fresh particle and the given memory state.

    Reads ``cfg.skip_reset`` and ``cfg.depolarize_p``; ``cfg.cycles`` is not
    read. Returns the cycle record (with ``cycle`` set to 1 and no sampled
    work) and the memory state handed to the next cycle: the blank record
    |0><0| with the reset on, the post-stroke memory without it.
    """
    if not isinstance(memory_in, DensityMatrix) or memory_in.n != 1:
        raise BadMemoryState("memory must be a single-qubit density matrix")
    _require_config(cfg)
    observe, stroke = _stages(cfg.depolarize_p)
    rho = DensityMatrix(kron_all([_GROUND, memory_in.mat, _GROUND, _GROUND]))
    rho = run_density(observe, rho).final_state
    mutual = mutual_information(partial_trace(rho, [PARTICLE, MEMORY]), [0], [1])
    rho = run_density(stroke, rho).final_state
    expected = work_expectation(partial_trace(rho, [W1, W0]))
    memory_out = partial_trace(rho, [MEMORY])
    pre_entropy = vn_entropy_bits(memory_out)
    if not cfg.skip_reset:
        memory_out = basis_state(1).density()

    record = CycleRecord(
        cycle=1,
        expected_work=expected,
        sampled_work=None,
        memory_entropy_pre_reset=pre_entropy,
        memory_entropy_post=vn_entropy_bits(memory_out),
        mutual_info_particle_memory=mutual,
    )
    return record, memory_out


def _sample_trajectories(cfg: SzilardConfig, shots: int, seed: int) -> List[int]:
    """Classical per-shot unraveling of the engine.

    Valid because every state the exact run visits is diagonal in the
    computational basis, so the channel reduces to "replace the particle by a
    fair coin with probability p" and the gates to bit arithmetic. With the
    reset on, every cycle starts from a blank record and wins one unit per
    shot; the coins a cycle draws only reach the record the reset blanks, so
    such runs draw nothing.
    """
    if not cfg.skip_reset:
        return [shots] * cfg.cycles
    rng = np.random.Generator(np.random.PCG64(seed))
    memory = np.zeros(shots, dtype=np.int8)
    totals: List[int] = []
    for _ in range(cfg.cycles):
        # A blank record gains one unit, a set one loses one.
        totals.append(shots - 2 * int(np.count_nonzero(memory)))
        hit = rng.random(shots) < cfg.depolarize_p
        coin = rng.integers(0, 2, shots, dtype=np.int8)
        np.bitwise_xor(memory, coin, out=memory, where=hit)
    return totals


def run_cycles(cfg: SzilardConfig, shots: int = 0, seed: int = 0) -> Tuple[CycleRecord, ...]:
    """Run the configured number of cycles, carrying the memory state across.

    Returns one record per cycle, in cycle order. With ``shots`` > 0 a seeded
    trajectory sample is attached to each record; the exact expectation
    values are computed either way.
    """
    _require_config(cfg)
    _nonnegative_int(shots, "shots")
    # Checked here, not by the generator: a run with the reset on never seeds one.
    _nonnegative_int(seed, "seed")
    totals = _sample_trajectories(cfg, shots, seed) if shots > 0 else [None] * cfg.cycles
    memory = basis_state(1).density()
    records: List[CycleRecord] = []
    simulated_from = None
    for k, total in enumerate(totals, start=1):
        # A cycle is a deterministic function of its incoming memory, so the
        # same bytes in give the same record and the same memory out.
        incoming = memory.mat.tobytes()
        if incoming != simulated_from:
            rec, memory = run_single_cycle(memory, cfg)
            simulated_from = incoming
        records.append(replace(rec, cycle=k, sampled_work=total))
    return tuple(records)
