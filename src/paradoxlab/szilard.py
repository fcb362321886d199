"""Single-particle information engine with an explicit erasure ledger.

One engine cycle on four qubits: a particle whose position is the working
medium, a one-qubit demon memory, and a two-qubit unary weight register that
embodies the extracted work.  Each cycle takes a fresh thermal particle,
records its position into the memory, and shifts the weight up or down one
level by whether the record agrees with the particle.  A blank memory always
produces an agreeing record (one unit of work out); a stale uncorrelated
record guesses the side and averages to zero.  Resetting the memory restores
the blank state and costs the one bit the record carried, which is the
erasure charge the ledger tracks.  The two stages, observe and stroke, are
fixed circuits of X and CX gates, so each is reversible logic: its unitary
is a permutation P of the 16 basis states.  At import each stage's P is read
from its circuit's unitary and kept as a row and column gather, and a stage
maps rho to P rho P^T by indexing alone.  That moves entries without any
arithmetic, so it is exact for every rho, not only for the diagonal states
a run visits.  A permutation of a valid state is valid and so is its partial
trace, so the cycle carries plain arrays and builds a checked state only for
the memory it hands out.  The ledger reads only the weight and the memory,
and the next cycle brings a fresh particle, so the spent one is simply
traced out; a reset leaves |0><0| whatever the memory held, so the next
cycle is handed a blank record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, circuit_unitary
from .errors import (
    BadMemoryState,
    BadParams,
    BadPartition,
    BadProbability,
    DimensionMismatch,
    NotAPermutation,
)
from .qmath import (
    MAX_SHOTS,
    DensityMatrix,
    _count,
    _partial_trace,
    _real,
    _require_state,
    _vn_entropy_bits,
    basis_state,
)

PARTICLE = 0
MEMORY = 1
W1 = 2
W0 = 3

# Unary weight ladder: local index bits are (w1, w0), energy is the bit sum,
# and the cycle starts from |01> so one level of headroom exists either way.
_ENERGY = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
_START_ENERGY = 1.0


def work_expectation(weight_state: DensityMatrix) -> float:
    """Expected work stored in the weight register relative to its start level."""
    _require_state(weight_state, "weight state")
    if weight_state.n != 2:
        raise DimensionMismatch(
            f"weight register has 2 qubits, got a {weight_state.n}-qubit state"
        )
    return _work(weight_state.mat)


def _work(weight: np.ndarray) -> float:
    return float(np.real(np.trace(weight @ _ENERGY))) - _START_ENERGY


def mutual_information(
    joint: DensityMatrix, part_a: Sequence[int], part_b: Sequence[int]
) -> float:
    """Quantum mutual information S(A) + S(B) - S(AB) in bits.

    ``part_a`` and ``part_b`` must be disjoint and together cover every qubit
    of ``joint``.
    """
    _require_state(joint, "joint state")
    a = list(part_a)
    b = list(part_b)
    everything = sorted(a + b)
    if not a or not b or set(a) & set(b) or everything != list(range(joint.n)):
        raise BadPartition(
            f"parts {a} and {b} do not split a {joint.n}-qubit state"
        )
    return _mutual_information(joint.mat, sorted(a), sorted(b))


def _mutual_information(joint: np.ndarray, part_a: list, part_b: list) -> float:
    """``mutual_information`` of an array; the parts are ascending and split its qubits."""
    s_a = _vn_entropy_bits(_partial_trace(joint, part_a))
    s_b = _vn_entropy_bits(_partial_trace(joint, part_b))
    return max(0.0, s_a + s_b - _vn_entropy_bits(joint))


@dataclass(frozen=True)
class SzilardConfig:
    """Engine run parameters.

    ``depolarize_p`` sets the fresh particle's populations, (1 - p/2, p/2):
    the depolarizing channel of strength p applied to |0>.  1.0 is the standard
    engine, whose particle is maximally mixed; 0.0 starts every particle at |0>
    (useful for tracing the logic).
    """

    cycles: int = 1
    skip_reset: bool = False
    depolarize_p: float = 1.0

    def __post_init__(self) -> None:
        _count(self.cycles, "cycles", floor=1)
        if not isinstance(self.skip_reset, bool):
            raise BadParams(f"skip_reset must be a bool, got {self.skip_reset!r}")
        if not 0.0 <= _real(self.depolarize_p) <= 1.0:
            raise BadProbability(f"depolarize_p must lie in [0, 1], got {self.depolarize_p!r}")


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


# The cycle's two stages, built once at import and shared read-only. Observe
# raises the weight to its start level and records the particle position into
# the memory.
_OBSERVE = Circuit(4).x(W0).cx(PARTICLE, MEMORY)
# Fold the particle onto the record: memory now holds the agreement bit,
# 0 when the record matches the particle and the weight should rise.
_STROKE = Circuit(4).cx(PARTICLE, MEMORY).x(MEMORY).cx(MEMORY, W1).x(MEMORY).cx(MEMORY, W0)
_STROKE.cx(PARTICLE, MEMORY)  # unfold, leaving the record in place


def _stage_gather(stage: Circuit) -> tuple:
    """Read-only ``np.ix_`` pair with ``rho[pair]`` = U rho U^dag for ``stage``'s unitary U.

    U must be exactly a 0/1 permutation matrix: row a holds one nonzero
    entry, a 1 in column ``src[a]``, and every column is hit once. Then
    (U rho U^dag)[a, b] = rho[src[a], src[b]].
    """
    u = circuit_unitary(stage)
    rows, src = np.nonzero(u)
    dim = u.shape[0]
    one_per_row = np.array_equal(rows, np.arange(dim)) and bool((u[rows, src] == 1).all())
    if not (one_per_row and set(src.tolist()) == set(range(dim))):
        raise NotAPermutation("a Szilard stage's unitary is not a permutation of the basis states")
    pair = np.ix_(src, src)
    for index in pair:
        index.setflags(write=False)
    return pair


_OBSERVE_GATHER = _stage_gather(_OBSERVE)
_STROKE_GATHER = _stage_gather(_STROKE)


@cache
def _blank() -> DensityMatrix:
    """The blank record |0><0| a reset hands on, shared read-only.

    Built on first use, so that importing the package runs no eigensolver.
    """
    blank = basis_state(1)
    blank.mat.setflags(write=False)
    return blank


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
    p = cfg.depolarize_p
    particle = np.diag([1 - p / 2, p / 2]).astype(complex)
    # The weight starts at |00>, so only the block of the low two qubits is nonzero.
    rho = np.zeros((16, 16), dtype=complex)
    rho[:4, :4] = np.kron(memory_in.mat, particle)
    rho = rho[_OBSERVE_GATHER]
    mutual = _mutual_information(_partial_trace(rho, [PARTICLE, MEMORY]), [0], [1])
    rho = rho[_STROKE_GATHER]
    expected = _work(_partial_trace(rho, [W1, W0]))
    memory = _partial_trace(rho, [MEMORY])
    pre_entropy = _vn_entropy_bits(memory)
    memory_out = DensityMatrix(memory) if cfg.skip_reset else _blank()

    record = CycleRecord(
        cycle=1,
        expected_work=expected,
        sampled_work=None,
        memory_entropy_pre_reset=pre_entropy,
        memory_entropy_post=_vn_entropy_bits(memory_out.mat),
        mutual_info_particle_memory=mutual,
    )
    return record, memory_out


def _sample_trajectories(cfg: SzilardConfig, shots: int, seed: int) -> List[int]:
    """Seeded per-cycle work totals over ``shots`` independent trajectories.

    Every state the exact run visits is diagonal in the computational basis,
    so one shot's memory is a classical bit: a fresh particle is a fair coin
    with probability p, else 0, and the cycle XORs it into the bit, so a set
    bit clears and a clear bit sets each with probability p/2. A blank record
    wins one unit and a set one loses one, so a cycle with N set bits totals
    shots - 2N. The shots are independent and alike, so N is itself a Markov
    chain (lumpability; Kemeny and Snell, *Finite Markov Chains*, 1960,
    sec. 6.3) and two binomial draws per cycle sample it exactly, at a cost
    that does not grow with ``shots``. With the reset on, every cycle starts
    from a blank record and wins one unit per shot, so such runs draw nothing.
    """
    if not cfg.skip_reset:
        return [shots] * cfg.cycles
    rng = np.random.Generator(np.random.PCG64(seed))
    flip = cfg.depolarize_p / 2
    set_bits = 0
    totals: List[int] = []
    for _ in range(cfg.cycles):
        totals.append(shots - 2 * set_bits)
        cleared = int(rng.binomial(set_bits, flip))
        set_bits += int(rng.binomial(shots - set_bits, flip)) - cleared
    return totals


def run_cycles(cfg: SzilardConfig, shots: int = 0, seed: int = 0) -> Tuple[CycleRecord, ...]:
    """Run the configured number of cycles, carrying the memory state across.

    Returns one record per cycle, in cycle order. With ``shots`` > 0 a seeded
    trajectory sample is attached to each record; the exact expectation
    values are computed either way.
    """
    _require_config(cfg)
    shots = _count(shots, "shots", ceiling=MAX_SHOTS)
    # Checked here, not by the generator: a run with the reset on never seeds one.
    seed = _count(seed, "seed")
    totals = _sample_trajectories(cfg, shots, seed) if shots > 0 else [None] * cfg.cycles
    memory = _blank()
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
