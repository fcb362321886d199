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
is a permutation P of the 16 basis states.  The weight starts at |00>, so at
the start only the four rows of memory (x) particle can be nonzero, and P
takes four live rows to four live rows: a cycle runs on that 4 x 4 block
alone.  At import each stage's P is read from its circuit's unitary, and the
live rows after each stage, the stage's 4 x 4 gather and the table of every
reduced state the ledger reads are derived from it and the qubit constants.
A gather moves entries without any arithmetic, so it is exact for every
state, not only for the diagonal states a run visits.  A reduced state sums,
into zeros, the block entries whose rows agree on the traced bits, as the
16-state partial trace does.  That sum turns a -0.0 entry into +0.0, and it
must: the eigensolver reads the sign of a zero, so a raw block would move an
entropy in its last bits.  A permutation of a valid state is valid and so is
its partial trace, so the cycle carries plain arrays and builds a checked
state only for the memory it hands out.  The ledger reads only the weight
and the memory, and the next cycle brings a fresh particle, so the spent one
is simply traced out; a reset leaves |0><0| whatever the memory held, so the
next cycle is handed a blank record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, basis_permutation
from .errors import (
    BadMemoryState,
    BadParams,
    BadPartition,
    BadProbability,
    DimensionMismatch,
)
from .qmath import (
    ENTROPY_EIG_FLOOR,
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
    s_a = _vn_entropy_bits(_partial_trace(joint.mat, sorted(a)))
    s_b = _vn_entropy_bits(_partial_trace(joint.mat, sorted(b)))
    return max(0.0, s_a + s_b - _vn_entropy_bits(joint.mat))


@dataclass(frozen=True)
class SzilardConfig:
    """Engine run parameters.

    ``depolarize_p`` sets the fresh particle's populations, (1 - p/2, p/2):
    the depolarizing channel of strength p applied to |0>.  1.0 is the standard
    engine, whose particle is maximally mixed; 0.0 starts every particle at |0>
    (useful for tracing the logic).  Any real type is accepted and stored as
    a float, so that the particle is built in double precision.
    """

    cycles: int = 1
    skip_reset: bool = False
    depolarize_p: float = 1.0

    def __post_init__(self) -> None:
        _count(self.cycles, "cycles", floor=1)
        if not isinstance(self.skip_reset, bool):
            raise BadParams(f"skip_reset must be a bool, got {self.skip_reset!r}")
        p = _real(self.depolarize_p)
        if not 0.0 <= p <= 1.0:
            raise BadProbability(f"depolarize_p must lie in [0, 1], got {self.depolarize_p!r}")
        object.__setattr__(self, "depolarize_p", p)


def _require_config(cfg) -> None:
    if not isinstance(cfg, SzilardConfig):
        raise BadParams(f"cfg must be a SzilardConfig, got {cfg!r}")


class CycleRecord(NamedTuple):
    """Bookkeeping for one engine cycle: a row of the ledger, whose columns
    are the fields."""

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


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _stage_gather(stage: Circuit, live: np.ndarray) -> tuple:
    """``(rows, pair)`` for ``stage``'s unitary U acting on a state whose rows
    ``live`` (ascending) alone can be nonzero.

    U must permute the basis states (``basis_permutation`` refuses it
    otherwise), with source rows ``src``: (U rho U^dag)[a, b] = rho[src[a],
    src[b]]. So the state after the stage lives on the ascending ``rows``
    whose source is live, and with the block B of rho on ``live``, its block
    on ``rows`` is ``B[pair]``. Both arrays are read-only, and so are the
    ``np.ix_`` views in ``pair``.
    """
    src = basis_permutation(stage)
    rows = np.flatnonzero(np.isin(src, live))
    at = np.searchsorted(live, src[rows])
    _read_only(rows, at)
    return rows, np.ix_(at, at)


def _reduction(rows: np.ndarray, keep: Sequence[int]) -> tuple:
    """``(at, take)`` with which ``np.add.at(out, at, block[take])``, into
    zeros, is the partial trace keeping the ascending ``keep`` of a 4-qubit
    state that is ``block`` on ``rows`` and zero elsewhere.

    Entry (i, j) adds to the reduced entry of its rows' kept bits when the
    rows agree on every traced bit, as ``_partial_trace`` sums them; the
    other pairs trace to nothing. Every array is read-only. The sum starts
    from zeros, as ``_partial_trace``'s does, so a -0.0 entry comes out +0.0
    even where it is the only term.
    """
    traced = sum(1 << q for q in range(4) if q not in keep)
    kept = sum(((rows >> q) & 1) << k for k, q in enumerate(keep))
    i, j = np.nonzero((rows[:, None] & traced) == (rows[None, :] & traced))
    at, take = (kept[i], kept[j]), (i, j)
    _read_only(*at, *take)
    return at, take


# The weight starts at |00>, so the state starts on the rows whose weight
# bits are clear: memory (x) particle, the two low qubits. Each stage permutes
# basis states, so it keeps four live rows, and a cycle runs on their 4 x 4
# block alone.
_START_ROWS = np.array([r for r in range(16) if not (r >> W1) & 1 and not (r >> W0) & 1])
_read_only(_START_ROWS)
_OBSERVED_ROWS, _OBSERVE_GATHER = _stage_gather(_OBSERVE, _START_ROWS)
_STROKED_ROWS, _STROKE_GATHER = _stage_gather(_STROKE, _OBSERVED_ROWS)
# The reduced states the ledger reads: particle and memory after observe,
# the weight and the memory after the stroke.
_PARTICLE_MEMORY = _reduction(_OBSERVED_ROWS, [PARTICLE, MEMORY])
_PARTICLE = _reduction(_OBSERVED_ROWS, [PARTICLE])
_MEMORY_OBSERVED = _reduction(_OBSERVED_ROWS, [MEMORY])
_MEMORY_STROKED = _reduction(_STROKED_ROWS, [MEMORY])
_WEIGHT = _reduction(_STROKED_ROWS, [W1, W0])


def _reduce(block: np.ndarray, table: tuple, out: np.ndarray) -> np.ndarray:
    """``out``, zeros, plus the partial trace of ``block`` by a ``_reduction`` table."""
    at, take = table
    np.add.at(out, at, block[take])
    return out


@cache
def _blank() -> DensityMatrix:
    """The blank record |0><0| a reset hands on, shared read-only.

    Built on first use, so that importing the package runs no eigensolver.
    """
    blank = basis_state(1)
    blank.mat.setflags(write=False)
    return blank


@cache
def _blank_entropy() -> float:
    """The blank record's entropy, -0.0: an empty sum of eigenvalue terms, negated."""
    return _vn_entropy_bits(_blank().mat)


def _entropies_bits(spectra: np.ndarray) -> list:
    """``_vn_entropy_bits`` of each row of ``spectra``, a stack of two
    eigenvalues each. A term at or below the floor adds +0.0 in place of
    being dropped, which leaves every sum of two terms as it was."""
    live = spectra > ENTROPY_EIG_FLOOR
    logs = np.log2(spectra, where=live, out=np.zeros_like(spectra))
    terms = np.multiply(spectra, logs, where=live, out=np.zeros_like(spectra))
    return (-np.sum(terms, axis=1)).tolist()


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
    particle = np.array([[1 - p / 2, 0], [0, p / 2]], dtype=complex)
    # np.kron's products, memory first, on the start rows.
    block = (memory_in.mat[:, None, :, None] * particle[None, :, None, :]).reshape(4, 4)
    observed = block[_OBSERVE_GATHER]
    stroked = observed[_STROKE_GATHER]
    marginals = np.zeros((3, 2, 2), dtype=complex)
    _reduce(observed, _PARTICLE, marginals[0])
    _reduce(observed, _MEMORY_OBSERVED, marginals[1])
    _reduce(stroked, _MEMORY_STROKED, marginals[2])
    # One eigensolve for the three 2 x 2 spectra, each as its own solve gives it.
    s_particle, s_memory, pre_entropy = _entropies_bits(np.linalg.eigvalsh(marginals))
    joint = _reduce(observed, _PARTICLE_MEMORY, np.zeros((4, 4), dtype=complex))
    s_joint = _vn_entropy_bits(joint)
    expected = _work(_reduce(stroked, _WEIGHT, np.zeros((4, 4), dtype=complex)))
    if cfg.skip_reset:
        memory_out = DensityMatrix(marginals[2])
        post_entropy = pre_entropy
    else:
        memory_out = _blank()
        post_entropy = _blank_entropy()
    record = CycleRecord(
        cycle=1,
        expected_work=expected,
        sampled_work=None,
        memory_entropy_pre_reset=pre_entropy,
        memory_entropy_post=post_entropy,
        mutual_info_particle_memory=max(0.0, s_particle + s_memory - s_joint),
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
        # Positional, in field order: cheaper than ``_replace`` per record,
        # which a long run with a repeated memory pays once a cycle.
        records.append(
            CycleRecord(
                k,
                rec.expected_work,
                total,
                rec.memory_entropy_pre_reset,
                rec.memory_entropy_post,
                rec.mutual_info_particle_memory,
            )
        )
    return tuple(records)
