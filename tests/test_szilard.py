from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracle

from paradoxlab import qmath, szilard
from paradoxlab.circuit import Circuit, run_density
from paradoxlab.errors import (
    BadMemoryState,
    BadParams,
    BadPartition,
    BadProbability,
    DimensionMismatch,
    NotAPermutation,
)
from paradoxlab.qmath import (
    DensityMatrix,
    basis_state,
    maximally_mixed,
    partial_trace,
    trace_distance,
)
from paradoxlab.szilard import (
    W0,
    W1,
    SzilardConfig,
    _OBSERVE,
    _OBSERVE_GATHER,
    _OBSERVED_ROWS,
    _START_ROWS,
    _STROKE,
    _STROKE_GATHER,
    _STROKED_ROWS,
    mutual_information,
    run_cycles,
    run_single_cycle,
    work_expectation,
)
from util import count_calls


def qubit_dm(bit):
    m = np.zeros((2, 2), dtype=complex)
    m[bit, bit] = 1
    return DensityMatrix(m)


def basis_dm(n, index):
    return basis_state(n, index)


def run_stages(initial):
    """Runs the cycle's observe then stroke stages; the reset is not part of them."""
    for stage in (_OBSERVE, _STROKE):
        initial = run_density(stage, initial=initial).final_state
    return initial


BELL = DensityMatrix(
    np.array(
        [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]], dtype=complex
    ),
)

CLASSICAL_PAIR = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))


class TestWorkExpectation:
    def test_lifted_weight(self):
        assert work_expectation(basis_dm(2, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_dropped_weight(self):
        assert work_expectation(basis_dm(2, 0)) == pytest.approx(-1.0, abs=1e-12)

    def test_intermediate_levels(self):
        assert work_expectation(basis_dm(2, 1)) == pytest.approx(0.0, abs=1e-12)
        assert work_expectation(basis_dm(2, 2)) == pytest.approx(0.0, abs=1e-12)
        assert work_expectation(maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_qubits(self):
        with pytest.raises(DimensionMismatch):
            work_expectation(maximally_mixed(1))


class TestMutualInformation:
    def test_product_state(self):
        joint = DensityMatrix(np.kron(np.eye(2) / 2, np.eye(2) / 2))
        assert mutual_information(joint, [0], [1]) == pytest.approx(0.0, abs=1e-9)

    def test_classical_correlation(self):
        assert mutual_information(CLASSICAL_PAIR, [0], [1]) == pytest.approx(1.0, abs=1e-9)

    def test_bell_pair(self):
        assert mutual_information(BELL, [0], [1]) == pytest.approx(2.0, abs=1e-9)

    def test_never_negative_on_product_states(self):
        """S(A) + S(B) - S(AB) of a product rounds below zero as often as not; it reads 0."""
        rng = np.random.default_rng(89)
        for _ in range(20):
            a, b = (oracle.random_density(2, rng) for _ in range(2))
            assert mutual_information(DensityMatrix(np.kron(b, a)), [0], [1]) >= 0.0

    def test_partition_checked(self):
        with pytest.raises(BadPartition):
            mutual_information(BELL, [0], [0])
        with pytest.raises(BadPartition):
            mutual_information(BELL, [0], [])
        with pytest.raises(BadPartition):
            mutual_information(DensityMatrix(np.eye(4) / 4), [0], [1, 2])


class TestWeightLogic:
    @pytest.mark.parametrize(
        "particle,memory,weight_index",
        [(0, 0, 3), (1, 0, 3), (0, 1, 0), (1, 1, 0)],
    )
    def test_truth_table(self, particle, memory, weight_index):
        """Blank memory lifts the weight; stale memory drops it."""
        initial = DensityMatrix(
            oracle.kron_chain(
                [qubit_dm(particle).mat, qubit_dm(memory).mat, np.diag([1.0, 0]), np.diag([1.0, 0])]
            ),
        )
        final = run_stages(initial)
        weight = partial_trace(final, [W1, W0])
        assert weight.mat[weight_index, weight_index] == pytest.approx(1.0, abs=1e-9)

    def test_memory_state_validated(self):
        with pytest.raises(BadMemoryState):
            run_single_cycle(maximally_mixed(2))

    def test_bad_strength_fails_through_the_config(self):
        with pytest.raises(BadProbability, match="depolarize_p must lie in"):
            run_single_cycle(basis_dm(1, 0), SzilardConfig(depolarize_p=1.5))


def reference_cycle(memory, skip_reset, p):
    """One engine cycle on (particle 0, memory 1, w1 2, w0 3) from oracle parts only.

    Returns the record fields and the output memory in the order
    (mutual information, expected work, entropy before and after the reset, memory out).
    """
    ground = oracle.density(oracle.KET0)
    one = oracle.density(oracle.KET1)

    def gate(rho, op, qubits):
        full = oracle.lift(op, qubits, 4)
        return full @ rho @ full.conj().T

    def kraus(rho, ops, qubit):
        return sum(gate(rho, k, [qubit]) for k in ops)

    depolarize = [np.sqrt(1 - 3 * p / 4) * oracle.I2] + [
        np.sqrt(p / 4) * pauli for pauli in (oracle.X, oracle.Y, oracle.Z)
    ]
    rho = oracle.kron_chain([ground, memory, ground, ground])
    rho = kraus(rho, depolarize, 0)
    rho = gate(rho, oracle.X, [3])
    rho = gate(rho, oracle.CNOT, [0, 1])
    s = oracle.entropy_bits
    mutual = (
        s(oracle.ptrace(rho, [0], 4))
        + s(oracle.ptrace(rho, [1], 4))
        - s(oracle.ptrace(rho, [0, 1], 4))
    )
    for op, qubits in [
        (oracle.CNOT, [0, 1]),
        (oracle.X, [1]),
        (oracle.CNOT, [1, 2]),
        (oracle.X, [1]),
        (oracle.CNOT, [1, 3]),
        (oracle.CNOT, [0, 1]),
    ]:
        rho = gate(rho, op, qubits)
    rho = kraus(rho, depolarize, 0)
    # Work is the weight's excitation count above the one it starts with.
    work = sum(np.trace(oracle.lift(one, [q], 4) @ rho).real for q in (2, 3)) - 1
    pre = s(oracle.ptrace(rho, [1], 4))
    if not skip_reset:
        rho = kraus(rho, [ground, np.outer(oracle.KET0, oracle.KET1)], 1)
    memory_out = oracle.ptrace(rho, [1], 4)
    return mutual, work, pre, s(memory_out), memory_out


# Complex non-diagonal memories as well as the diagonal ones the CLI visits:
# the stages' gathers must be exact for any state.
ORACLE_MEMORIES = {
    "blank": oracle.density(oracle.KET0),
    "mixed": np.eye(2, dtype=complex) / 2,
    **{f"random{k}": oracle.random_density(2, np.random.default_rng(k)) for k in range(20)},
}


class TestCycleOracle:
    @pytest.mark.parametrize("skip_reset", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("memory", ORACLE_MEMORIES)
    def test_cycle_matches_oracle(self, memory, p, skip_reset):
        mat = ORACLE_MEMORIES[memory]
        cfg = SzilardConfig(skip_reset=skip_reset, depolarize_p=p)
        rec, memory_out = run_single_cycle(DensityMatrix(mat), cfg)
        mutual, work, pre, post, want_out = reference_cycle(mat, skip_reset, p)
        assert rec.cycle == 1 and rec.sampled_work is None
        assert rec.mutual_info_particle_memory == pytest.approx(mutual, abs=1e-10)
        assert rec.expected_work == pytest.approx(work, abs=1e-10)
        assert rec.memory_entropy_pre_reset == pytest.approx(pre, abs=1e-10)
        assert rec.memory_entropy_post == pytest.approx(post, abs=1e-10)
        np.testing.assert_allclose(memory_out.mat, want_out, atol=1e-10)


class TestCyclesWithErasure:
    def test_unit_work_every_cycle(self):
        records = run_cycles(SzilardConfig(cycles=5))
        assert len(records) == 5
        for rec in records:
            assert rec.expected_work == pytest.approx(1.0, abs=1e-9)
        assert sum(rec.expected_work for rec in records) == pytest.approx(5.0, abs=1e-9)

    def test_memory_returns_to_ground(self):
        memory = basis_state(1)
        for _ in range(3):
            rec, memory = run_single_cycle(memory)
            assert trace_distance(memory, basis_state(1)) <= 1e-10
            assert rec.memory_entropy_post == pytest.approx(0.0, abs=1e-9)

    def test_erasure_removes_one_bit_from_stale_memory(self):
        rec, _ = run_single_cycle(maximally_mixed(1), SzilardConfig(skip_reset=False))
        assert rec.memory_entropy_pre_reset == pytest.approx(1.0, abs=1e-9)
        assert rec.memory_entropy_post == pytest.approx(0.0, abs=1e-9)

    def test_measurement_writes_one_bit(self):
        records = run_cycles(SzilardConfig(cycles=1))
        assert records[0].mutual_info_particle_memory == pytest.approx(1.0, abs=1e-9)


class TestCyclesWithoutErasure:
    def test_second_cycle_yields_nothing(self):
        records = run_cycles(SzilardConfig(cycles=5, skip_reset=True))
        works = [rec.expected_work for rec in records]
        assert works[0] == pytest.approx(1.0, abs=1e-9)
        for w in works[1:]:
            assert w == pytest.approx(0.0, abs=1e-9)

    def test_memory_saturates_at_one_bit(self):
        records = run_cycles(SzilardConfig(cycles=3, skip_reset=True))
        assert records[0].memory_entropy_post == pytest.approx(1.0, abs=1e-9)
        assert records[1].memory_entropy_pre_reset == pytest.approx(1.0, abs=1e-9)

    def test_full_memory_learns_nothing(self):
        records = run_cycles(SzilardConfig(cycles=2, skip_reset=True))
        assert records[1].mutual_info_particle_memory == pytest.approx(0.0, abs=1e-9)


# Both stages are their own inverses; this 3-cycle of basis states is not,
# so a gather read the wrong way round fails on it.
CYCLE = Circuit(4).cx(0, 1).cx(1, 0)


# Each stage with the live rows it reads and the live rows it leaves.
LIVE_STAGES = (
    (_OBSERVE, _START_ROWS, _OBSERVED_ROWS, _OBSERVE_GATHER),
    (_STROKE, _OBSERVED_ROWS, _STROKED_ROWS, _STROKE_GATHER),
    (CYCLE, _START_ROWS, *szilard._stage_gather(CYCLE, _START_ROWS)),
)

# Every reduced state a cycle reads, with the live rows of its block.
REDUCTIONS = {
    "particle+memory": (_OBSERVED_ROWS, [0, 1], szilard._PARTICLE_MEMORY),
    "particle": (_OBSERVED_ROWS, [0], szilard._PARTICLE),
    "memory observed": (_OBSERVED_ROWS, [1], szilard._MEMORY_OBSERVED),
    "memory stroked": (_STROKED_ROWS, [1], szilard._MEMORY_STROKED),
    "weight": (_STROKED_ROWS, [W1, W0], szilard._WEIGHT),
}


def on_rows(block, rows):
    """The 16-state matrix that is ``block`` on ``rows`` and zero elsewhere."""
    rho = np.zeros((16, 16), dtype=complex)
    rho[np.ix_(rows, rows)] = block
    return rho


def cycle_memories(count, seed):
    """``count`` seeded memories: a third blank or I/2, a third random mixed
    and a third random pure, half of those with real amplitudes, whose
    imaginary parts are zeros of either sign."""
    rng = np.random.default_rng(seed)
    memories = []
    for k in range(count):
        if k % 3 == 0:
            memories.append(ORACLE_MEMORIES["blank" if k % 2 else "mixed"])
        elif k % 3 == 1:
            memories.append(oracle.random_density(2, rng))
        else:
            ket = rng.normal(size=2) + 1j * rng.normal(size=2) * (k % 2)
            ket /= np.linalg.norm(ket)
            memories.append(np.outer(ket, ket.conj()))
    return memories


class TestCycleWork:
    def test_live_gathers_match_the_density_runner(self):
        """Each stage's 4 x 4 gather gives the density runner's bytes on random
        non-diagonal states supported on its live rows, and the runner leaves
        nothing outside the rows the stage says are live."""
        rng = np.random.default_rng(26)
        for _ in range(200):
            block = oracle.random_density(4, rng)
            for stage, live, rows, gather in LIVE_STAGES:
                want = run_density(stage, DensityMatrix(on_rows(block, live))).final_state.mat
                got = block[gather]
                assert got.tobytes() == want[np.ix_(rows, rows)].tobytes()
                assert np.array_equal(want, on_rows(got, rows))

    @pytest.mark.parametrize("name", REDUCTIONS)
    def test_reductions_match_the_partial_trace(self, name):
        """A table's sum gives ``_partial_trace``'s bytes of the 16-state
        matrix, -0.0 entries included."""
        rows, keep, table = REDUCTIONS[name]
        rng = np.random.default_rng([27, len(keep), int(rows[0])])
        for _ in range(200):
            block = oracle.random_density(4, rng)
            # Signed zeros and real entries in the mix.
            block[rng.random((4, 4)) < 0.3] = -0.0
            block.imag[rng.random((4, 4)) < 0.3] = -0.0
            want = qmath._partial_trace(on_rows(block, rows), keep)
            got = szilard._reduce(block, table, np.zeros(want.shape, dtype=complex))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("skip_reset", [False, True])
    def test_cycle_matches_the_16_state_walk(self, skip_reset):
        """Record fields and the memory handed out have the 16-state walk's bytes."""
        rng = np.random.default_rng([28, skip_reset])
        for memory in cycle_memories(2000, 29):
            for p in (0.0, 0.37, 1.0, float(rng.uniform())):
                cfg = SzilardConfig(skip_reset=skip_reset, depolarize_p=p)
                rec, memory_out = run_single_cycle(DensityMatrix(memory), cfg)
                work, pre, post, mutual, want_out = oracle.szilard_cycle(memory, skip_reset, p)
                want = (1, work, None, pre, post, mutual)
                # repr tells -0.0 from 0.0, which == does not.
                assert tuple(rec) == want and repr(tuple(rec)) == repr(want)
                assert memory_out.mat.tobytes() == want_out.tobytes()

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_cycle_runs_unitary_stages_only(self, p, monkeypatch):
        """A cycle is its two unitary stages, each one gather; no kernel call, no Kraus map."""
        calls = count_calls(monkeypatch, [(qmath, "_apply_op"), (qmath, "_kraus_map")])
        run_single_cycle(basis_dm(1, 0), SzilardConfig(depolarize_p=p))
        assert calls == {"_apply_op": 0, "_kraus_map": 0}
        for stage in (_OBSERVE, _STROKE):
            assert {instr.op for instr in stage.instructions} == {"unitary"}

    def test_gathers_are_read_only(self):
        for gather in (_OBSERVE_GATHER, _STROKE_GATHER):
            for index in gather:
                assert not index.flags.writeable
        for rows in (_START_ROWS, _OBSERVED_ROWS, _STROKED_ROWS):
            assert not rows.flags.writeable
        for _, _, (at, take) in REDUCTIONS.values():
            for index in (*at, *take):
                assert not index.flags.writeable

    @pytest.mark.parametrize(
        "stage",
        [
            Circuit(4).h(0),  # mixes basis states
            Circuit(4).z(1),  # a -1 entry: a signed permutation
            Circuit(4).rx(np.pi, 2),  # -i X up to rounding: not exactly 0/1
        ],
    )
    def test_a_stage_that_does_not_permute_is_refused(self, stage):
        with pytest.raises(NotAPermutation, match="not a permutation of the basis states"):
            szilard._stage_gather(stage, _START_ROWS)


class SimulationSpy:
    """Counts ``run_single_cycle`` calls and keeps the memory the last one returned."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.last_memory = None
        monkeypatch.setattr(szilard, "run_single_cycle", self)

    def __call__(self, *args):
        self.calls += 1
        rec, self.last_memory = run_single_cycle(*args)
        return rec, self.last_memory


class TestRecordReuse:
    @pytest.mark.parametrize("skip_reset", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_ledger_equals_every_cycle_simulated(self, p, skip_reset, monkeypatch):
        cfg = SzilardConfig(cycles=12, skip_reset=skip_reset, depolarize_p=p)
        memory = basis_state(1)
        want = []
        for k in range(1, 13):
            rec, memory = run_single_cycle(memory, cfg)
            want.append(rec._replace(cycle=k))
        spy = SimulationSpy(monkeypatch)
        records = run_cycles(cfg)
        assert list(records) == want
        # A reused cycle leaves the memory as it was, so the last simulated
        # cycle's output is the ledger's final memory.
        assert spy.last_memory.mat.tobytes() == memory.mat.tobytes()

    @pytest.mark.parametrize("skip_reset, most", [(False, 1), (True, 2)])
    def test_standard_engine_simulates_at_most_two_cycles(self, skip_reset, most, monkeypatch):
        spy = SimulationSpy(monkeypatch)
        records = run_cycles(SzilardConfig(cycles=40, skip_reset=skip_reset))
        assert len(records) == 40
        assert 1 <= spy.calls <= most


class TestTrajectorySampling:
    def test_first_cycle_always_wins(self):
        records = run_cycles(SzilardConfig(cycles=1), shots=500, seed=3)
        assert records[0].sampled_work == 500

    def test_stale_memory_cycle_is_fair(self):
        records = run_cycles(SzilardConfig(cycles=2, skip_reset=True), shots=10000, seed=11)
        assert abs(records[1].sampled_work) <= 300  # 3 sigma of a +-1 coin

    def test_seeded_reproducibility(self):
        a = run_cycles(SzilardConfig(cycles=3, skip_reset=True), shots=200, seed=9)
        b = run_cycles(SzilardConfig(cycles=3, skip_reset=True), shots=200, seed=9)
        assert [r.sampled_work for r in a] == [r.sampled_work for r in b]

    # Totals with the reset on recorded from the sampler that built a per-shot
    # int64 work array; those without it from the set-bit count chain.
    @pytest.mark.parametrize(
        "seed, skip_reset, p, totals",
        [
            (5, True, 1.0, [1000, -30, -40, 0, -18, -64]),
            (5, True, 0.3, [1000, 676, 450, 318, 186, 132]),
            (5, False, 0.7, [1000] * 6),
            (2024, True, 1.0, [1000, -48, -12, 6, 2, 22]),
            (2024, True, 0.3, [1000, 720, 494, 358, 278, 198]),
            (2024, False, 0.7, [1000] * 6),
            (1, True, 1.0, [1000, 14, -34, -24, 0, 8]),
            (1, True, 0.5, [1000, 508, 236, 102, 42, 12]),
            (2, True, 1.0, [1000, -4, -2, 20, 30, -50]),
            (2, True, 0.5, [1000, 494, 254, 142, 36, -20]),
        ],
    )
    def test_pinned_totals(self, seed, skip_reset, p, totals):
        cfg = SzilardConfig(cycles=6, skip_reset=skip_reset, depolarize_p=p)
        records = run_cycles(cfg, shots=1000, seed=seed)
        assert [r.sampled_work for r in records] == totals

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_reset_wins_every_shot_without_drawing(self, p, monkeypatch):
        def no_generator(*args):
            raise AssertionError("a run with the reset on seeded a generator")

        monkeypatch.setattr(szilard.np.random, "PCG64", no_generator)
        records = run_cycles(SzilardConfig(cycles=40, depolarize_p=p), shots=2500, seed=7)
        assert [r.sampled_work for r in records] == [2500] * 40

    def test_memory_per_shot(self):
        # A per-shot sampler would hold tens of megabytes at this shot count.
        tracemalloc.start()
        try:
            run_cycles(SzilardConfig(cycles=3, skip_reset=True), shots=10_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_exact_mode_leaves_samples_unset(self):
        records = run_cycles(SzilardConfig(cycles=1))
        assert records[0].sampled_work is None


def chi_square(observed, expected) -> float:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert expected.min() >= 5  # the statistic's chi-square law needs full bins
    return float(np.sum((observed - expected) ** 2 / expected))


def set_bits(totals, shots):
    """Set memory bits behind each cycle's total, which is shots - 2N."""
    return (shots - np.asarray(totals)) // 2


class TestTrajectoryLaw:
    """The count sampler against the law of independent per-shot memories.

    Seeds are fixed, so each statistic is a fixed number; the thresholds are
    chi-square 0.999 quantiles for the bins' degrees of freedom.
    """

    SEEDS = range(4000)

    @pytest.mark.parametrize("p", [1.0, 0.7, 0.5])
    def test_each_cycle_is_binomial(self, p):
        # A shot's bit is set at cycle k with probability (1 - (1 - p)^(k-1)) / 2,
        # independently of the other shots.
        shots, cycles = 4, 5
        cfg = SzilardConfig(cycles=cycles, skip_reset=True, depolarize_p=p)
        counts = np.array(
            [set_bits(szilard._sample_trajectories(cfg, shots, seed), shots) for seed in self.SEEDS]
        )
        assert (counts[:, 0] == 0).all()
        for k in range(2, cycles + 1):
            q = (1 - (1 - p) ** (k - 1)) / 2
            law = [math.comb(shots, n) * q ** n * (1 - q) ** (shots - n) for n in range(shots + 1)]
            observed = np.bincount(counts[:, k - 1], minlength=shots + 1)
            assert chi_square(observed, len(self.SEEDS) * np.array(law)) < 18.47  # 4 dof

    def test_consecutive_cycles_match_the_per_shot_oracle(self):
        # At p < 1 a cycle's count depends on the one before; compare the joint
        # law of cycles 2 and 3 with the per-shot sampler's (homogeneity test).
        shots, p = 2, 0.5
        cfg = SzilardConfig(cycles=3, skip_reset=True, depolarize_p=p)
        tables = []
        for totals_of in (
            lambda seed: szilard._sample_trajectories(cfg, shots, seed),
            lambda seed: oracle.stale_engine_totals(3, p, shots, 10**6 + seed),
        ):
            pairs = np.array([set_bits(totals_of(seed), shots)[1:] for seed in self.SEEDS])
            tables.append(np.bincount(pairs[:, 0] * (shots + 1) + pairs[:, 1], minlength=9))
        table = np.array(tables)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
        assert chi_square(table, expected) < 26.12  # (2 - 1) x (9 - 1) dof

    def test_oracle_is_the_retired_per_shot_sampler(self):
        # Totals the package's per-shot sampler drew, pinned before it was retired.
        assert oracle.stale_engine_totals(6, 1.0, 1000, 5) == [1000, 28, -48, -52, 0, 0]
        assert oracle.stale_engine_totals(6, 0.5, 1000, 2) == [1000, 494, 176, 40, 90, 42]


class TestConfig:
    def test_cycle_count_positive(self):
        for cycles in (0, -1, 2.5, "1", True, False):
            with pytest.raises(BadParams, match="cycles must be a positive integer"):
                SzilardConfig(cycles=cycles)

    def test_shot_count_non_negative(self):
        for shots in (-1, 2.5, "1", True, False):
            with pytest.raises(BadParams, match="shots must be a non-negative integer"):
                run_cycles(SzilardConfig(cycles=1), shots=shots)

    def test_seed_non_negative(self):
        # Refused whether or not the run would seed a generator.
        for seed in (-1, 1.5, True, False, "1", None):
            for skip_reset in (False, True):
                cfg = SzilardConfig(cycles=1, skip_reset=skip_reset)
                with pytest.raises(BadParams, match="seed must be a non-negative integer"):
                    run_cycles(cfg, shots=3, seed=seed)

    def test_runs_take_a_config(self):
        memory = basis_state(1)
        for bad in (False, 3, None, {"cycles": 1}):
            with pytest.raises(BadParams, match="cfg must be a SzilardConfig"):
                run_single_cycle(memory, bad)
            with pytest.raises(BadParams, match="cfg must be a SzilardConfig"):
                run_cycles(bad)

    def test_reset_flag_is_a_bool(self):
        # "false" is truthy: accepting it would run the engine without erasure.
        for flag in ("false", 0, 1, None, np.bool_(True)):
            with pytest.raises(BadParams, match="skip_reset must be a bool"):
                SzilardConfig(cycles=2, skip_reset=flag)

    def test_noise_strength_range(self):
        for p in (1.5, -0.1, float("nan"), True, False, "0.5", None, 0.5j):
            with pytest.raises(BadProbability, match="depolarize_p must lie in"):
                SzilardConfig(cycles=1, depolarize_p=p)

    @pytest.mark.parametrize("skip_reset", [False, True])
    @pytest.mark.parametrize(
        "p", [np.float16(0.3), np.float32(0.3), Fraction(3, 10), np.int64(1)], ids=repr
    )
    def test_any_real_strength_runs_as_its_float(self, p, skip_reset):
        """A strength is kept as the float it reads as, so a low-precision
        one builds the particle in double precision: a float16 0.3 kept as
        given built a particle of trace 1.0001220703125."""
        cfg, at_float = (
            SzilardConfig(cycles=3, skip_reset=skip_reset, depolarize_p=q) for q in (p, float(p))
        )
        assert type(cfg.depolarize_p) is float and cfg == at_float
        for memory in (basis_dm(1, 0), basis_dm(1, 1), maximally_mixed(1)):
            rec, memory_out = run_single_cycle(memory, cfg)
            want, want_out = run_single_cycle(memory, at_float)
            # repr tells -0.0 from 0.0, which == does not.
            assert repr(rec) == repr(want)
            assert memory_out.mat.tobytes() == want_out.mat.tobytes()
        assert repr(run_cycles(cfg, shots=50, seed=3)) == repr(run_cycles(at_float, shots=50, seed=3))

    def test_partial_noise_still_wins_first_cycle(self):
        """Extracted work depends on the memory being blank, not on the particle."""
        records = run_cycles(SzilardConfig(cycles=1, depolarize_p=0.5))
        assert records[0].expected_work == pytest.approx(1.0, abs=1e-9)
