from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracle
import test_relations
from paradoxlab import cli, descriptor, epr, qmath
from paradoxlab.circuit import Circuit, circuit_unitary, run_density
from paradoxlab.descriptor import dependence_probe
from paradoxlab.epr import (
    ALICE,
    ALICE_MEM,
    BOB,
    BOB_MEM,
    CHECK,
    EprConfig,
    build_epr_circuit,
    build_epr_unitary,
    check_distribution,
    info_flow_report,
    sweep,
)
from paradoxlab.errors import BadParams, InvalidState, NotAPermutation
from paradoxlab.qmath import partial_trace, trace_distance
from util import BUILDS, count_calls


# Tracked record: (qubit, whether its probe circuit includes the parity gates).
PROBED = {
    "alice_memory": (ALICE_MEM, False),
    "bob_memory": (BOB_MEM, False),
    "check": (CHECK, True),
}


def generic_probe(cfg, record: str, angle: str) -> tuple:
    """``dependence_probe`` on ``record``'s circuits at ``cfg`` and with ``angle`` offset."""
    qubit, parity = PROBED[record]
    value = getattr(cfg, angle)

    def build(v):
        return build_epr_unitary(replace(cfg, **{angle: v}), parity)

    return dependence_probe(build, qubit, value, value + epr._PROBE_OFFSET)


def closed_form(theta, phi):
    return (1 - np.cos(theta + phi)) / 2


def oracle_check_probability(theta, phi):
    """Independent five-qubit simulation of the all-quantum parity circuit."""
    state = np.zeros(32, dtype=complex)
    state[0] = 1
    steps = [
        (oracle.H, [0]),
        (oracle.CNOT, [0, 1]),
        (oracle.rx(theta), [0]),
        (oracle.rx(phi), [1]),
        (oracle.CNOT, [0, 2]),
        (oracle.CNOT, [1, 3]),
        (oracle.CNOT, [2, 4]),
        (oracle.CNOT, [3, 4]),
    ]
    for op, qubits in steps:
        state = oracle.lift(op, qubits, 5) @ state
    probs = np.abs(state) ** 2
    return float(sum(probs[i] for i in range(32) if (i >> 4) & 1))


class TestCircuitShape:
    def test_register_layout(self):
        assert (ALICE, BOB, ALICE_MEM, BOB_MEM, CHECK) == (0, 1, 2, 3, 4)

    def test_deferred_form_measures_only_the_check(self):
        c = build_epr_circuit(EprConfig(0.3, 0.4))
        measures = [i for i in c.instructions if i.op == "measure"]
        assert len(measures) == 1
        assert measures[0].targets == (CHECK,)
        assert c.instructions[-1].op == "measure"

    def test_measured_form_collapses_memories_before_parity(self):
        c = build_epr_circuit(EprConfig(0.3, 0.4, deferred=False))
        ops = [i.op for i in c.instructions]
        first_measure = ops.index("measure")
        parity_targets = [
            i.targets for i in c.instructions if i.op == "unitary" and CHECK in i.targets
        ]
        assert parity_targets == [(ALICE_MEM, CHECK), (BOB_MEM, CHECK)]
        first_parity = next(
            k for k, i in enumerate(c.instructions) if i.op == "unitary" and CHECK in i.targets
        )
        assert first_measure < first_parity

    def test_unitary_form_has_no_measurements(self):
        c = build_epr_unitary(EprConfig(0.1, 0.2))
        assert all(i.op == "unitary" for i in c.instructions)
        truncated = build_epr_unitary(EprConfig(0.1, 0.2), include_parity=False)
        assert len(truncated.instructions) == len(c.instructions) - 2

    def test_config_validation(self):
        with pytest.raises(BadParams):
            EprConfig(float("nan"), 0.0)

    @pytest.mark.parametrize("bad", ["x", True, None, 0.2j, [0.2], pytest.param(10**400, id="10**400")])
    def test_angle_must_be_a_real_number(self, bad):
        with pytest.raises(BadParams, match="theta must be a finite real"):
            EprConfig(bad, 0.2)
        with pytest.raises(BadParams, match="phi must be a finite real"):
            EprConfig(0.2, bad)

    @pytest.mark.parametrize("bad", ["no", 0, 1, None])
    def test_deferred_must_be_a_bool(self, bad):
        with pytest.raises(BadParams, match="deferred must be a bool"):
            EprConfig(0.1, 0.2, deferred=bad)


class TestCheckDistribution:
    def test_aligned_axes_never_fire(self):
        assert check_distribution(EprConfig(0.0, 0.0)) == 0.0

    def test_opposite_rotations_cancel(self):
        assert check_distribution(EprConfig(np.pi / 2, -np.pi / 2)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_quarter_turns_always_fire(self):
        assert check_distribution(EprConfig(np.pi / 2, np.pi / 2)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_closed_form_on_grid(self):
        for theta in np.linspace(-np.pi, np.pi, 9):
            for phi in np.linspace(-np.pi, np.pi, 9):
                got = check_distribution(EprConfig(theta, phi))
                assert got == pytest.approx(closed_form(theta, phi), abs=1e-9)

    def test_matches_independent_oracle(self):
        for theta, phi in [(0.7, -0.3), (1.9, 2.4), (-2.2, 0.5)]:
            got = check_distribution(EprConfig(theta, phi))
            assert got == pytest.approx(oracle_check_probability(theta, phi), abs=1e-10)

    def test_measured_form_agrees_with_deferred(self):
        for theta in np.linspace(-np.pi, np.pi, 5):
            for phi in np.linspace(-np.pi, np.pi, 5):
                a = check_distribution(EprConfig(theta, phi, deferred=True))
                b = check_distribution(EprConfig(theta, phi, deferred=False))
                assert a == pytest.approx(b, abs=1e-9)


class TestNoSignalling:
    def test_bob_marginal_ignores_theta(self):
        phi = 0.37
        states = []
        for theta in np.linspace(-np.pi, np.pi, 9):
            c = Circuit(5).h(ALICE).cx(ALICE, BOB).rx(theta, ALICE).rx(phi, BOB)
            states.append(partial_trace(run_density(c).final_state, [BOB]))
        for other in states[1:]:
            assert trace_distance(states[0], other) <= 1e-10

    def test_alice_marginal_ignores_phi(self):
        theta = -1.1
        states = []
        for phi in np.linspace(-np.pi, np.pi, 9):
            c = Circuit(5).h(ALICE).cx(ALICE, BOB).rx(theta, ALICE).rx(phi, BOB)
            states.append(partial_trace(run_density(c).final_state, [ALICE]))
        for other in states[1:]:
            assert trace_distance(states[0], other) <= 1e-10


def leaky_steps() -> tuple:
    """The sweep's steps with a leaky tail: the row that gathered basis state 1
    repeats state 0's instead, which moves each column's norm by cos(theta + phi) / 2."""
    *rotations, (_, tail) = epr._STEPS
    return (*rotations, (None, np.where(tail == 1, 0, tail)))


class TestSweep:
    @pytest.mark.parametrize("shape", [(1, 6), (6, 1), (3, 5), (7, 2), (9, 11)])
    def test_random_grids_match_oracle(self, shape):
        rng = np.random.default_rng(sum(shape) * 1000 + shape[0])
        thetas = rng.uniform(-4 * np.pi, 4 * np.pi, shape[0])
        phis = rng.uniform(-4 * np.pi, 4 * np.pi, shape[1])
        rows = sweep(thetas, phis)
        assert [(r.theta, r.phi) for r in rows] == [
            (float(t), float(p)) for t in thetas for p in phis
        ]
        for row in rows:
            assert abs(row.p_check_one - oracle_check_probability(row.theta, row.phi)) <= 1e-12
            cfg = EprConfig(row.theta, row.phi)
            assert abs(row.p_check_one - check_distribution(cfg)) <= 1e-12

    def test_empty_axis(self):
        assert sweep([], [0.1, 0.2]) == []
        assert sweep([0.1], []) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_angle_rejected(self, bad):
        with pytest.raises(BadParams):
            sweep([0.1, bad], [0.2])
        with pytest.raises(BadParams):
            sweep([0.1], [bad, 0.2])

    def test_unnormalized_batch_rejected(self, monkeypatch):
        monkeypatch.setattr(epr, "_STEPS", leaky_steps())
        with pytest.raises(InvalidState):
            sweep([0.1, 0.2], [0.3])

    def test_a_leaky_kernel_leaves_later_sweeps_alone(self, monkeypatch):
        """A sweep under a leaky tail table, then sweeps under the real one: a
        sweep keeps nothing of the tables it ran, so the leak cannot reach them."""
        with monkeypatch.context() as patched:
            patched.setattr(epr, "_STEPS", leaky_steps())
            with pytest.raises(InvalidState):
                sweep([0.1, 0.2], [0.3])
        self.test_grid_shape_and_values()
        test_relations.test_epr_check_depends_on_the_angle_sum_alone()

    @pytest.mark.parametrize(
        "shape, scale", [((1, 1), np.pi), ((13, 17), 4 * np.pi), ((9, 8), 1e3), ((1, 130), 1e3)],
        ids=["one-point", "four-batches", "large-angles", "row-across-batches"],
    )
    def test_same_bytes_as_the_reference_walk(self, shape, scale):
        """The shared start gives every point the bytes of a walk from |0...0>."""
        rng = np.random.default_rng([41, *shape])
        thetas, phis = (rng.uniform(-scale, scale, size) for size in shape)
        got = np.array([row.p_check_one for row in sweep(thetas, phis)])
        assert got.tobytes() == oracle.sweep_walk(thetas, phis).tobytes()

    def test_second_sweep_builds_no_circuit(self, monkeypatch):
        """Nor does it call the kernel: a batch runs on row gathers alone."""
        sweep([0.1], [0.2])
        kernel = [(qmath, "_apply_op"), (epr, "_apply_op")]
        counted = count_calls(monkeypatch, [*BUILDS, *kernel])
        sweep([0.3, 0.4], [0.5])
        assert counted == {"validate": 0, "is_unitary": 0, "_apply_op": 0}

    def test_shared_arrays_are_read_only(self):
        for shared in (epr._START, epr._FIRES, *(rows for _, rows in epr._STEPS)):
            assert not shared.flags.writeable

    def test_each_table_is_read_from_its_own_gates(self):
        """An RX's rows are X's on its qubit; the tail's are those of every gate
        after the last RX. Both are read here from ``circuit_unitary``, so an
        edited template cannot leave a stale table."""
        gates = epr._TEMPLATE.instructions
        rx = [k for k, instr in enumerate(gates) if instr.gate.kind == "RX"]
        assert rx == list(range(epr._LEAD, rx[-1] + 1))
        want = [(gates[k].targets[0], Circuit(5).x(gates[k].targets[0])) for k in rx]
        want.append((None, Circuit(5, 0, gates[rx[-1] + 1:])))
        assert [qubit for qubit, _ in epr._STEPS] == [qubit for qubit, _ in want]
        for (_, rows), (_, c) in zip(epr._STEPS, want):
            u = circuit_unitary(c)
            dest, src = np.nonzero(u)
            assert dest.tolist() == list(range(32)) and (u[dest, src] == 1).all()
            assert rows.tolist() == src.tolist()

    def test_a_tail_that_does_not_permute_is_refused(self):
        gates = Circuit(5).rx(0.0, ALICE).cx(ALICE, ALICE_MEM).h(CHECK).instructions
        with pytest.raises(NotAPermutation, match="not a permutation of the basis states"):
            epr._gather_steps(gates, 5)

    def test_grid_above_the_cap_refused(self, monkeypatch):
        """257 x 256 angles is one row over the cap; the grid is never built."""
        def no_grid(*args):
            raise AssertionError("the grid was built")

        angles = np.linspace(-np.pi, np.pi, 257)
        monkeypatch.setattr(np, "repeat", no_grid)
        message = "257 x 256 angles is 65792 grid points, above the limit of 65536"
        with pytest.raises(BadParams, match=message):
            sweep(angles, angles[:256])
        assert epr.MAX_SWEEP_POINTS == cli.MAX_SWEEP_POINTS == 256 * 256

    def test_grid_shape_and_values(self):
        thetas = [0.0, 0.5]
        phis = [0.0, 0.25, 0.5]
        rows = sweep(thetas, phis)
        assert len(rows) == 6
        for row in rows:
            assert row.p_check_one == pytest.approx(
                check_distribution(EprConfig(row.theta, row.phi)), abs=1e-12
            )

    def test_opposite_diagonal_is_silent(self):
        rows = sweep([0.3], [-0.3])
        assert rows[0].p_check_one == pytest.approx(0.0, abs=1e-9)


class TestInfoFlowReport:
    def test_dependence_pattern(self):
        report = info_flow_report(EprConfig(0.3, 0.8))
        assert report.dependence == {
            "alice_memory": {"theta": True, "phi": False},
            "bob_memory": {"theta": False, "phi": True},
            "check": {"theta": True, "phi": True},
        }

    def test_correlation_is_cosine(self):
        report = info_flow_report(EprConfig(0.4, -0.4))
        assert report.correlation == pytest.approx(1.0, abs=1e-9)
        report = info_flow_report(EprConfig(0.4, 0.4))
        assert report.correlation == pytest.approx(np.cos(0.8), abs=1e-9)
        assert report.correlation == pytest.approx(1 - 2 * report.p_check_one, abs=1e-12)

    def test_requires_deferred_form(self):
        with pytest.raises(BadParams):
            info_flow_report(EprConfig(0.1, 0.2, deferred=False))

    def test_same_answers_as_the_generic_probe(self, monkeypatch):
        """Each comparison equals ``dependence_probe`` on the same two circuits, delta and all.

        Those circuits start from both angles reduced modulo 4 pi. Starting
        instead from the probed angle alone reduced, the other as given,
        gives the same answers within 2 pi of 0 and the same flags beyond.
        """
        special = [0.0, np.pi, -np.pi, -0.4 + 2 * np.pi, -0.4 - 2 * np.pi, 4 * np.pi, -8 * np.pi, 1e16]
        rng = np.random.default_rng(701)
        drawn = rng.uniform(-3 * np.pi, 3 * np.pi, size=(6, 2)).tolist()
        for theta, phi in [(t, p) for t in special for p in (0.2, -np.pi, 1e16)] + drawn:
            cfg = EprConfig(theta, phi)
            base = EprConfig(math.remainder(theta, 4 * np.pi), math.remainder(phi, 4 * np.pi))
            seen = []

            def recording(qubit, was, now):
                seen.append(descriptor.compare_images(qubit, was, now))
                return seen[-1]

            monkeypatch.setattr(epr, "compare_images", recording)
            report = info_flow_report(cfg)
            want = []
            for record in PROBED:
                for angle in ("theta", "phi"):
                    same = generic_probe(base, record, angle)
                    alone = generic_probe(replace(cfg, **{angle: getattr(base, angle)}), record, angle)
                    assert report.dependence[record][angle] is same[0] is alone[0]
                    if max(abs(theta), abs(phi)) <= 2 * np.pi:
                        assert alone == same
                    want.append(same)
            assert sorted(seen) == sorted(want)

    def test_walks_each_probed_circuit_once(self, monkeypatch):
        """Three walks, one per probed angle value; each compared triple is computed once."""
        walks, computed = [], Counter()

        def recording_advance(prefix, instr):
            if not walks or walks[-1][-1] is not prefix:
                walks.append([prefix])
            walks[-1].append(descriptor.advance(prefix, instr))
            return walks[-1][-1]

        def counting_images(prefix, qubits):
            [(w, k)] = [(w, k) for w, walk in enumerate(walks) for k, p in enumerate(walk) if p is prefix]
            computed.update((w, k, q) for q in qubits)
            return descriptor._images(prefix, qubits)

        monkeypatch.setattr(epr, "advance", recording_advance)
        monkeypatch.setattr(epr, "_images", counting_images)
        info_flow_report(EprConfig(0.3, 0.8))
        steps = len(build_epr_unitary(EprConfig(0.3, 0.8)).instructions)
        assert [len(walk) for walk in walks] == [steps + 1] * 3
        # Memory qubits are read before the two parity gates, the check after them.
        read = [(steps - 2, ALICE_MEM), (steps - 2, BOB_MEM), (steps, CHECK)]
        assert computed == Counter({(w, k, q): 1 for w in range(3) for k, q in read})

    def test_non_finite_difference_refused(self, monkeypatch):
        def poisoned_advance(prefix, instr):
            after = descriptor.advance(prefix, instr)
            after[0, 0] = np.nan
            return after

        monkeypatch.setattr(epr, "advance", poisoned_advance)
        with pytest.raises(InvalidState, match=f"qubit {ALICE_MEM}'s images differ by nan"):
            info_flow_report(EprConfig(0.3, 0.8))
