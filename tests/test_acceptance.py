"""Acceptance suite: one test per numbered criterion, one result line each.

Every test computes its verdict first, emits a single [PASS]/[FAIL] line
(shown in the terminal summary), then asserts. Tolerances are stated
inline; deterministic outcomes are compared exactly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

import oracle
from conftest import record_acceptance

from paradoxlab import ctc, epr, szilard
from paradoxlab.circuit import Circuit, circuit_unitary, run_density
from paradoxlab.cli import execute, parse
from paradoxlab.descriptor import (
    AXES,
    advance,
    expectation,
    locality_audit,
)
from paradoxlab.qmath import (
    basis_state,
    maximally_mixed,
    partial_trace,
    save_unitary,
    trace_distance,
)
from util import random_unitary_circuit

GRID = tuple(float(v) for v in np.linspace(-math.pi, math.pi, 17))

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def check(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}"
    print(line)
    record_acceptance(line)
    assert ok, line


@lru_cache(maxsize=None)
def _check_grid(deferred: bool) -> dict:
    return {
        (t, p): epr.check_distribution(epr.EprConfig(t, p, deferred=deferred))
        for t in GRID
        for p in GRID
    }


def test_c01_parity_check_closed_form():
    grid = _check_grid(True)
    worst = max(
        abs(value - (1 - math.cos(t + p)) / 2) for (t, p), value in grid.items()
    )
    at_zero = epr.check_distribution(epr.EprConfig(0.0, 0.0))
    ok = worst <= 1e-9 and at_zero == 0.0
    check(
        1,
        "parity check matches (1-cos(theta+phi))/2 on a 17x17 grid",
        ok,
        f"max |error| {worst:.3e}, P(1) at (0,0) = {at_zero}",
    )


def test_c02_deferred_measurement_equivalence():
    deferred = _check_grid(True)
    collapsed = _check_grid(False)
    worst = max(abs(deferred[key] - collapsed[key]) for key in deferred)
    ok = worst <= 1e-9
    check(
        2,
        "coherent and collapsing parity circuits agree on the grid",
        ok,
        f"max |difference| {worst:.3e}",
    )


def test_c03_locality_audit_and_picture_equivalence():
    rng = np.random.Generator(np.random.PCG64(917))
    worst_drift = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        report = locality_audit(random_unitary_circuit(n, 30, rng))
        worst_drift = max(
            worst_drift, max(s.max_offsupport_delta for s in report.steps)
        )
    worst_exp = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        circuit = random_unitary_circuit(n, 30, rng)
        prefix = np.eye(2**n, dtype=complex)
        for instr in circuit.instructions:
            prefix = advance(prefix, instr)
        chosen = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        observable = {int(q): AXES[int(rng.integers(3))] for q in chosen}
        tracked = expectation(prefix, observable, basis_state(n))
        psi = circuit_unitary(circuit)[:, 0]
        op = np.eye(2**n, dtype=complex)
        for q in sorted(observable):
            op = op @ oracle.lift(_PAULI[observable[q]], [q], n)
        direct = float((psi.conj() @ op @ psi).real)
        worst_exp = max(worst_exp, abs(tracked - direct))
    ok = worst_drift <= 1e-10 and worst_exp <= 1e-9
    check(
        3,
        "descriptors stay put off-support and reproduce expectations",
        ok,
        f"max off-support drift {worst_drift:.3e} over 100 circuits, "
        f"max expectation gap {worst_exp:.3e} over 50 Pauli products",
    )


def test_c04_no_signalling():
    angles = tuple(float(v) for v in np.linspace(-math.pi, math.pi, 9))

    def side_states(vary_theta: bool):
        keep = (
            [epr.BOB, epr.BOB_MEM] if vary_theta else [epr.ALICE, epr.ALICE_MEM]
        )
        states = []
        for v in angles:
            cfg = epr.EprConfig(v, 0.37) if vary_theta else epr.EprConfig(0.37, v)
            final = run_density(epr.build_epr_circuit(cfg)).final_state
            states.append(partial_trace(final, keep))
        return states

    worst = 0.0
    for vary_theta in (True, False):
        for a, b in itertools.combinations(side_states(vary_theta), 2):
            worst = max(worst, trace_distance(a, b))
    ok = worst <= 1e-10
    check(
        4,
        "each side's reduced state ignores the far side's angle",
        ok,
        f"max pairwise trace distance {worst:.3e} over 9 angles per side",
    )


def test_c05_engine_with_erasure():
    memory = basis_state(1)
    ground = basis_state(1)
    worst_work = 0.0
    worst_td = 0.0
    for _ in range(5):
        record, memory = szilard.run_single_cycle(memory)
        worst_work = max(worst_work, abs(record.expected_work - 1.0))
        worst_td = max(worst_td, trace_distance(memory, ground))
    ok = worst_work <= 1e-9 and worst_td <= 1e-10
    check(
        5,
        "erased engine lifts one quantum per cycle for 5 cycles",
        ok,
        f"max |work - 1| {worst_work:.3e}, max memory distance {worst_td:.3e}",
    )


def test_c06_engine_without_erasure():
    records = szilard.run_cycles(szilard.SzilardConfig(cycles=5, skip_reset=True))
    first = records[0]
    later = records[1:]
    worst_later = max(abs(r.expected_work) for r in later)
    entropy_gap = abs(first.memory_entropy_post - 1.0)
    ok = (
        abs(first.expected_work - 1.0) <= 1e-9
        and worst_later <= 1e-9
        and entropy_gap <= 1e-9
    )
    check(
        6,
        "skipping erasure stalls the engine after one winning cycle",
        ok,
        f"cycle-1 work {first.expected_work}, max |work| cycles 2-5 "
        f"{worst_later:.3e}, memory entropy before cycle 2 off by {entropy_gap:.3e}",
    )


def test_c07_engine_trajectory_sampling():
    shots = 10**4
    records = szilard.run_cycles(
        szilard.SzilardConfig(cycles=2, skip_reset=True), shots=shots, seed=20240817
    )
    mean = records[1].sampled_work / shots
    ok = abs(mean) <= 0.03
    check(
        7,
        "10^4 seeded trajectories of the stalled cycle average near zero",
        ok,
        f"cycle-2 mean sampled work {mean:+.4f}, bound 0.03",
    )


def test_c08_loop_distinguisher():
    targets = {"0": "0", "-": "1"}
    fixed = {"0": np.diag([1.0, 0.0]), "-": np.diag([0.0, 1.0])}
    ok = True
    details = []
    for label, outcome in targets.items():
        problem = ctc.distinguisher_problem(label)
        result = ctc.run_ctc_circuit(problem)
        solution = ctc.solve_fixed_point(problem)
        td = trace_distance(solution.rho_loop.mat, fixed[label])
        ok = (
            ok
            and result.distribution == {outcome: 1.0}
            and result.solution.residual <= 1e-10
            and td <= 1e-8
        )
        details.append(
            f"|{label}> -> {result.distribution} "
            f"(residual {result.solution.residual:.1e}, loop distance {td:.1e})"
        )
    check(8, "one-shot |0> vs |-> discrimination", ok, "; ".join(details))


def test_c09_four_state_discrimination():
    expected = {"0": "00", "1": "10", "+": "01", "-": "11"}
    ok = True
    details = []
    for label, outcome in expected.items():
        result = ctc.run_ctc_circuit(ctc.bb84_problem(label))
        dist = result.distribution
        ok = (
            ok
            and set(dist) == {outcome}
            and abs(dist[outcome] - 1.0) <= 1e-9
            and result.solution.residual <= 1e-10
        )
        details.append(f"|{label}> -> {outcome} @ {dist.get(outcome, 0.0):.9f}")
    check(9, "all four conjugate-basis states identified", ok, "; ".join(details))


def test_c10_grandfather_loop():
    solution = ctc.solve_fixed_point(ctc.grandfather_problem())
    td = trace_distance(solution.rho_loop, maximally_mixed(1))
    ok = td <= 1e-12 and solution.residual <= 1e-12
    check(
        10,
        "bit flip fed back on itself settles on the coin-flip state",
        ok,
        f"distance from I/2 {td:.3e}, residual {solution.residual:.3e}",
    )


def test_c11_nonlinearity_witness():
    witness = ctc.nonlinearity_witness()
    ok = witness.trace_distance > 0.05
    check(
        11,
        "mixing inputs does not mix fixed points",
        ok,
        f"trace distance {witness.trace_distance:.6f} > 0.05",
    )


def test_c12_mode_agreement():
    pairs = [("single", "0"), ("single", "-")] + [
        ("bb84", label) for label in ctc.STATE_LABELS
    ]
    worst = 0.0
    for protocol, label in pairs:
        demo = run_density(ctc.classical_control_demo(label, protocol)).distribution
        if protocol == "single":
            problem = ctc.distinguisher_problem(label)
        else:
            problem = ctc.bb84_problem(label)
        honest = ctc.run_ctc_circuit(problem).distribution
        for key in set(demo) | set(honest):
            worst = max(worst, abs(demo.get(key, 0.0) - honest.get(key, 0.0)))
    ok = worst <= 1e-9
    check(
        12,
        "pre-seeded demonstration circuits match honest loop runs",
        ok,
        f"max probability gap {worst:.3e} over six protocol/label pairs",
    )


def test_c13_cli_determinism(tmp_path):
    unitary_path = tmp_path / "interaction.json"
    save_unitary(str(unitary_path), ctc.distinguisher_unitary())
    circuit_path = tmp_path / "circuit.json"
    circuit_path.write_text(Circuit(3).h(0).ccx(0, 1, 2).rx(0.4, 2).to_json())
    commands = [
        ["epr", "--theta", "0.4", "--phi", "-0.3", "--shots", "200", "--seed", "9",
         "--format", "json"],
        ["epr", "sweep", "--theta-steps", "5", "--phi-steps", "5", "--format", "csv"],
        ["szilard", "--cycles", "4", "--skip-reset", "--shots", "256", "--seed",
         "13", "--format", "json"],
        ["ctc", "distinguish", "--input", "0", "--format", "json"],
        ["ctc", "bb84", "--input", "1", "--format", "table"],
        ["ctc", "solve", "--unitary", str(unitary_path), "--system-state", "0",
         "--format", "json"],
        ["ctc", "grandfather", "--format", "csv"],
        ["audit-locality", "--circuit", str(circuit_path), "--format", "json"],
    ]
    stable = all(execute(parse(argv)) == execute(parse(argv)) for argv in commands)
    check(
        13,
        "every subcommand reproduces its bytes on rerun",
        stable,
        f"{len(commands)} seeded invocations, each run twice",
    )
