"""Seeded robustness check of the command line against malformed input.

Three corpora run through ``cli.main``: structural mutations of a ``ctc
solve`` matrix file and an ``audit-locality`` circuit file, token
mutations of an invocation of every subcommand, and numerically hard
``ctc solve`` matrices. Every case must end cleanly: no exception
escapes, the exit code is 0 or 2, stderr is empty exactly when the exit
code is 0, and the case finishes within ``CASE_SECONDS``. The library's
entry points refuse bad arguments with a ``ParadoxLabError`` of their own.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import time

import numpy as np
import pytest

import oracle
from paradoxlab import cli, epr
from paradoxlab.circuit import Circuit, circuit_unitary, depolarizing_kraus, make_gate
from paradoxlab.errors import BadParams, BadProbability, DimensionMismatch
from paradoxlab.qmath import (
    UNITARY_ATOL,
    basis_state,
    matrix_to_entries,
    maximally_mixed,
    trace_distance,
)

SEEDS = (1, 2)
# A case that takes longer has stalled; the slowest valid one takes well under 0.1 s.
CASE_SECONDS = 2.0
FILE_CASES = 150  # per file and seed
ARGV_CASES = 40  # per base invocation and seed

# Values swapped into a file: wrong types, edge numbers and empty containers.
FILE_VALUES = (
    None, True, False, "x", 0, -1, 0.5, 1e30, 1e308, -1e308,
    math.nan, math.inf, -math.inf, [], {}, 10**30,
)
# Tokens swapped into argv: non-finite, overflowing, negative, empty, enormous.
ARGV_VALUES = ("nan", "inf", "1e309", "1e30", "-1", "", "9" * 5000)
# Unitarity defects max|U'U - I|, in units of UNITARY_ATOL, and the exit code each gets.
EDGE_DEFECTS = ((0.4, 0), (0.9, 0), (1.1, 2), (2.0, 2))
# Near-identity loop maps: partial SWAP angles, 0 being the identity itself.
WEAK_ANGLES = (1e-3, 1e-6, 1e-9, 0.0)

BASE_ARGV = (
    ["epr", "--theta", "0.3", "--phi", "0.2", "--shots", "10", "--seed", "1"],
    ["epr", "sweep", "--theta-steps", "3", "--phi-steps", "2", "--format", "csv"],
    ["szilard", "--cycles", "3", "--skip-reset", "--shots", "10", "--seed", "2",
     "--format", "json"],
    ["ctc", "distinguish", "--input", "-"],
    ["ctc", "bb84", "--input", "+", "--format", "csv"],
    ["ctc", "solve", "--unitary", "{unitary}", "--system-state", "+", "--tol", "1e-10"],
    ["ctc", "grandfather", "--format", "json"],
    ["audit-locality", "--circuit", "{circuit}", "--format", "json"],
)


def _unitary_doc() -> dict:
    """A partial SWAP at angle 0.3 between a loop and a system qubit, as a matrix file."""
    swap = circuit_unitary(Circuit(2).swap(0, 1))
    m = math.cos(0.3) * np.eye(4) - 1j * math.sin(0.3) * swap
    return {"dim": 4, "entries": matrix_to_entries(m)}


def _circuit_doc() -> dict:
    return Circuit(3, 1).h(0).ccx(0, 1, 2).rx(0.4, 2).cx(2, 0).to_dict()


def run_case(argv, codes=(0, 2)) -> str:
    """The rule ``argv`` breaks, or "" when it ends cleanly with one of ``codes``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code not in codes:
        return f"exit {code}: {err.getvalue()!r}"
    if (code == 0) != (err.getvalue() == ""):
        return f"exit {code} with stderr {err.getvalue()!r}"
    if elapsed > CASE_SECONDS:
        return f"took {elapsed:.2f} s"
    return ""


def _paths(node, path=()):
    """Every position in a JSON tree as a key/index path; the root is ()."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def mutate_doc(doc, rng: random.Random) -> str:
    """One to three deletions, duplications or value swaps, then maybe a truncation."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(doc)))
        value = copy.deepcopy(rng.choice(FILE_VALUES))
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = rng.choice(("delete", "duplicate", "swap", "swap"))
        if action == "delete":
            del parent[key]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif action == "duplicate":
            # Copy the value over a sibling key, so one key's content appears twice.
            parent[rng.choice(list(parent))] = copy.deepcopy(parent[key])
        else:
            parent[key] = value
    text = json.dumps(doc)
    if rng.random() < 0.15:
        text = text[: rng.randrange(len(text))]
    return text


def _shuffle_flags(argv, rng: random.Random) -> list:
    """Shuffle the flag groups (a flag and the values after it), keeping the command first."""
    head = 0
    while head < len(argv) and not argv[head].startswith("--"):
        head += 1
    groups = []
    for token in argv[head:]:
        if token.startswith("--") or not groups:
            groups.append([token])
        else:
            groups[-1].append(token)
    rng.shuffle(groups)
    return argv[:head] + [token for group in groups for token in group]


def mutate_argv(argv, rng: random.Random) -> list:
    """One or two token swaps, duplications, drops or flag shuffles."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        if not argv:
            break
        i = rng.randrange(len(argv))
        action = rng.choice(("swap", "swap", "duplicate", "drop", "shuffle"))
        if action == "swap":
            argv[i] = rng.choice(ARGV_VALUES)
        elif action == "duplicate":
            argv.insert(i, argv[i])
        elif action == "drop":
            del argv[i]
        else:
            argv = _shuffle_flags(argv, rng)
    return argv


def _shown(argv) -> list:
    return [t if len(t) <= 40 else f"<{len(t)} chars>" for t in argv]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_input_files_end_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    path = str(tmp_path / "input.json")
    cases = [
        (["ctc", "solve", "--unitary", path, "--system-state", "+"], _unitary_doc()),
        (["ctc", "solve", "--unitary", path], _unitary_doc()),
        (["audit-locality", "--circuit", path, "--format", "json"], _circuit_doc()),
        (["audit-locality", "--circuit", path], _circuit_doc()),
    ]
    failures = []
    for argv, doc in cases:
        for _ in range(FILE_CASES // 2):
            text = mutate_doc(doc, rng)
            with open(path, "w") as fh:
                fh.write(text)
            problem = run_case(argv)
            if problem:
                failures.append(f"{argv[:2]} on {text[:200]!r}: {problem}")
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_argv_end_cleanly(seed, tmp_path):
    rng = random.Random(seed)
    files = {"{unitary}": str(tmp_path / "u.json"), "{circuit}": str(tmp_path / "c.json")}
    for key, doc in (("{unitary}", _unitary_doc()), ("{circuit}", _circuit_doc())):
        with open(files[key], "w") as fh:
            json.dump(doc, fh)
    failures = []
    for base in BASE_ARGV:
        base = [files.get(token, token) for token in base]
        assert run_case(base) == "", base
        for _ in range(ARGV_CASES):
            argv = mutate_argv(base, rng)
            problem = run_case(argv)
            if problem:
                failures.append(f"{_shown(argv)}: {problem}")
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


def _edge_matrices():
    """(name, matrix, exit code) for unitaries at the tolerance's edge and near-identity loops."""
    for factor, code in EDGE_DEFECTS:
        m = oracle.partial_swap(1, 0.3)
        # Column 0 holds one unit-modulus entry, so scaling it by s sets (U'U)_00 to s^2.
        m[0, 0] *= math.sqrt(1 + factor * UNITARY_ATOL)
        yield f"defect {factor} x UNITARY_ATOL", m, code
    for n_loop in range(1, 6):
        for angle in WEAK_ANGLES:
            yield f"partial SWAP at {angle} on {n_loop} loop qubits", oracle.partial_swap(n_loop, angle), 0


def test_numeric_edge_matrices_end_cleanly(tmp_path):
    path = str(tmp_path / "edge.json")
    argv = ["ctc", "solve", "--unitary", path, "--system-state", "+"]
    failures = []
    for name, m, code in _edge_matrices():
        with open(path, "w") as fh:
            json.dump({"dim": len(m), "entries": matrix_to_entries(m)}, fh)
        problem = run_case(argv, (code,))
        if problem:
            failures.append(f"{name}: {problem}")
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


# Library calls that used to raise a raw Python error, a misleading one, or
# nothing, and the ParadoxLabError each must raise instead.
BAD_CALLS = {
    "RX at inf": (lambda: make_gate("RX", math.inf), BadParams),
    "RX at nan": (lambda: make_gate("RX", math.nan), BadParams),
    "RX at a string": (lambda: make_gate("RX", "0.3"), BadParams),
    "RX at True": (lambda: make_gate("RX", True), BadParams),
    "depolarizing at True": (lambda: depolarizing_kraus(True), BadProbability),
    "basis state of -1 qubits": (lambda: basis_state(-1), BadParams),
    "basis state of 1.5 qubits": (lambda: basis_state(1.5), BadParams),
    "basis state of True qubits": (lambda: basis_state(True), BadParams),
    "mixed state of -1 qubits": (lambda: maximally_mixed(-1), BadParams),
    "mixed state of 1.5 qubits": (lambda: maximally_mixed(1.5), BadParams),
    "mixed state of True qubits": (lambda: maximally_mixed(True), BadParams),
    "distance across sizes": (
        lambda: trace_distance(maximally_mixed(1), maximally_mixed(2)),
        DimensionMismatch,
    ),
    "sweep over a string": (lambda: epr.sweep(["a"], [0.1]), BadParams),
    "sweep over a complex": (lambda: epr.sweep([1j], [0.1]), BadParams),
}


@pytest.mark.parametrize("case", BAD_CALLS)
def test_library_refuses_bad_arguments(case):
    call, error = BAD_CALLS[case]
    with pytest.raises(error):
        call()


def test_library_takes_numpy_reals():
    for theta in (np.float64(0.3), np.float32(0.3), np.int64(1)):
        assert make_gate("RX", theta).theta == float(theta)
    assert maximally_mixed(2.0).n == 2
    assert len(epr.sweep(np.float32([0.1, 0.2]), np.arange(3))) == 6
