"""The seeded robustness corpus: malformed and numerically hard command lines.

Three groups of ``Case``s, each case's input file written to its own path
under a work directory:

- ``file_cases``: structural mutations of a ``ctc solve`` matrix file and an
  ``audit-locality`` circuit file;
- ``argv_cases``: token mutations of an invocation of every subcommand, each
  preceded by the unmutated invocation (``base``);
- ``edge_cases``: ``ctc solve`` on unitaries at the tolerance's edge and on
  near-identity loops.

``corpus`` is all of them at ``SEEDS``. ``tests/test_robustness.py`` plays
them and checks that each ends cleanly; ``tools/replay.py`` plays ``corpus``
on two source trees and requires the same output from both.
"""

from __future__ import annotations

import copy
import json
import math
import random
from pathlib import Path
from typing import List, NamedTuple, Tuple

import numpy as np

import oracle
from paradoxlab.circuit import Circuit, circuit_unitary
from paradoxlab.qmath import UNITARY_ATOL, matrix_to_entries

SEEDS = (1, 2)
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


class Case(NamedTuple):
    id: str  # group, seed and position, e.g. "files-1-017"
    argv: List[str]
    codes: Tuple[int, ...]  # the exit codes that end the case cleanly
    about: str  # what a failure report shows of the case
    base: bool = False  # an unmutated invocation of argv_cases


def _unitary_doc() -> dict:
    """A partial SWAP at angle 0.3 between a loop and a system qubit, as a matrix file."""
    swap = circuit_unitary(Circuit(2).swap(0, 1))
    m = math.cos(0.3) * np.eye(4) - 1j * math.sin(0.3) * swap
    return {"dim": 4, "entries": matrix_to_entries(m)}


def _circuit_doc() -> dict:
    return Circuit(3, 1).h(0).ccx(0, 1, 2).rx(0.4, 2).cx(2, 0).to_dict()


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


def file_cases(seed: int, work: Path) -> List[Case]:
    """FILE_CASES mutations of each input file, half per command line that reads it."""
    rng = random.Random(seed)
    readers = [
        (["ctc", "solve", "--unitary", "{path}", "--system-state", "+"], _unitary_doc()),
        (["ctc", "solve", "--unitary", "{path}"], _unitary_doc()),
        (["audit-locality", "--circuit", "{path}", "--format", "json"], _circuit_doc()),
        (["audit-locality", "--circuit", "{path}"], _circuit_doc()),
    ]
    cases = []
    for reader, doc in readers:
        for _ in range(FILE_CASES // 2):
            text = mutate_doc(doc, rng)
            case_id = f"files-{seed}-{len(cases):03d}"
            path = work / f"{case_id}.json"
            path.write_text(text)
            argv = [str(path) if token == "{path}" else token for token in reader]
            cases.append(Case(case_id, argv, (0, 2), f"{argv[:2]} on {text[:200]!r}"))
    return cases


def argv_cases(seed: int, work: Path) -> List[Case]:
    """Each of BASE_ARGV, then ARGV_CASES mutations of it."""
    rng = random.Random(seed)
    files = {"{unitary}": work / f"argv-{seed}-unitary.json",
             "{circuit}": work / f"argv-{seed}-circuit.json"}
    files["{unitary}"].write_text(json.dumps(_unitary_doc()))
    files["{circuit}"].write_text(json.dumps(_circuit_doc()))
    cases = []
    for base in BASE_ARGV:
        base = [str(files[token]) if token in files else token for token in base]
        cases.append(Case(f"argv-{seed}-{len(cases):03d}", base, (0, 2), str(base), base=True))
        for _ in range(ARGV_CASES):
            argv = mutate_argv(base, rng)
            cases.append(Case(f"argv-{seed}-{len(cases):03d}", argv, (0, 2), str(_shown(argv))))
    return cases


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


def edge_cases(work: Path) -> List[Case]:
    """``ctc solve --system-state +`` on each edge matrix, expecting its one exit code."""
    cases = []
    for name, m, code in _edge_matrices():
        case_id = f"edge-{len(cases):02d}"
        path = work / f"{case_id}.json"
        path.write_text(json.dumps({"dim": len(m), "entries": matrix_to_entries(m)}))
        argv = ["ctc", "solve", "--unitary", str(path), "--system-state", "+"]
        cases.append(Case(case_id, argv, (code,), name))
    return cases


def corpus(work: Path) -> List[Case]:
    """Every case of every group at every seed: 1,280 in all."""
    cases = []
    for seed in SEEDS:
        cases += file_cases(seed, work) + argv_cases(seed, work)
    return cases + edge_cases(work)
