"""The seeded robustness corpus, and the table of command-line process checks.

Three seeded groups of ``Case``s, each case's input file written to its own
path under a work directory:

- ``file_cases``: structural mutations of a ``ctc solve`` matrix file and an
  ``audit-locality`` circuit file;
- ``argv_cases``: token mutations of an invocation of every subcommand, each
  preceded by the unmutated invocation (``base``);
- ``edge_cases``: ``ctc solve`` on unitaries at the tolerance's edge and on
  near-identity loops.

``corpus`` is all of them at ``SEEDS``. ``tests/test_robustness.py`` plays
them and checks that each ends cleanly; ``tools/replay.py`` plays ``corpus``
on two source trees and requires the same output from both.

A fourth group, ``process_cases``, is the command line's promises: every
subcommand in every output format, its refusals of oversized and malformed
input, and the largest runs it accepts, each with its exit code and time
bound. Its rows name their input files relative to a directory that
``write_process_inputs`` fills. ``tests/test_robustness.py`` plays them in
process, and run as a script this module plays them by subprocess::

    PYTHONPATH=src python -W error tests/corpus.py
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

import oracle
from paradoxlab.circuit import Circuit, circuit_unitary
from paradoxlab.cli import MAX_AUDIT_INSTRUCTIONS
from paradoxlab.qmath import UNITARY_ATOL, matrix_to_entries, save_unitary
from util import random_unitary_circuit

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
    stdin: Optional[str] = None  # text piped to the command; such a case plays by subprocess
    # The time bound in seconds; without one a case has test_robustness's
    # CASE_SECONDS in process and no bound by subprocess.
    seconds: Optional[float] = None
    # (stdout, stderr) -> the rule they break, or ""; it may raise on malformed output.
    check: Optional[Callable[[str, str], str]] = None


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


# Each memory record carries its own side's angle alone and the check both.
DEPENDENCE = {"alice_memory": {"theta": True, "phi": False},
              "bob_memory": {"theta": False, "phi": True}, "check": {"theta": True, "phi": True}}
# One invocation per subcommand, each a row in every output format.
SMOKE = (
    ("epr", "epr --theta 0.3 --phi 0.2 --shots 100 --seed 1"),
    ("epr-big-angle", "epr --theta 1e16 --phi 0.2"),
    ("sweep", "epr sweep --theta-steps 3 --phi-steps 3"),
    ("szilard", "szilard --cycles 2"),
    ("distinguish", "ctc distinguish --input -"),
    ("bb84", "ctc bb84 --input +"),
    ("solve", "ctc solve --unitary u.json --system-state +"),
    ("weak3", "ctc solve --unitary weak3.json --system-state +"),
    ("grandfather", "ctc grandfather"),
    ("audit", "audit-locality --circuit c.json"),
)
# Requests too large to attempt and input files that cannot be built: each
# is refused with exit 2, the pinned ones with exactly this stderr line.
REFUSALS = (
    ("grid", "epr sweep --theta-steps 100000 --phi-steps 100000", None),
    ("shots", "szilard --shots 1000000000000", None),
    ("cycles", "szilard --cycles 1000000000", None),
    ("deep-unitary", "ctc solve --unitary deep.json", None),  # too deeply nested to parse
    ("huge-entry", "ctc solve --unitary huge.json", None),  # U'U would overflow
    # A tolerance every state meets.
    ("tol", "ctc solve --unitary u.json --system-state + --tol 1e30",
     "error: tol must be a positive real below 1, got 1e+30"),
    ("wide-unitary", "ctc solve --unitary u7.json", None),
    ("no-loop-qubit", "ctc solve --unitary u1.json --system-state +",
     "usage error: --unitary: a 1-qubit interaction leaves no loop qubit"),
    ("deep-circuit", "audit-locality --circuit deep.json", None),
    ("long-circuit", "audit-locality --circuit long.json", None),
    ("negative-clbits", "audit-locality --circuit negclbits.json",
     "usage error: --circuit: circuit needs a non-negative clbit count"),
    ("clbit-twice", "audit-locality --circuit twice.json", None),
    ("no-clbits", "audit-locality --circuit noclbits.json", None),
    ("reset", "audit-locality --circuit reset.json",
     "usage error: --circuit: no instruction op 'reset'"),
    ("channel", "audit-locality --circuit channel.json",
     "usage error: --circuit: no instruction op 'channel'"),
    ("wide-circuit", "audit-locality --circuit wide.json", None),
)


def parses(out: str, err: str) -> str:
    json.loads(out)
    return ""


def audit_passes(out: str, err: str) -> str:
    """Every step passes with a drift that prints as 0: the 1e-12 print floor
    keeps a rounding-level change of the audit's arithmetic out of its output."""
    report = json.loads(out)
    drifts = {step["max_offsupport_delta"] for step in report["steps"]}
    return "" if report["overall"] is True and drifts == {0} else f"{report['overall']}, {drifts}"


def epr_dependence(out: str, err: str) -> str:
    found = json.loads(out)["dependence"]
    return "" if found == DEPENDENCE else f"dependence {found}"


def says(line: str) -> Callable[[str, str], str]:
    """The check that stdout is empty and stderr is exactly ``line``."""
    return lambda out, err: "" if (out, err) == ("", line + "\n") else f"{out[:200]!r}, {err!r}"


def process_cases() -> List[Case]:
    """Every command-line process check, one row per invocation."""
    cases = [
        Case(f"smoke-{name}-{fmt}", (args + flag).split(), (0,), f"runs as {fmt}", check=check)
        for name, args in SMOKE
        for fmt, flag, check in (("table", "", None), ("json", " --format json", parses),
                                 ("csv", " --format csv", None))
    ]

    def row(case_id, args, about, code=0, **fields):
        cases.append(Case(case_id, args.split(), (code,), about, seconds=20, **fields))

    for name, args, line in REFUSALS:
        row(f"refuse-{name}", args, "refused, not attempted", 2, check=says(line) if line else None)
    # --prompt is the only path that reads stdin; it reads one state label.
    row("prompt-distinguish", "ctc distinguish --prompt", "reads its label", stdin="-\n")
    row("prompt-bb84", "ctc bb84 --prompt", "reads its label", stdin="+\n")
    row("epr-dependence", "epr --theta 1e16 --phi 0.2 --format json",
        "keeps its flags for an angle its probe reduces modulo 4 pi", check=epr_dependence)
    row("loop-pswap5", "ctc solve --unitary pswap5.json --system-state +",
        "solves a partial SWAP at 0.03 on 5 loop qubits, too slow for plain iteration")
    row("loop-weak6", "ctc solve --unitary weak6.json --system-state +",
        "solves the worst loop accepted: exp(-i 0.001 H) on 5 loop qubits, whose Krylov"
        " space nears its bound of 1,025 vectors")
    # Without the reset each cycle makes two binomial draws of the set-bit
    # count, whatever --shots is; with it none is drawn.
    row("engine-stale", "szilard --cycles 1000 --skip-reset --shots 10000000 --seed 1",
        "the largest engine run without the reset")
    row("engine-reset", "szilard --cycles 1000 --shots 100000 --seed 1",
        "the largest engine run with the reset")
    row("audit6-table", "audit-locality --circuit audit6.json", "the largest audit accepted")
    row("audit6-json", "audit-locality --circuit audit6.json --format json",
        "the largest audit accepted passes every step", check=audit_passes)
    return cases


def _weak_loop() -> np.ndarray:
    """exp(-i 0.001 H) on 6 qubits for a seeded Gaussian Hermitian H."""
    rng = np.random.default_rng(1)
    z = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    return (v * np.exp(-1e-3j * w)) @ v.conj().T


def write_process_inputs(work: Path) -> None:
    """Every input file ``process_cases`` names, written into ``work``."""
    for name, m in (("u", np.eye(4)[:, [0, 2, 1, 3]]), ("u1", np.eye(2)),
                    ("weak3", oracle.partial_swap(2, 1e-6)),
                    ("pswap5", oracle.partial_swap(5, 0.03)), ("weak6", _weak_loop())):
        save_unitary(str(work / f"{name}.json"), m)
    audit6 = random_unitary_circuit(6, MAX_AUDIT_INSTRUCTIONS, np.random.default_rng(1))
    cx = {"op": "unitary", "kind": "CNOT", "targets": [0, 1]}
    h = {"op": "unitary", "kind": "H", "targets": [0]}
    measure = {"op": "measure", "target": 0, "clbit": 0}
    docs = {
        "c": _circuit_doc(),
        "audit6": audit6.to_dict(),
        "long": {"n_qubits": 2, "instructions": [cx] * (MAX_AUDIT_INSTRUCTIONS + 1)},
        "negclbits": {"n_qubits": 1, "n_clbits": -1, "instructions": [h]},
        "twice": {"n_qubits": 1, "n_clbits": 1, "instructions": [measure, measure]},
        "noclbits": {"n_qubits": 1, "n_clbits": 0, "instructions": [measure]},
        "reset": {"n_qubits": 1, "instructions": [{"op": "reset", "target": 0}]},
        "channel": {"n_qubits": 1, "instructions": [{"op": "channel", "target": 0}]},
        "wide": {"n_qubits": 7, "n_clbits": 0, "instructions": []},
        "huge": {"dim": 2, "entries": [[1e200, 0], [0, 0], [0, 0], [1, 0]]},
        "u7": {"dim": 128, "entries": matrix_to_entries(np.eye(128))},
    }
    for name, doc in docs.items():
        (work / f"{name}.json").write_text(json.dumps(doc))
    (work / "deep.json").write_text("[" * 100_000)


def verdict(case: Case, code: int, out: str, err: str) -> str:
    """The rule an ended ``case`` broke, or "": its exit code is one of its
    codes, stderr is empty exactly on exit 0, and its check passes."""
    if code not in case.codes:
        return f"exit {code}: {err!r}"
    if (code == 0) != (err == ""):
        return f"exit {code} with stderr {err!r}"
    try:
        return case.check(out, err) if case.check else ""
    except (ValueError, KeyError, TypeError) as exc:
        return f"output check raised {exc!r}"


def play(case: Case, work) -> Tuple[Optional[int], float, str]:
    """Run ``case`` in ``work`` as ``python -W error -m paradoxlab.cli``: its exit
    code (None on a timeout), wall time and the rule it broke ("" for none).
    ``-W error`` fails a run that warns, as ``-m`` does when the package's
    ``__init__`` imports ``cli``. The child imports from this process's path."""
    argv = [sys.executable, "-W", "error", "-m", "paradoxlab.cli", *case.argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=work, env=env, input=case.stdin or "",
                              capture_output=True, text=True, timeout=case.seconds)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"no exit within {case.seconds} s"
    code = done.returncode
    return code, time.perf_counter() - start, verdict(case, code, done.stdout, done.stderr)


def main() -> int:
    """Play every process case by subprocess; exit 1 naming the rows that fail."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="paradoxlab-cli-") as work:
        write_process_inputs(Path(work))
        for case in process_cases():
            code, seconds, problem = play(case, work)
            print(f"{case.id:<26} exit {code}  {seconds:6.2f} s  {problem}", flush=True)
            if problem:
                failed.append(case.id)
    print(f"{len(failed)} failing rows: {' '.join(failed)}" if failed else "every row passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
