"""Replay the benchmark rounds through ``cli.main`` and fingerprint every output.

Run from anywhere; it plays the ``src/`` next to this directory:

    python tools/replay.py                        # seeds 1 and 2, every workload and the corpus
    python tools/replay.py --seeds 3 --workloads engine
    python tools/replay.py --seeds 1 2 --against ../other-checkout
    python tools/replay.py --against ../other-checkout --expect-diff tools/expected-diff.txt

Every invocation of ``bench/inputs.make_round`` for the chosen workloads and
seeds goes through ``paradoxlab.cli.main`` in one process, with one BLAS
thread. The workload ``robustness`` is the 1,280 cases of the robustness
corpus (``tests/corpus.py``), which carries its own seeds and is played once
whatever ``--seeds`` says. The input files are written once, into a
temporary work directory, and the path of that directory is replaced by
``<work>`` in every output before it is read. One line is printed per
invocation: its id, its exit code, and the sha256 of its stdout and of its
stderr.

``--against PATH`` then plays the same invocations, on the same input files,
on the ``src/`` of the checkout at PATH, in a child process of its own. At the
first invocation whose exit code, stdout or stderr differs, the replay
prints that invocation's argv with a line diff and exits 1; otherwise it
exits 0. So a change that is meant to keep the program's output keeps the
output contract exactly when this replay passes against its parent.

A change that is meant to alter some outputs lists their ids in a file, one
per line (``#`` starts a comment), and passes it with ``--expect-diff FILE``.
The replay then compares every invocation, printing a line diff for each one
that differs, and passes only when the ids that differ are exactly the
listed ones. It fails, naming the ids, on a difference that is not listed,
on a listed id whose output did not change, and on a listed id that was not
played.
"""

import os

# One BLAS/OpenMP thread in this process and in the child; set before numpy
# loads. The child inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import difflib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "bench" / "inputs.py"
CORPUS = "robustness"
WORKLOADS = ("sweep", "engine", "heisenberg", "loops", CORPUS)
WORK_TOKEN = "<work>"
INVOCATIONS_FILE = "invocations.json"


def load_inputs() -> types.ModuleType:
    """``bench/inputs.py`` run from its source, leaving no bytecode cache under ``bench/``."""
    module = types.ModuleType("bench_inputs")
    exec(compile(INPUTS.read_text(), str(INPUTS), "exec"), module.__dict__)
    return module


def import_cli(src: Path) -> types.ModuleType:
    """``paradoxlab.cli`` from ``src``, ahead of any other ``paradoxlab`` on the path."""
    sys.path.insert(0, str(src))
    return importlib.import_module("paradoxlab.cli")


def play(cli, invocations, work: str):
    """``(id, exit code, stdout, stderr)`` per invocation, with ``work`` read as ``<work>``."""
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inv["argv"])
        yield (inv["id"], code, out.getvalue().replace(work, WORK_TOKEN),
               err.getvalue().replace(work, WORK_TOKEN))


def load_corpus() -> types.ModuleType:
    """``tests/corpus.py``, which imports ``oracle`` from beside it."""
    sys.path.append(str(ROOT / "tests"))
    return importlib.import_module("corpus")


def make_rounds(workloads, seeds, work: Path, save_unitary):
    """Every invocation of every round, each round's input files in a directory of its own."""
    inputs = load_inputs()
    invocations = []
    for workload in workloads:
        if workload == CORPUS:
            corpus_dir = work / CORPUS
            corpus_dir.mkdir()
            invocations += [{"id": f"{CORPUS}-{case.id}", "argv": case.argv}
                            for case in load_corpus().corpus(corpus_dir)]
            continue
        for seed in seeds:
            round_dir = work / f"{workload}-{seed}"
            round_dir.mkdir()
            round_ = inputs.make_round(workload, seed, str(round_dir), save_unitary)
            invocations += [{"id": f"{workload}-{seed}-{k:03d}", "argv": item["argv"]}
                            for k, item in enumerate(round_)]
    return invocations


def fingerprint(record) -> str:
    inv_id, code, out, err = record

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    return f"{inv_id}  exit {code}  stdout {sha(out)}  stderr {sha(err)}"


def line_diff(name: str, ours: str, theirs: str) -> str:
    return "".join(difflib.unified_diff(
        ours.splitlines(keepends=True), theirs.splitlines(keepends=True),
        f"this/{name}", f"against/{name}"))


def report_difference(invocation, ours, theirs, work: str) -> None:
    argv = " ".join(invocation["argv"]).replace(work, WORK_TOKEN)
    print(f"replay: {ours[0]} differs: paradoxlab {argv}")
    if ours[1] != theirs[1]:
        print(f"exit code: this {ours[1]}, against {theirs[1]}")
    print(line_diff("stdout", ours[2], theirs[2]), end="")
    print(line_diff("stderr", ours[3], theirs[3]), end="")


def child(src: Path, work: Path) -> int:
    """Play the invocations listed in ``work`` on ``src``; one JSON record per line on stdout."""
    cli = import_cli(src)
    invocations = json.loads((work / INVOCATIONS_FILE).read_text())
    for record in play(cli, invocations, str(work)):
        sys.stdout.write(json.dumps(record) + "\n")
    return 0


def read_expected(path: Path) -> set:
    """The invocation ids listed in ``path``: one per line, ``#`` to the end of a line ignored."""
    ids = set()
    for line in path.read_text().splitlines():
        ids.update(line.split("#", 1)[0].split())
    return ids


def verdict(played: list, differing: list, expected: set, against) -> bool:
    """Print the replay's verdict; true when the ids that differ are exactly ``expected``."""
    failures = [
        ("not listed but differ", [i for i in differing if i not in expected]),
        ("listed but unchanged", [i for i in played if i in expected and i not in differing]),
        ("listed but not played", sorted(expected - set(played))),
    ]
    failures = [(what, ids) for what, ids in failures if ids]
    for what, ids in failures:
        print(f"replay: {what}: {' '.join(ids)}")
    if failures:
        return False
    if expected:
        print(f"replay: {len(played)} invocations against {against}: "
              f"the {len(expected)} listed differ, every other is identical")
    else:
        print(f"replay: {len(played)} invocations identical against {against}")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="a checkout whose src/ must give the same outputs")
    parser.add_argument("--expect-diff", type=Path, metavar="FILE",
                        help="ids of the invocations whose output must differ, one per line")
    # The child process's entry: play the work directory's invocations on SRC.
    parser.add_argument("--child", nargs=2, type=Path, metavar=("SRC", "WORK"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(*args.child)

    other_src = None if args.against is None else args.against / "src"
    if other_src is not None and not (other_src / "paradoxlab").is_dir():
        parser.error(f"--against: no src/paradoxlab under {args.against}")
    if args.expect_diff is not None and other_src is None:
        parser.error("--expect-diff needs --against")
    expected = set() if args.expect_diff is None else read_expected(args.expect_diff)
    cli = import_cli(ROOT / "src")
    from paradoxlab.qmath import save_unitary

    with tempfile.TemporaryDirectory(prefix="paradoxlab-replay-") as tmp:
        work = Path(tmp)
        invocations = make_rounds(args.workloads, args.seeds, work, save_unitary)
        ours = list(play(cli, invocations, str(work)))
        theirs = None
        if other_src is not None:
            (work / INVOCATIONS_FILE).write_text(json.dumps(invocations))
            other = subprocess.run(
                [sys.executable, __file__, "--child", str(other_src.resolve()), str(work)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
            if other.returncode != 0:
                print(f"replay: the child process on {other_src} exited {other.returncode}")
                return 1
            theirs = [tuple(json.loads(line)) for line in other.stdout.splitlines()]
        differing = []
        for k, record in enumerate(ours):
            print(fingerprint(record))
            if theirs is not None and record != theirs[k]:
                differing.append(record[0])
                report_difference(invocations[k], record, theirs[k], str(work))
                if args.expect_diff is None:
                    return 1
        if theirs is not None and not verdict([r[0] for r in ours], differing, expected, args.against):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
