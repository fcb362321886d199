"""Seeded robustness check of the command line against malformed input.

Three corpora from ``corpus.py`` run through ``cli.main``: structural
mutations of a ``ctc solve`` matrix file and an ``audit-locality`` circuit
file, token mutations of an invocation of every subcommand, and numerically
hard ``ctc solve`` matrices. Every case must end cleanly: no exception
escapes, the exit code is 0 or 2, stderr is empty exactly when the exit
code is 0, and the case finishes within ``CASE_SECONDS``. The library's
entry points refuse bad arguments with a ``ParadoxLabError`` of their own.
"""

from __future__ import annotations

import contextlib
import io
import math
import time

import numpy as np
import pytest

import corpus
from paradoxlab import cli, epr
from paradoxlab.circuit import depolarizing_kraus, make_gate
from paradoxlab.errors import BadParams, BadProbability, DimensionMismatch
from paradoxlab.qmath import basis_state, maximally_mixed, trace_distance

# A case that takes longer has stalled; the slowest valid one takes well under 0.1 s.
CASE_SECONDS = 2.0


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


def run_cases(cases) -> list:
    """A report per case that breaks a rule; a base invocation must break none."""
    failures = []
    for case in cases:
        problem = run_case(case.argv, case.codes)
        if case.base:
            assert problem == "", case.argv
        elif problem:
            failures.append(f"{case.about}: {problem}")
    return failures


@pytest.mark.parametrize("seed", corpus.SEEDS)
def test_mutated_input_files_end_cleanly(seed, tmp_path):
    cases = corpus.file_cases(seed, tmp_path)
    assert len(cases) == 2 * corpus.FILE_CASES
    failures = run_cases(cases)
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


@pytest.mark.parametrize("seed", corpus.SEEDS)
def test_mutated_argv_end_cleanly(seed, tmp_path):
    cases = corpus.argv_cases(seed, tmp_path)
    assert len(cases) == len(corpus.BASE_ARGV) * (1 + corpus.ARGV_CASES)
    failures = run_cases(cases)
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


def test_numeric_edge_matrices_end_cleanly(tmp_path):
    cases = corpus.edge_cases(tmp_path)
    assert len(cases) == len(corpus.EDGE_DEFECTS) + 5 * len(corpus.WEAK_ANGLES)
    failures = run_cases(cases)
    assert not failures, f"{len(failures)} failing cases, first: {failures[:3]}"


def test_corpus_gives_each_file_case_its_own_file(tmp_path):
    """``corpus`` (what tools/replay.py plays) is the three groups at both seeds."""
    cases = corpus.corpus(tmp_path)
    assert len(cases) == 1280
    assert len({case.id for case in cases}) == len(cases)
    work = str(tmp_path)
    paths = [token for case in cases if not case.id.startswith("argv")
             for token in case.argv if token.startswith(work)]
    assert len(set(paths)) == len(paths) == 2 * 2 * corpus.FILE_CASES + 24


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
