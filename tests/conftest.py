"""Runs the suite on one BLAS thread; collects acceptance result lines and
prints them after the run."""

import os

# One BLAS/OpenMP thread, as tools/replay.py uses, unless the caller set a
# count; set before numpy loads. With a thread per CPU, a second numpy process
# on the host oversubscribes the CPUs, and a 0.06 s loop solve in
# test_robustness.py can take several seconds, past its CASE_SECONDS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

_ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance results")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
