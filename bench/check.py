"""Run one CLI invocation in-process and check its output independently.

Every expected value is recomputed here from the invocation's own inputs
with plain numpy: closed forms for the parity check and the engine ledger,
and for loop solutions a partial trace of the rendered fixed point pushed
once more through the interaction. Nothing here calls into paradoxlab
except ``invoke``, which drives ``cli.parse`` + ``cli.execute`` the way
``paradoxlab.cli.main`` does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from typing import Dict, List, Optional

import numpy as np

# Significant digits the CLI prints per format.
SIG = {"table": 6, "json": 9, "csv": 9}
# The CLI prints magnitudes below 1e-12 as 0; 1e-11 also covers the
# simulation's own rounding error.
ABS_TOL = 1e-11
# The audit's off-support bound (descriptor.LOCALITY_ATOL).
LOCALITY_TOL = 1e-10
# Sampled counts may sit this many standard deviations from their mean;
# one false alarm in ~5e8 checks.
SAMPLING_SIGMAS = 6.0
# A loop state is a fixed point when one more pass moves it by at most this
# trace distance, on top of what rendering the state to text explains.
SOLVE_TOL = 1e-12


class Mismatch(Exception):
    """The output disagrees with the independent reference."""


def invoke(cli, errors, argv):
    """Run ``argv`` like ``paradoxlab.cli.main`` does, without touching stdout.

    Returns ``(text, code, error)``: the rendered output, the exit code, and
    for an invocation that raised, the exception's type and message.
    """
    try:
        text, code = cli.execute(cli.parse(argv))
    except errors.UsageError as exc:
        return "", 2, f"UsageError: {exc}"
    except errors.NoConvergence as exc:
        return "", 1, f"NoConvergence: {exc}"
    except errors.ParadoxLabError as exc:
        return "", 2, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash is recorded as a failed invocation
        return "", 1, f"{type(exc).__name__}: {exc}"
    return text, code, None


def check(spec: Dict, text: str) -> Optional[str]:
    """None when ``text`` is the right output for ``spec``, else the reason."""
    try:
        _CHECKS[spec["kind"]](spec, text)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


# -- corrupted outputs ---------------------------------------------------------

_NUMBER = re.compile(r"(?<![\w\[\]\"])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def corruptions(text: str) -> Dict[str, str]:
    """Damaged copies of a valid output that a sound checker must reject.

    ``last_line``: the final line is dropped. ``digit``: the leading
    significant digit (1-8) of the first result value goes up by one;
    ``iterations`` is skipped because no reference fixes it. ``bool``: the
    first true/false flips.
    """
    out = {}
    lines = text.splitlines(keepends=True)
    if len(lines) > 1:
        out["last_line"] = "".join(lines[:-1])
    for k, line in enumerate(lines[1:], start=1):
        if "iterations" in line:
            continue
        bumped = _bump_first_value(line)
        if bumped is not None:
            out["digit"] = "".join(lines[:k] + [bumped] + lines[k + 1:])
            break
    flip = re.search(r"\b(true|false)\b", text)
    if flip:
        new = "false" if flip.group(1) == "true" else "true"
        out["bool"] = text[: flip.start()] + new + text[flip.end():]
    return out


def _bump_first_value(line: str) -> Optional[str]:
    for match in _NUMBER.finditer(line):
        token = match.group(0).split("e")[0]
        for offset, ch in enumerate(token):
            if ch in "123456789":
                if ch == "9":
                    break
                pos = match.start() + offset
                return line[:pos] + str(int(ch) + 1) + line[pos + 1:]
    return None


# -- parsing -------------------------------------------------------------------


def _cell(text: str):
    """A table or CSV cell as the CLI wrote it: bool, int, float, pair or None."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if " " in text:
        return tuple(float(part) for part in text.split())
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    return float(text)


def _grid(text: str, fmt: str) -> List[List[str]]:
    """Header plus rows of a table or CSV output, as cell strings."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    lines = text.splitlines()
    names = lines[0].split()
    starts, pos = [], 0
    for name in names:
        pos = lines[0].index(name, pos)
        starts.append(pos)
        pos += len(name)
    bounds = list(zip(starts, starts[1:] + [None]))
    return [names] + [[line[a:b].strip() for a, b in bounds] for line in lines[1:]]


def _records(text: str, fmt: str, columns, json_rows) -> List[Dict]:
    """Row records of a tabular output; ``json_rows`` picks the rows from JSON."""
    if fmt == "json":
        rows = json_rows(json.loads(text))
        for row in rows:
            if set(row) != set(columns):
                raise Mismatch(f"JSON row keys {sorted(row)}, expected {sorted(columns)}")
        return rows
    return _typed(_grid(text, fmt), columns)


def _typed(grid: List[List[str]], columns) -> List[Dict]:
    if tuple(grid[0]) != tuple(columns):
        raise Mismatch(f"header {grid[0]}, expected {list(columns)}")
    for row in grid[1:]:
        if len(row) != len(columns):
            raise Mismatch(f"row {row} has {len(row)} cells, expected {len(columns)}")
    return [dict(zip(columns, (_cell(c) for c in row))) for row in grid[1:]]


def _fields(text: str, fmt: str) -> Dict:
    """Field/value output (epr, ctc) as a flat dict keyed like the table rows."""
    if fmt == "json":
        return _flatten(json.loads(text))
    grid = _grid(text, fmt)
    if grid[0] != ["field", "value"]:
        raise Mismatch(f"header {grid[0]}, expected ['field', 'value']")
    out = {}
    for row in grid[1:]:
        if len(row) != 2 or row[0] in out:
            raise Mismatch(f"malformed or repeated row {row}")
        out[row[0]] = _cell(row[1])
    return out


def _flatten(payload: Dict) -> Dict:
    out = {}
    for key, value in payload.items():
        if key == "dependence":
            for who, angles in value.items():
                for angle, flag in angles.items():
                    out[f"dependence.{who}.{angle}"] = flag
        elif key == "counts":
            out.update({f"counts[{k}]": v for k, v in value.items()})
        elif key == "distribution":
            out.update({f"p[{k}]": v for k, v in value.items()})
        elif key == "fixed_point":
            dim = math.isqrt(len(value))
            for n, (re_, im) in enumerate(value):
                out[f"fixed_point[{n // dim}][{n % dim}]"] = (re_, im)
        else:
            out[key] = value
    return out


# -- comparisons -----------------------------------------------------------------


def _near(what: str, got, want: float, sig: int, extra: float = 0.0) -> None:
    """``got`` equals ``want`` up to rendering at ``sig`` significant digits."""
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise Mismatch(f"{what}: expected a number, got {got!r}")
    if not abs(got - want) <= 10.0 ** (1 - sig) * abs(want) + ABS_TOL + extra:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _equal(what: str, got, want) -> None:
    if type(got) is not type(want) or got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def _sampled(what: str, got, n: int, p: float) -> None:
    """``got`` is a plausible Binomial(n, p) draw."""
    if not isinstance(got, int) or isinstance(got, bool) or not 0 <= got <= n:
        raise Mismatch(f"{what}: {got!r} is not a count in 0..{n}")
    spread = SAMPLING_SIGMAS * math.sqrt(n * p * (1 - p)) + 3
    if abs(got - n * p) > spread:
        raise Mismatch(f"{what}: {got} is beyond {SAMPLING_SIGMAS} sigma of {n * p}")


# -- per-command references -------------------------------------------------------


def _check_sweep(spec, text):
    fmt, sig = spec["format"], SIG[spec["format"]]
    rows = _records(text, fmt, ("theta", "phi", "p_check_one"), lambda doc: doc["rows"])
    thetas = np.linspace(-math.pi, math.pi, spec["theta_steps"])
    phis = np.linspace(-math.pi, math.pi, spec["phi_steps"])
    if len(rows) != len(thetas) * len(phis):
        raise Mismatch(f"{len(rows)} rows, expected {len(thetas) * len(phis)}")
    for k, row in enumerate(rows):
        theta, phi = float(thetas[k // len(phis)]), float(phis[k % len(phis)])
        _near(f"row {k} theta", row["theta"], theta, sig)
        _near(f"row {k} phi", row["phi"], phi, sig)
        _near(f"row {k} p_check_one", row["p_check_one"], (1 - math.cos(theta + phi)) / 2, sig)


_LEDGER = ("cycle", "expected_work", "sampled_work", "memory_entropy_pre_reset",
           "memory_entropy_post", "mutual_info_particle_memory")


def _check_szilard(spec, text):
    fmt, sig = spec["format"], SIG[spec["format"]]
    rows = _records(text, fmt, _LEDGER, lambda doc: doc)
    if len(rows) != spec["cycles"]:
        raise Mismatch(f"{len(rows)} cycles, expected {spec['cycles']}")
    skip, shots = spec["skip_reset"], spec["shots"]
    for k, row in enumerate(rows, start=1):
        # With erasure every cycle wins one unit on a one-bit record; without
        # it the stale record wins once and then averages to zero.
        wins = not skip or k == 1
        _equal(f"cycle {k} index", row["cycle"], k)
        _near(f"cycle {k} expected_work", row["expected_work"], 1.0 if wins else 0.0, sig)
        _near(f"cycle {k} memory_entropy_pre_reset", row["memory_entropy_pre_reset"], 1.0, sig)
        _near(f"cycle {k} memory_entropy_post", row["memory_entropy_post"],
              1.0 if skip else 0.0, sig)
        _near(f"cycle {k} mutual_info_particle_memory", row["mutual_info_particle_memory"],
              1.0 if wins else 0.0, sig)
        work = row["sampled_work"]
        if shots == 0:
            _equal(f"cycle {k} sampled_work", work, None)
        elif wins:
            _equal(f"cycle {k} sampled_work", work, shots)
        else:
            # A sum of `shots` fair +-1 steps: same parity as shots, spread sqrt(shots).
            if not isinstance(work, int) or isinstance(work, bool) or (work - shots) % 2:
                raise Mismatch(f"cycle {k} sampled_work {work!r} is not a sum of +-1 steps")
            if abs(work) > SAMPLING_SIGMAS * math.sqrt(shots):
                raise Mismatch(f"cycle {k} sampled_work {work} is beyond "
                               f"{SAMPLING_SIGMAS} sigma of 0")


# Which angle each record may carry: memories their own side's only, the
# parity record both.
_DEPENDENCE = {
    "dependence.alice_memory.theta": True,
    "dependence.alice_memory.phi": False,
    "dependence.bob_memory.theta": False,
    "dependence.bob_memory.phi": True,
    "dependence.check.theta": True,
    "dependence.check.phi": True,
}


def _check_epr(spec, text):
    sig = SIG[spec["format"]]
    fields = _fields(text, spec["format"])
    theta, phi, shots = spec["theta"], spec["phi"], spec["shots"]
    p_one = (1 - math.cos(theta + phi)) / 2
    counts = {k for k in fields if k.startswith("counts[")}
    expected = {"theta", "phi", "p_check_one", "correlation", "shots", "seed"} | set(_DEPENDENCE)
    if set(fields) - counts != expected:
        raise Mismatch(f"fields {sorted(fields)}")
    _near("theta", fields["theta"], theta, sig)
    _near("phi", fields["phi"], phi, sig)
    _near("p_check_one", fields["p_check_one"], p_one, sig)
    _near("correlation", fields["correlation"], math.cos(theta + phi), sig)
    for key, flag in _DEPENDENCE.items():
        _equal(key, fields[key], flag)
    _equal("shots", fields["shots"], shots)
    _equal("seed", fields["seed"], spec["seed"])
    if shots == 0:
        if counts:
            raise Mismatch("counts reported without shots")
        return
    if not counts or not counts <= {"counts[0]", "counts[1]"}:
        raise Mismatch(f"count keys {sorted(counts)}")
    total = sum(fields[k] for k in counts)
    _equal("total count", total, shots)
    _sampled("counts[1]", fields.get("counts[1]", 0), shots, p_one)


_AUDIT = ("instr", "max_offsupport_delta", "pass")


def _check_audit(spec, text):
    fmt = spec["format"]
    if fmt == "json":
        rows = _records(text, fmt, _AUDIT, lambda doc: doc["steps"])
        overall = json.loads(text)["overall"]
    else:
        grid = _grid(text, fmt)
        if len(grid) < 2 or grid[-1][0] != "overall":
            raise Mismatch("missing overall row")
        rows = _typed(grid[:-1], _AUDIT)
        overall = _cell(grid[-1][-1])
    if len(rows) != spec["depth"]:
        raise Mismatch(f"{len(rows)} audit steps, expected {spec['depth']}")
    for k, row in enumerate(rows):
        _equal(f"step {k} index", row["instr"], k)
        delta = row["max_offsupport_delta"]
        if not isinstance(delta, (int, float)) or not 0 <= delta <= LOCALITY_TOL:
            raise Mismatch(f"step {k} moved an off-support descriptor by {delta!r}")
        _equal(f"step {k} pass", row["pass"], True)
    _equal("overall", overall, True)


# -- closed loops ----------------------------------------------------------------

_SQ2 = 1 / math.sqrt(2)
_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([_SQ2, _SQ2], dtype=complex),
    "-": np.array([_SQ2, -_SQ2], dtype=complex),
}


def _density(label: str) -> np.ndarray:
    ket = _KETS[label]
    return np.outer(ket, ket.conj())


def _lift(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Full-register matrix of ``op``; targets[p] carries bit p of op's index."""
    dim = 2 ** n
    mask = sum(1 << t for t in targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        sub = sum(((col >> t) & 1) << p for p, t in enumerate(targets))
        for row_sub in range(len(op)):
            row = (col & ~mask) | sum(((row_sub >> p) & 1) << t for p, t in enumerate(targets))
            full[row, col] += op[row_sub, sub]
    return full


def _controlled(u: np.ndarray) -> np.ndarray:
    """Control on local bit 0, ``u`` on the remaining bits."""
    k = len(u)
    m = np.eye(2 * k, dtype=complex)
    m[1::2, 1::2] = u
    return m


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def _circuit(n: int, gates) -> np.ndarray:
    u = np.eye(2 ** n, dtype=complex)
    for op, targets in gates:
        u = _lift(op, targets, n) @ u
    return u


def _demo_problem(demo: str, label):
    """(interaction, system state, loop qubits, measured qubits, exact outcome)."""
    if demo == "grandfather":
        return _X, None, 1, [], None
    if demo == "distinguish":
        # Swap the input into the loop, then Hadamard the loop when the
        # swapped-out loop bit is 1: |0> reads 0, |-> reads 1.
        u = _circuit(2, [(_SWAP, (0, 1)), (_controlled(_H), (1, 0))])
        return u, _density(label), 1, [1], {"0": "0", "-": "1"}[label]
    cx, ch, ccx = _controlled(_X), _controlled(_H), _controlled(_controlled(_X))
    u = _circuit(4, [(ch, (0, 2)), (cx, (1, 2)), (ccx, (2, 0, 1)), (cx, (2, 0)),
                     (cx, (1, 2)), (cx, (0, 3))])
    system = np.kron(_density("0"), _density(label))
    # Read out as (value, basis).
    outcome = {"0": "00", "1": "10", "+": "01", "-": "11"}[label]
    return u, system, 2, [2, 3], outcome


def _loop_pass(u: np.ndarray, system, rho: np.ndarray) -> np.ndarray:
    """rho -> tr_sys(U (system x rho) U^dag), system on the high qubits."""
    joint = rho if system is None else np.kron(system, rho)
    out = u @ joint @ u.conj().T
    d_loop = len(rho)
    d_sys = len(out) // d_loop
    return np.trace(out.reshape(d_sys, d_loop, d_sys, d_loop), axis1=0, axis2=2)


def _outcomes(u, system, rho, measured) -> Dict[str, float]:
    joint = rho if system is None else np.kron(system, rho)
    probs = np.real(np.diag(u @ joint @ u.conj().T))
    out: Dict[str, float] = {}
    for index, p in enumerate(probs):
        key = "".join(str((index >> q) & 1) for q in measured)
        out[key] = out.get(key, 0.0) + float(p)
    return out


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def _loop_output(fields: Dict, n_loop: int):
    """(distribution, fixed point, residual) from a ctc output."""
    dim = 2 ** n_loop
    names = {f"fixed_point[{i}][{j}]" for i in range(dim) for j in range(dim)}
    probs = {k[2:-1]: v for k, v in fields.items() if k.startswith("p[")}
    extra = set(fields) - names - {f"p[{k}]" for k in probs} - {"residual", "iterations"}
    if extra or not names <= set(fields) or "residual" not in fields:
        raise Mismatch(f"fields {sorted(fields)}")
    rho = np.array([[complex(*fields[f"fixed_point[{i}][{j}]"]) for j in range(dim)]
                    for i in range(dim)])
    iterations = fields.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) or iterations < 1:
        raise Mismatch(f"iterations {iterations!r}")
    return probs, rho, fields["residual"]


def _check_loop(fields, sig, u, system, n_loop, measured, want_rho=None, want_probs=None):
    probs, rho, residual = _loop_output(fields, n_loop)
    dim = len(rho)
    # Rounding each entry to `sig` digits moves the state by at most this
    # much in trace distance.
    render = dim ** 1.5 * 10.0 ** (1 - sig)
    if not 0 <= residual <= SOLVE_TOL:
        raise Mismatch(f"reported residual {residual!r} above {SOLVE_TOL}")
    if np.max(np.abs(rho - rho.conj().T)) > render or abs(np.trace(rho).real - 1) > render:
        raise Mismatch("fixed point is not a hermitian trace-one matrix")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -render:
        raise Mismatch("fixed point has a negative eigenvalue")
    moved = _trace_distance(_loop_pass(u, system, rho), rho)
    if moved > 2 * render + SOLVE_TOL:
        raise Mismatch(f"fixed point moves by {moved:.3e} on one more pass")
    if want_rho is not None and _trace_distance(rho, want_rho) > render:
        raise Mismatch("fixed point differs from the exact solution")
    if want_probs is None:
        want_probs = _outcomes(u, system, rho, measured) if measured else {}
    for key in set(probs) | set(want_probs):
        want = want_probs.get(key, 0.0)
        if key not in probs:
            if want > render:
                raise Mismatch(f"outcome {key} missing, expected {want}")
            continue
        _near(f"p[{key}]", probs[key], want, sig, extra=render)


def _check_ctc_demo(spec, text):
    sig = SIG[spec["format"]]
    u, system, n_loop, measured, outcome = _demo_problem(spec["demo"], spec["label"])
    fields = _fields(text, spec["format"])
    if spec["demo"] == "grandfather":
        # A bit flip fed back on itself settles on the coin-flip state.
        _check_loop(fields, sig, u, system, n_loop, measured,
                    want_rho=np.eye(2) / 2, want_probs={})
    else:
        _check_loop(fields, sig, u, system, n_loop, measured, want_probs={outcome: 1.0})


def _read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    flat = np.array([complex(re_, im) for re_, im in doc["entries"]])
    return flat.reshape(doc["dim"], doc["dim"])


def _check_ctc_solve(spec, text):
    sig, n_loop = SIG[spec["format"]], spec["n_loop"]
    u = _read_matrix(spec["unitary"])
    system = _density(spec["label"])
    fields = _fields(text, spec["format"])
    if spec["family"] == "haar":
        _check_loop(fields, sig, u, system, n_loop, [n_loop])
        return
    # A partial SWAP of identical states only adds a phase, so loop qubit 0
    # settles on the system state, the other loop qubits stay maximally
    # mixed (the maximum-entropy choice), and the system reads out unchanged.
    rest = 2 ** (n_loop - 1)
    want_rho = np.kron(np.eye(rest) / rest, system)
    p_zero = float(system[0, 0].real)
    want_probs = {k: v for k, v in (("0", p_zero), ("1", 1 - p_zero)) if v > 0}
    _check_loop(fields, sig, u, system, n_loop, [n_loop], want_rho=want_rho,
                want_probs=want_probs)


_CHECKS = {
    "sweep": _check_sweep,
    "szilard": _check_szilard,
    "epr": _check_epr,
    "audit": _check_audit,
    "ctc_demo": _check_ctc_demo,
    "ctc_solve": _check_ctc_solve,
}
