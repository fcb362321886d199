"""Command-line front end for the lab's experiments.

Every subcommand computes a JSON-ready payload once and renders it as an
aligned table, CSV, or indented JSON, so that repeated invocations with the
same arguments produce byte-identical text:

- JSON is ``json.dumps(payload, indent=2)``, plus a final newline, of the
  payload with every float rounded to nine significant digits (the nearest
  float to that decimal, written by ``float.__repr__``; ``NaN``,
  ``Infinity`` and ``-Infinity`` for non-finite ones), written in one pass.
- Any float below 1e-12 in magnitude prints as zero (``0``; ``0.0`` in JSON).
- A table cell is the six-significant-digit form of its value
  (``f"{v:.6g}"``), a CSV cell the nine-significant-digit form.

Exit codes: 0 on success, 1 when a numerical procedure fails to converge
or an audit reports a violation, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import ctc, epr, szilard
from .circuit import Circuit, sample
from .descriptor import locality_audit
from .errors import NoConvergence, ParadoxLabError, UsageError
from .qmath import MAX_SHOTS, SOLVE_TOL, load_unitary, matrix_to_entries

_JSON_SIG = 9
_TABLE_SIG = 6
# Magnitudes below the default loop-solve tolerance are rendering noise.
_DISPLAY_FLOOR = SOLVE_TOL
# Largest `epr sweep` grid (256 x 256): every row is held and rendered at
# once, so a larger grid is refused before anything is allocated.
MAX_SWEEP_POINTS = 65536
# Largest `szilard --cycles`: a repeated memory reuses its record, so rendering
# and sampling, not the exact ledger, grow with the cycle count.
MAX_CYCLES = 1000
# Largest `audit-locality` circuit: the audit takes 1.0-1.4 ms per instruction
# at six qubits on a 2-core Xeon, so a longer file is refused before it starts.
MAX_AUDIT_INSTRUCTIONS = 1000

Row = Tuple[object, ...]


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting the process."""

    def error(self, message):
        raise UsageError(message)


def _above(convert, floor, ceiling=math.inf):
    """argparse type: ``convert(text)``, finite, strictly above ``floor``, at most ``ceiling``."""
    noun = "an integer" if convert is int else "a number"

    def parse_value(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not floor < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {noun} above {floor}, got {text!r}")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"expected {noun} at most {ceiling}, got {text!r}")
        return value

    return parse_value


def _add_output_flags(parser: argparse.ArgumentParser, sampling: bool = False) -> None:
    parser.add_argument(
        "--format", choices=("table", "json", "csv"), default="table"
    )
    if sampling:
        parser.add_argument("--shots", type=_above(int, -1, MAX_SHOTS), default=0)
        parser.add_argument("--seed", type=_above(int, -1), default=0)


def _add_label_source(parser: argparse.ArgumentParser, labels: Sequence[str]) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", choices=tuple(labels))
    group.add_argument("--prompt", action="store_true")


def build_parser() -> _Parser:
    top = _Parser(prog="paradoxlab", add_help=True)
    commands = top.add_subparsers(dest="command", required=True)

    p_epr = commands.add_parser("epr", help="entangled-pair parity check")
    p_epr.add_argument("--theta", type=float)
    p_epr.add_argument("--phi", type=float)
    _add_output_flags(p_epr, sampling=True)
    p_sweep = commands.add_parser(
        "epr-sweep", help="parity probability over an angle grid (spelled: epr sweep)"
    )
    p_sweep.add_argument("--theta-steps", type=_above(int, 0), default=17)
    p_sweep.add_argument("--phi-steps", type=_above(int, 0), default=17)
    _add_output_flags(p_sweep)

    p_szi = commands.add_parser("szilard", help="single-particle engine ledger")
    p_szi.add_argument("--cycles", type=_above(int, 0, MAX_CYCLES), default=1)
    p_szi.add_argument("--skip-reset", action="store_true")
    _add_output_flags(p_szi, sampling=True)

    p_ctc = commands.add_parser("ctc", help="closed-timelike-curve fixed points")
    ctc_sub = p_ctc.add_subparsers(dest="ctc_command", required=True)
    p_dist = ctc_sub.add_parser("distinguish", help="tell |0> from |-> in one shot")
    _add_label_source(p_dist, ("0", "-"))
    _add_output_flags(p_dist)
    p_bb84 = ctc_sub.add_parser("bb84", help="identify all four conjugate-basis states")
    _add_label_source(p_bb84, ctc.STATE_LABELS)
    _add_output_flags(p_bb84)
    p_solve = ctc_sub.add_parser("solve", help="fixed point of a saved interaction")
    p_solve.add_argument("--unitary", required=True, metavar="FILE")
    p_solve.add_argument("--system-state", choices=ctc.STATE_LABELS)
    p_solve.add_argument("--tol", type=_above(float, 0), default=SOLVE_TOL)
    _add_output_flags(p_solve)
    p_grand = ctc_sub.add_parser("grandfather", help="bit flip fed back on itself")
    _add_output_flags(p_grand)

    p_audit = commands.add_parser(
        "audit-locality", help="per-gate support check of the Heisenberg engine"
    )
    p_audit.add_argument("--circuit", required=True, metavar="FILE")
    _add_output_flags(p_audit)

    return top


# Built once: parsing leaves the parser as it was, and rebuilding the whole
# tree took longer than most invocations' own work.
_PARSER = build_parser()


def parse(argv: Sequence[str]) -> argparse.Namespace:
    """argparse's namespace for ``argv``, with ``command`` naming the handler
    (``ctc bb84`` becomes ``ctc-bb84``, ``epr sweep`` becomes ``epr-sweep``)."""
    args = list(argv)
    if args[:2] == ["epr", "sweep"]:
        args = ["epr-sweep"] + args[2:]
    ns = _PARSER.parse_args(args)
    if ns.command == "ctc":
        ns.command = "ctc-" + vars(ns).pop("ctc_command")
    if ns.command == "epr":
        missing = [
            flag
            for flag, value in (("--theta", ns.theta), ("--phi", ns.phi))
            if value is None
        ]
        if missing:
            raise UsageError(
                f"the following arguments are required: {', '.join(missing)}"
            )
        for flag, value in (("--theta", ns.theta), ("--phi", ns.phi)):
            if not math.isfinite(value):
                raise UsageError(f"argument {flag}: must be finite")
    if ns.command == "epr-sweep" and ns.theta_steps * ns.phi_steps > MAX_SWEEP_POINTS:
        raise UsageError(
            f"--theta-steps x --phi-steps is {ns.theta_steps * ns.phi_steps} grid points,"
            f" above the limit of {MAX_SWEEP_POINTS}"
        )
    return ns


def _round_float(value: float, sig: int = _JSON_SIG) -> float:
    value = float(value)
    if not math.isfinite(value):
        return value
    if abs(value) < _DISPLAY_FLOOR:
        return 0.0
    return float(f"{value:.{sig}g}")


def _cell(value, sig: int) -> str:
    # One format, no round trip: a decimal of at most 15 significant digits
    # reads back as a float that formats to the same digits.
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "0" if abs(value) < _DISPLAY_FLOOR else f"{value:.{sig}g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return " ".join([_cell(v, sig) for v in value])
    return str(value)


# json's spelling of the three floats that have no JSON literal.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_string = json.encoder.encode_basestring_ascii


def _write_json(value, newline: str, parts: List[str]) -> None:
    """Append ``value``'s JSON text to ``parts``, rounding each float as it
    goes; ``newline`` is the line break and indent of ``value``'s own line."""
    if isinstance(value, (float, np.floating)):
        text = repr(_round_float(value))
        parts.append(_JSON_NON_FINITE.get(text, text))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # Keys are read as str first, so keys that collide merge as a dict would.
        for key, item in {str(k): v for k, v in value.items()}.items():
            parts.append(sep + _json_string(key) + ": ")
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(value, str):
        parts.append(_json_string(value))
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif value is None:
        parts.append("null")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render_json(payload) -> str:
    """``json.dumps(payload, indent=2)`` of the payload with every float
    rounded to nine significant digits, in one pass."""
    parts: List[str] = []
    _write_json(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _render_table(headers: Sequence[str], rows: Sequence[Row]) -> str:
    grid = [list(headers)] + [
        [_cell(v, _TABLE_SIG) for v in row] for row in rows
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(len(headers))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
        for line in grid
    ]
    return "\n".join(lines) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Row]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v, _JSON_SIG) for v in row])
    return buffer.getvalue()


def _render(inv: argparse.Namespace, payload, headers, rows) -> str:
    if inv.format == "json":
        return _render_json(payload)
    if inv.format == "csv":
        return _render_csv(headers, rows)
    return _render_table(headers, rows)


def _read_label(inv: argparse.Namespace, allowed: Sequence[str]) -> str:
    if inv.prompt:
        label = sys.stdin.readline().strip()
        if label not in allowed:
            raise UsageError(
                f"prompt input {label!r} is not one of {', '.join(allowed)}"
            )
        return label
    return inv.input


def _cmd_epr(inv: argparse.Namespace):
    cfg = epr.EprConfig(inv.theta, inv.phi)
    report = epr.info_flow_report(cfg)
    payload = {
        "theta": report.theta,
        "phi": report.phi,
        "p_check_one": report.p_check_one,
        "correlation": report.correlation,
        "dependence": report.dependence,
        "shots": inv.shots,
        "seed": inv.seed,
    }
    rows: List[Row] = [
        ("theta", report.theta),
        ("phi", report.phi),
        ("p_check_one", report.p_check_one),
        ("correlation", report.correlation),
    ]
    for who, angles in report.dependence.items():
        for angle, depends in angles.items():
            rows.append((f"dependence.{who}.{angle}", depends))
    rows.append(("shots", inv.shots))
    rows.append(("seed", inv.seed))
    if inv.shots > 0:
        counts = sample(report.run, inv.shots, inv.seed)
        payload["counts"] = counts
        for key in sorted(counts):
            rows.append((f"counts[{key}]", counts[key]))
    return payload, ("field", "value"), rows, 0


def _cmd_epr_sweep(inv: argparse.Namespace):
    thetas = np.linspace(-math.pi, math.pi, inv.theta_steps)
    phis = np.linspace(-math.pi, math.pi, inv.phi_steps)
    points = epr.sweep(thetas, phis)
    payload = {
        "rows": [
            {"theta": pt.theta, "phi": pt.phi, "p_check_one": pt.p_check_one}
            for pt in points
        ]
    }
    rows = [(pt.theta, pt.phi, pt.p_check_one) for pt in points]
    return payload, ("theta", "phi", "p_check_one"), rows, 0


def _cmd_szilard(inv: argparse.Namespace):
    cfg = szilard.SzilardConfig(cycles=inv.cycles, skip_reset=inv.skip_reset)
    records = szilard.run_cycles(cfg, shots=inv.shots, seed=inv.seed)
    headers = tuple(f.name for f in fields(szilard.CycleRecord))
    payload = [{name: getattr(rec, name) for name in headers} for rec in records]
    rows = [tuple(doc.values()) for doc in payload]
    return payload, headers, rows, 0


def _ctc_report(problem: ctc.CtcProblem, tol: float = SOLVE_TOL):
    """Solve ``problem``'s loop and read out every system qubit, lowest first."""
    result = ctc.run_ctc_circuit(problem, tol=tol)
    sol = result.solution
    payload = {
        "distribution": dict(result.distribution),
        "fixed_point": matrix_to_entries(sol.rho_loop.mat),
        "residual": sol.residual,
        "iterations": sol.iterations,
    }
    rows: List[Row] = [
        (f"p[{key}]", value) for key, value in sorted(result.distribution.items())
    ]
    rows.append(("residual", sol.residual))
    rows.append(("iterations", sol.iterations))
    dim = sol.rho_loop.mat.shape[0]
    for (i, j), entry in zip(np.ndindex(dim, dim), payload["fixed_point"]):
        rows.append((f"fixed_point[{i}][{j}]", tuple(entry)))
    return payload, ("field", "value"), rows, 0


def _cmd_ctc_distinguish(inv: argparse.Namespace):
    return _ctc_report(ctc.distinguisher_problem(_read_label(inv, ("0", "-"))))


def _cmd_ctc_bb84(inv: argparse.Namespace):
    return _ctc_report(ctc.bb84_problem(_read_label(inv, ctc.STATE_LABELS)))


@contextmanager
def _input_file(flag: str):
    """Report a failure to read ``flag``'s file, or to build from it, as a
    usage error; a file nested too deeply to parse is one of them."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, RecursionError, ParadoxLabError) as exc:
        raise UsageError(f"{flag}: {exc}")


def _cmd_ctc_solve(inv: argparse.Namespace):
    system = None if inv.system_state is None else ctc.state_from_label(inv.system_state)
    with _input_file("--unitary"):
        problem = ctc.CtcProblem(load_unitary(inv.unitary), system)
    return _ctc_report(problem, inv.tol)


def _cmd_ctc_grandfather(inv: argparse.Namespace):
    return _ctc_report(ctc.grandfather_problem())


def _cmd_audit(inv: argparse.Namespace):
    with _input_file("--circuit"):
        doc = json.loads(Path(inv.circuit).read_text())
    # Counted before any instruction is built; an "instructions" value that
    # is not a list is left for from_dict to refuse.
    listed = doc.get("instructions", []) if isinstance(doc, dict) else []
    if isinstance(listed, list) and len(listed) > MAX_AUDIT_INSTRUCTIONS:
        raise UsageError(
            f"--circuit: {len(listed)} instructions,"
            f" above the limit of {MAX_AUDIT_INSTRUCTIONS}"
        )
    with _input_file("--circuit"):
        report = locality_audit(Circuit.from_dict(doc))
    steps = [
        {"instr": s.instr, "max_offsupport_delta": s.max_offsupport_delta, "pass": s.ok}
        for s in report.steps
    ]
    payload = {"steps": steps, "overall": report.overall}
    rows: List[Row] = [tuple(step.values()) for step in steps]
    rows.append(("overall", None, report.overall))
    headers = ("instr", "max_offsupport_delta", "pass")
    return payload, headers, rows, 0 if report.overall else 1


_HANDLERS = {
    "epr": _cmd_epr,
    "epr-sweep": _cmd_epr_sweep,
    "szilard": _cmd_szilard,
    "ctc-distinguish": _cmd_ctc_distinguish,
    "ctc-bb84": _cmd_ctc_bb84,
    "ctc-solve": _cmd_ctc_solve,
    "ctc-grandfather": _cmd_ctc_grandfather,
    "audit-locality": _cmd_audit,
}


def execute(inv: argparse.Namespace) -> Tuple[str, int]:
    """Run one parsed invocation; returns rendered text and an exit code."""
    payload, headers, rows, code = _HANDLERS[inv.command](inv)
    return _render(inv, payload, headers, rows), code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        text, code = execute(parse(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ParadoxLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
