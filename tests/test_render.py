"""The CLI's one-pass writers give the same text as the two-step reference:
round the payload (``oracle.json_ready``), then ``json.dumps(..., indent=2)``;
round a cell's float, then format it. JSON's float rule, which formats once,
gives the text of that round trip. The column-wise table and CSV give the
same text as the row-wise ones of ``oracle``, and the table rows a command
hands to JSON (``_Records``), written one column at a time, give the same
JSON as the list of one dict per row that they stand for. So do the ``ctc``
reports, whose fixed point's [re, im] pairs are written in bulk."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from paradoxlab import cli
from paradoxlab.cli import (
    _cell,
    _json_float,
    _Pairs,
    _Records,
    _render_csv,
    _render_json,
    _render_table,
)

FLOOR = 1e-12
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    FLOOR, -FLOOR, math.nextafter(FLOOR, 0.0), -math.nextafter(FLOOR, 0.0), 1e-13, -1e-13,
    1e16, -1e16, 1e17, 123456789.0, 999999.5, 0.99999995, 5e-324,
    np.float64(0.1), np.float64(-2.5e-13), np.float32(0.1), np.float32(1e-12), np.float32(-7.3e16),
]
EDGE_VALUES = EDGE_FLOATS + [
    np.int64(-3), np.int64(2 ** 62), np.bool_(True), np.bool_(False), True, False, 0, None,
    {}, [], (), "", "café ☃ \U0001d11e  ", "tab\t \"quote\" back\\slash \x00\x1f\x7f",
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key", np.int64(7): "np key"},
    {1: "first", "1": "collides with the int key"},
]
UNSERIALIZABLE = [1j, np.zeros(2), {1, 2}, b"bytes"]
CHARS = "az09 \t\n\"\\/\x00\x1f\x7fé☃ \U0001d11e"


def random_float(rng):
    if rng.random() < 0.1:
        return EDGE_FLOATS[rng.integers(len(EDGE_FLOATS))]
    value = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-15, 17))
    if rng.random() < 0.2:
        value = round(value, int(rng.integers(0, 12)))
    return (float, np.float64, np.float32)[rng.integers(3)](value)


def random_scalar(rng):
    kind = rng.integers(10)
    if kind < 5:
        return random_float(rng)
    if kind == 5:
        return (int, np.int64)[rng.integers(2)](rng.integers(-2 ** 62, 2 ** 62))
    if kind == 6:
        return (bool, np.bool_)[rng.integers(2)](rng.random() < 0.5)
    if kind == 7:
        return None
    return "".join(rng.choice(list(CHARS), size=rng.integers(0, 6)))


def random_key(rng):
    key = random_scalar(rng)
    return key if rng.random() < 0.8 or isinstance(key, str) else str(key)


def random_payload(rng, depth=0):
    kind = rng.integers(4) if depth < 4 else 3
    size = rng.integers(0, 5)
    if kind == 0:
        return {random_key(rng): random_payload(rng, depth + 1) for _ in range(size)}
    if kind == 1:
        return [random_payload(rng, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(random_payload(rng, depth + 1) for _ in range(size))
    return random_scalar(rng)


def reference_json(payload):
    return json.dumps(oracle.json_ready(payload), indent=2) + "\n"


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_json_edge_values_match_the_stdlib(value):
    for payload in (value, [value], {"k": value}, {"rows": [{"v": value}, (value, value)]}):
        assert _render_json(payload) == reference_json(payload)


def test_json_random_payloads_match_the_stdlib():
    rng = np.random.default_rng(20261020)
    for _ in range(5000):
        payload = random_payload(rng)
        assert _render_json(payload) == reference_json(payload), payload


@pytest.mark.parametrize("value", UNSERIALIZABLE, ids=repr)
def test_json_refuses_what_the_stdlib_refuses(value):
    with pytest.raises(TypeError):
        reference_json({"k": [value]})
    with pytest.raises(TypeError):
        _render_json({"k": [value]})


@pytest.mark.parametrize("sig", [6, 9])
def test_cell_formats_once_as_the_rounded_float(sig):
    rng = np.random.default_rng(sig)
    magnitudes = 10 ** rng.uniform(-15, 17, size=100_000)
    values = (magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size)).tolist()
    for value in values + EDGE_FLOATS:
        assert _cell(value, sig) == f"{oracle.round_float(value, sig):.{sig}g}", value


# Keys that json escapes, and braces, which the records path's line template
# must keep as text.
KEYS = ["theta", "p", "a b", "{}", "{0}", "}{", "q\"uote", "é☃", "", "x,y"]


def random_cell(rng):
    kind = rng.integers(6)
    if kind < 3:
        return random_float(rng)
    if kind == 3:
        return "".join(rng.choice(list(CHARS + ","), size=rng.integers(0, 6)))
    if kind == 4:
        return (None, 0, True, np.int64(-7), "a,b", 'q"t')[rng.integers(6)]
    return random_scalar(rng)


def random_table(rng):
    width = int(rng.integers(1, 6))
    headers = tuple("".join(rng.choice(list("ab, _"), size=rng.integers(0, 8))) for _ in range(width))
    # A column is all plain floats, all numpy floats, or mixed.
    kinds = rng.integers(3, size=width)
    rows = []
    for _ in range(rng.integers(0, 30)):
        row = []
        for kind in kinds:
            if kind == 2:
                row.append(random_cell(rng))
            else:
                row.append((float, np.float64)[kind](random_float(rng)))
        rows.append(tuple(row))
    return headers, rows


@pytest.mark.parametrize("value", EDGE_FLOATS, ids=repr)
def test_table_and_csv_edge_cells_match_the_row_wise_reference(value):
    headers, rows = ("field", "value"), [("x", value), ("y", "a, b"), ("z", None)]
    assert _render_table(headers, rows) == oracle.render_table(headers, rows)
    assert _render_csv(headers, rows) == oracle.render_csv(headers, rows)


def test_table_and_csv_random_grids_match_the_row_wise_reference():
    rng = np.random.default_rng(41)
    for _ in range(800):
        headers, rows = random_table(rng)
        assert _render_table(headers, rows) == oracle.render_table(headers, rows), (headers, rows)
        assert _render_csv(headers, rows) == oracle.render_csv(headers, rows), (headers, rows)


def random_record_value(rng):
    kind = rng.integers(8)
    if kind < 4:
        return random_float(rng)
    if kind == 4:
        return EDGE_FLOATS[rng.integers(len(EDGE_FLOATS))]
    if kind == 5:
        return random_payload(rng, depth=2)
    return random_scalar(rng)


def random_records(rng):
    """Distinct keys and zero or more rows of one value per key."""
    keys = tuple(str(k) for k in rng.choice(KEYS, size=rng.integers(1, 5), replace=False))
    rows = [tuple(random_record_value(rng) for _ in keys) for _ in range(rng.integers(0, 41))]
    return keys, rows


def reference_records(keys, rows):
    return [dict(zip(keys, row)) for row in rows]


@pytest.fixture
def records_calls(monkeypatch):
    """The keys of each call to the records path."""
    calls = []
    real = cli._json_records

    def spy(records, newline):
        calls.append(records.keys)
        return real(records, newline)

    monkeypatch.setattr(cli, "_json_records", spy)
    return calls


def test_json_random_records_match_the_stdlib(records_calls):
    rng = np.random.default_rng(4141)
    sizes = set()
    for _ in range(400):
        keys, rows = random_records(rng)
        sizes.add(min(len(rows), 2))
        want = reference_records(keys, rows)
        for payload, reference in (
            (_Records(keys, rows), want),
            ({"rows": _Records(keys, rows)}, {"rows": want}),
        ):
            records_calls.clear()
            assert _render_json(payload) == reference_json(reference), (keys, rows)
            assert records_calls == [keys]
    # Zero rows, one row and several rows were all drawn.
    assert sizes == {0, 1, 2}


@pytest.mark.parametrize("value", UNSERIALIZABLE, ids=repr)
def test_json_records_refuse_what_the_stdlib_refuses(value, records_calls):
    keys, rows = ("a", "b"), [(1.5, None), (2.5, [value])]
    with pytest.raises(TypeError):
        reference_json(reference_records(keys, rows))
    with pytest.raises(TypeError):
        _render_json(_Records(keys, rows))
    assert records_calls == [keys]


# Where the nine-digit rule's notation turns: rounding that carries into a
# new exponent (999999999.5 becomes 1e9, 0.00009999999995 becomes 1e-4), the
# last exponents repr writes positionally (1e15) and the first it does not
# (1e16), the largest floats, and the display floor and its neighbours.
NOTATION_EDGES = [
    999999999.5, -999999999.5, 9999999999999999.0, 1e15, -1e15, 1e16, -1e16,
    999999999999999.9, 123456789012345.0, 1.5e9, -2.5e14,
    0.0001, -0.0001, 0.00009999999995, 0.0000999999999,
    1.7976931348623157e308, -1.7976931348623157e308,
    -0.0, 0.0, math.nan, math.inf, -math.inf,
    FLOOR, -FLOOR, math.nextafter(FLOOR, 0.0), math.nextafter(FLOOR, 1.0),
    -math.nextafter(FLOOR, 0.0), -math.nextafter(FLOOR, 1.0),
]


def powers_of_ten():
    """Each power of ten from 1e-13 to 1e17, its neighbours, and the value
    just below it that rounds up to it at nine digits, with both signs."""
    for k in range(-13, 18):
        power = 10.0 ** k
        for value in (power, math.nextafter(power, 0.0), math.nextafter(power, math.inf),
                      power * (1 - 4e-10), power * (1 - 6e-10)):
            yield value
            yield -value


@pytest.mark.parametrize("value", NOTATION_EDGES + [float(v) for v in EDGE_FLOATS], ids=repr)
def test_json_float_writes_the_round_trip_at_the_notation_edges(value):
    assert _json_float(value) == oracle.json_float(value)


def test_json_float_writes_the_round_trip_of_random_floats():
    rng = np.random.default_rng(44)
    # Every bit pattern of a float, NaNs, infinities and subnormals included.
    bits = np.frombuffer(rng.bytes(8 * 200_000), dtype=np.float64).tolist()
    # Magnitudes spread over every notation the rule writes.
    spread = (rng.choice([-1.0, 1.0], 100_000) * 10 ** rng.uniform(-14, 18, 100_000)).tolist()
    for value in bits + spread + list(powers_of_ten()):
        assert _json_float(value) == oracle.json_float(value), repr(value)


def random_pairs(rng, count):
    """``count`` [re, im] pairs of plain floats, edge values among them."""
    return [[float(random_float(rng)), float(random_float(rng))] for _ in range(count)]


def test_json_pairs_match_the_stdlib_at_every_nesting():
    rng = np.random.default_rng(4242)
    for d in range(1, 33):
        entries = random_pairs(rng, d * d)
        for wrap in (lambda x: x, lambda x: {"fixed_point": x}, lambda x: [{"a": [x, 1]}]):
            assert _render_json(wrap(_Pairs(entries))) == reference_json(wrap(entries)), d
    assert _render_json({"fixed_point": _Pairs([])}) == reference_json({"fixed_point": []})


def loop_result(rng, d):
    """A stand-in for ``ctc.run_ctc_circuit``'s result: a d x d "fixed point"
    of random and edge parts, a readout and the solver's two counts."""
    parts = np.array([float(random_float(rng)) for _ in range(2 * d * d)])
    mat = parts.view(complex).reshape(d, d)
    distribution = {format(k, "b"): float(random_float(rng)) for k in range(rng.integers(0, 3))}
    solution = SimpleNamespace(rho_loop=SimpleNamespace(mat=mat), residual=float(random_float(rng)),
                               iterations=int(rng.integers(0, 500)))
    return SimpleNamespace(distribution=distribution, solution=solution)


def reference_report(result):
    """A ``ctc`` report's payload and rows as written one value at a time:
    each fixed-point entry a [re, im] list in JSON and a (re, im) cell."""
    sol = result.solution
    entries = oracle.matrix_entries(sol.rho_loop.mat)
    payload = {
        "distribution": dict(result.distribution),
        "fixed_point": entries,
        "residual": sol.residual,
        "iterations": sol.iterations,
    }
    d = len(sol.rho_loop.mat)
    rows = [(f"p[{key}]", value) for key, value in sorted(result.distribution.items())]
    rows += [("residual", sol.residual), ("iterations", sol.iterations)]
    rows += [(f"fixed_point[{k // d}][{k % d}]", tuple(entry)) for k, entry in enumerate(entries)]
    return payload, rows


def test_ctc_reports_match_the_value_at_a_time_reference(monkeypatch):
    rng = np.random.default_rng(4343)
    for d in range(1, 33):
        result = loop_result(rng, d)
        monkeypatch.setattr(cli.ctc, "run_ctc_circuit", lambda problem, tol: result)
        payload, headers, rows, code = cli._ctc_report(None)
        want_payload, want_rows = reference_report(result)
        want = {
            "json": reference_json(want_payload),
            "table": oracle.render_table(headers, want_rows),
            "csv": oracle.render_csv(headers, want_rows),
        }
        for fmt, text in want.items():
            assert cli._render(SimpleNamespace(format=fmt), payload, headers, rows) == text, (fmt, d)
        assert code == 0
