"""The CLI's one-pass writers give the same text as the two-step reference:
round the payload (``oracle.json_ready``), then ``json.dumps(..., indent=2)``;
round a cell's float, then format it."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import oracle
from paradoxlab.cli import _cell, _render_json

FLOOR = 1e-12
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0,
    FLOOR, -FLOOR, math.nextafter(FLOOR, 0.0), -math.nextafter(FLOOR, 0.0),
    1e16, -1e16, 1e17, 123456789.0, 999999.5, 0.99999995, 5e-324,
    np.float64(0.1), np.float64(-2.5e-13), np.float32(0.1), np.float32(1e-12), np.float32(-7.3e16),
]
EDGE_VALUES = EDGE_FLOATS + [
    np.int64(-3), np.int64(2 ** 62), np.bool_(True), np.bool_(False), True, False, 0, None,
    {}, [], (), "", "café ☃ \U0001d11e  ", "tab\t \"quote\" back\\slash \x00\x1f\x7f",
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key", np.int64(7): "np key"},
    {1: "first", "1": "collides with the int key"},
]
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


@pytest.mark.parametrize("value", [1j, np.zeros(2), {1, 2}, b"bytes"], ids=repr)
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
