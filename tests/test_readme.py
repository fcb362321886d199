"""README's Library tour runs and shows what its comments say.

Each line of the tour's python block that ends in ``# <literal>`` is an
expression whose value must equal that literal, floats to 1e-12. The
other lines run as statements, in order, in one namespace.
"""

from __future__ import annotations

import ast
import io
import numbers
import pathlib
import re
import tokenize

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def tour_lines() -> list:
    """(code, the literal its comment shows or None) per line of the tour that holds code."""
    section = README.read_text().split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    lines = []
    for line in block.splitlines():
        tokens = tokenize.generate_tokens(io.StringIO(line).readline)
        comment = next((t for t in tokens if t.type == tokenize.COMMENT), None)
        code = line[: comment.start[1]] if comment else line
        if code.strip():
            lines.append((code, comment.string[1:].strip() if comment else None))
    return lines


def same(got, want) -> bool:
    if isinstance(want, float):
        real = isinstance(got, numbers.Real) and not isinstance(got, bool)
        return real and abs(got - want) <= 1e-12
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, type(want))
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], w) for k, w in want.items())
        )
    return got == want


def test_same_compares_floats_to_1e_12():
    assert same([1.0, {"a": True}], [1.0 + 1e-13, {"a": True}])
    assert not same([1.0], [1.0 + 1e-11])
    assert not same({"a": 1.0}, {"b": 1.0})
    assert not same(True, 1.0)


def test_library_tour_shows_what_it_says():
    namespace: dict = {}
    checked = 0
    for code, literal in tour_lines():
        if literal is None:
            exec(code, namespace)
            continue
        got = eval(code, namespace)
        assert same(got, ast.literal_eval(literal)), f"{code.strip()} gives {got!r}, not {literal}"
        checked += 1
    assert checked, "the tour shows no value to check"
