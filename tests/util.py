"""Shared generators and probes for tests (not oracles)."""

import numpy as np

from paradoxlab import circuit, qmath
from paradoxlab.circuit import Circuit, make_gate

ONE_QUBIT = ("H", "X", "Y", "Z", "I", "RX")
TWO_QUBIT = ("CNOT", "SWAP", "CH")


def random_unitary_circuit(n, depth, rng) -> Circuit:
    c = Circuit(n)
    for _ in range(depth):
        roll = rng.random()
        if n >= 3 and roll < 0.1:
            a, b, t = rng.choice(n, size=3, replace=False)
            c.ccx(int(a), int(b), int(t))
        elif n >= 2 and roll < 0.45:
            kind = TWO_QUBIT[int(rng.integers(len(TWO_QUBIT)))]
            a, b = rng.choice(n, size=2, replace=False)
            c.append_gate(make_gate(kind), [int(a), int(b)])
        else:
            kind = ONE_QUBIT[int(rng.integers(len(ONE_QUBIT)))]
            theta = float(rng.uniform(-np.pi, np.pi)) if kind == "RX" else None
            q = int(rng.integers(n))
            c.append_gate(make_gate(kind, theta), [q])
    return c


# Circuit appends (each runs ``circuit.validate``) and unitarity checks.
BUILDS = ((circuit, "validate"), (qmath, "is_unitary"))


def count_calls(monkeypatch, targets) -> dict:
    """Count, from now on, the calls to each ``(module, name)`` of ``targets``,
    keyed by name. A name given for two modules (its own, and one that imported
    it by name) counts into one total."""
    counted = dict.fromkeys((name for _, name in targets), 0)
    for module, name in targets:

        def counting(*args, _name=name, _real=getattr(module, name)):
            counted[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counting)
    return counted
