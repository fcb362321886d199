"""Gate library, circuit IR of unitaries and measurements, and its runners.

The density runner branches the state on each measurement and accumulates
the exact joint outcome distribution, never sampling it. Sampling is a
separate seeded post-process over that distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadParams,
    BadTargets,
    InvalidCircuit,
    NonUnitaryInstruction,
    NotAPermutation,
    UnknownKind,
)
from . import qmath
from .qmath import DensityMatrix


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary, checked once when built and kept as a read-only complex copy."""

    kind: str
    matrix: np.ndarray
    theta: Optional[float] = None

    def __post_init__(self):
        m = qmath._unitary(self.matrix, f"{self.kind} matrix")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1


_SQ2 = 1 / math.sqrt(2)

_ch = np.eye(4)
_ch[1, 1] = _ch[1, 3] = _ch[3, 1] = _SQ2
_ch[3, 3] = -_SQ2

# The fixed kinds, built and checked once at import and shared read-only.
# Multi-qubit gates index their local basis little-endian over the target
# list: targets[0] carries local bit 0. Controls come first in the list.
# np.eye(d)[:, perm] is the permutation gate taking basis state j to perm[j].
_LIBRARY = {
    g.kind: g
    for g in (
        Gate("I", np.eye(2)),
        Gate("X", [[0, 1], [1, 0]]),
        Gate("Y", [[0, -1j], [1j, 0]]),
        Gate("Z", [[1, 0], [0, -1]]),
        Gate("H", [[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
        Gate("CNOT", np.eye(4)[:, [0, 3, 2, 1]]),
        Gate("SWAP", np.eye(4)[:, [0, 2, 1, 3]]),
        Gate("CCX", np.eye(8)[:, [0, 1, 2, 7, 4, 5, 6, 3]]),
        Gate("CH", _ch),
    )
}


def make_gate(kind: str, theta: Optional[float] = None) -> Gate:
    """The shared library gate ``kind``; RX, the one parameterized kind, is built per call.

    ``theta``, when given, must be a finite real (numpy's and ``Fraction`` too), never a bool.
    """
    if theta is not None:
        real = qmath._real(theta)
        if not math.isfinite(real):
            raise BadParams(f"theta {theta!r} is not a finite number")
        theta = real
    if kind == "RX":
        if theta is None:
            raise BadParams("RX needs an angle")
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return Gate("RX", [[c, -1j * s], [-1j * s, c]], theta)
    if kind not in _LIBRARY:
        raise UnknownKind(f"no gate kind {kind!r}")
    if theta is not None:
        raise BadParams(f"{kind} takes no angle")
    return _LIBRARY[kind]


# Each op, and the field that must carry its payload.
_PAYLOAD = {"unitary": "gate", "measure": "clbit"}


@dataclass(frozen=True)
class Instruction:
    """One circuit step: a unitary gate on its targets, or a measurement of one
    qubit into a clbit."""

    op: str
    targets: tuple
    gate: Optional[Gate] = None
    clbit: Optional[int] = None

    def __post_init__(self):
        # Checks that need no circuit; target and clbit ranges depend on the
        # register and are checked by validate as the instruction is appended.
        if not isinstance(self.op, str) or self.op not in _PAYLOAD:
            raise UnknownKind(f"no instruction op {self.op!r}")
        payload = _PAYLOAD[self.op]
        if getattr(self, payload) is None:
            raise BadParams(f"{self.op} instruction has no {payload}")
        targets = tuple(qmath._whole(t, "target") for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if self.clbit is not None:
            object.__setattr__(self, "clbit", qmath._whole(self.clbit, "clbit"))
        if len(set(targets)) != len(targets):
            raise BadTargets(f"repeated target in {targets}")
        if self.op == "unitary" and len(targets) != self.gate.arity:
            raise BadTargets(
                f"{self.gate.kind} expects {self.gate.arity} targets, got {len(targets)}"
            )


class Circuit:
    """Instructions over a fixed register, each checked by ``validate`` as it is
    appended (those passed in too), so a built circuit is runnable as it stands.
    The register sizes and ``instructions`` are read-only."""

    def __init__(self, n_qubits: int, n_clbits: int = 0, instructions: Iterable = ()):
        self._n_qubits = qmath._whole(n_qubits, "n_qubits")
        self._n_clbits = qmath._whole(n_clbits, "n_clbits")
        if self._n_qubits < 1:
            raise InvalidCircuit("circuit needs at least one qubit")
        qmath._register(self._n_qubits)
        if self._n_clbits < 0:
            raise InvalidCircuit("circuit needs a non-negative clbit count")
        self._instructions = []
        self._written = set()  # clbits an appended instruction writes
        for instr in instructions:
            self._append(instr)

    @property
    def n_qubits(self) -> int:
        return self._n_qubits

    @property
    def n_clbits(self) -> int:
        return self._n_clbits

    @property
    def instructions(self) -> tuple:
        return tuple(self._instructions)

    # -- builder helpers ----------------------------------------------------

    def _append(self, instr: Instruction) -> "Circuit":
        problems = validate(self, instr)
        if problems:
            raise BadTargets(problems[0])
        self._instructions.append(instr)
        if instr.clbit is not None:
            self._written.add(instr.clbit)
        return self

    def append_gate(self, gate: Gate, targets: Sequence[int]) -> "Circuit":
        return self._append(Instruction("unitary", targets, gate=gate))

    def h(self, q):
        return self.append_gate(make_gate("H"), [q])

    def x(self, q):
        return self.append_gate(make_gate("X"), [q])

    def y(self, q):
        return self.append_gate(make_gate("Y"), [q])

    def z(self, q):
        return self.append_gate(make_gate("Z"), [q])

    def i(self, q):
        return self.append_gate(make_gate("I"), [q])

    def rx(self, theta, q):
        return self.append_gate(make_gate("RX", theta), [q])

    def cx(self, control, target):
        return self.append_gate(make_gate("CNOT"), [control, target])

    def swap(self, a, b):
        return self.append_gate(make_gate("SWAP"), [a, b])

    def ch(self, control, target):
        return self.append_gate(make_gate("CH"), [control, target])

    def ccx(self, c1, c2, target):
        return self.append_gate(make_gate("CCX"), [c1, c2, target])

    def measure(self, q, clbit) -> "Circuit":
        return self._append(Instruction("measure", (q,), clbit=clbit))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_dict(self) -> dict:
        out = []
        for instr in self.instructions:
            if instr.op == "unitary":
                doc = {"op": "unitary", "kind": instr.gate.kind}
                if instr.gate.theta is not None:
                    doc["theta"] = instr.gate.theta
                doc["targets"] = list(instr.targets)
                out.append(doc)
            else:
                out.append({"op": "measure", "target": instr.targets[0], "clbit": instr.clbit})
        return {"n_qubits": self.n_qubits, "n_clbits": self.n_clbits, "instructions": out}

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "Circuit":
        c = cls(doc["n_qubits"], doc.get("n_clbits", 0))
        for item in doc.get("instructions", []):
            op = item["op"]
            if op == "unitary":
                gate = make_gate(item["kind"], item.get("theta"))
                c.append_gate(gate, item["targets"])
            elif op == "measure":
                c.measure(item["target"], item["clbit"])
            else:
                raise UnknownKind(f"no instruction op {op!r}")
        return c


def validate(c: Circuit, instr: Instruction) -> list:
    """Problems with appending ``instr`` to ``c``; empty means it may be appended."""
    problems = [
        f"target {t} outside register of {c.n_qubits} qubits"
        for t in instr.targets
        if not 0 <= t < c.n_qubits
    ]
    if instr.clbit is not None and not 0 <= instr.clbit < c.n_clbits:
        problems.append(f"clbit {instr.clbit} outside register of {c.n_clbits} bits")
    elif instr.clbit in c._written:
        problems.append(f"instruction {len(c._instructions)}: clbit {instr.clbit} written twice")
    return problems


# -- backends ----------------------------------------------------------------


_PROJ = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
)


def apply_instruction(mat: np.ndarray, instr: Instruction) -> np.ndarray:
    """Apply a unitary instruction to an unvalidated density-matrix array."""
    if instr.op == "unitary":
        return qmath._conjugate(instr.gate.matrix, mat, instr.targets)
    raise NonUnitaryInstruction("measurement must be handled by the branch runner")


@dataclass
class RunResult:
    """Exact joint outcome distribution plus the ensemble-averaged state."""

    distribution: dict
    final_state: DensityMatrix


def run_density(c: Circuit, initial: Optional[DensityMatrix] = None) -> RunResult:
    """Exact density evolution; measurements branch on the joint outcomes."""
    n = c.n_qubits
    if initial is None:
        initial = qmath.basis_state(n, 0)
    qmath._require_state(initial, "initial state")
    if initial.n != n:
        raise BadTargets(f"initial state has {initial.n} qubits, circuit has {n}")
    # Branch states are plain arrays; only the returned state is validated.
    branches = [(1.0, initial.mat, (0,) * c.n_clbits)]
    for instr in c.instructions:
        if instr.op != "measure":
            branches = [(w, apply_instruction(mat, instr), bits) for w, mat, bits in branches]
            continue
        new_branches = []
        for w, mat, bits in branches:
            for outcome in (0, 1):
                unnorm = qmath._conjugate(_PROJ[outcome], mat, instr.targets)
                p = float(np.trace(unnorm).real)
                if w * p <= qmath.BRANCH_FLOOR:
                    continue
                new_bits = list(bits)
                new_bits[instr.clbit] = outcome
                new_branches.append((w * p, unnorm / p, tuple(new_bits)))
        branches = new_branches
    distribution = {}
    for w, _, bits in branches:
        key = "".join(str(b) for b in bits)
        distribution[key] = distribution.get(key, 0.0) + w
    total = sum(w for w, _, _ in branches)
    mixed = sum(w * mat for w, mat, _ in branches) / total
    return RunResult(distribution, DensityMatrix(mixed))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full-register matrix of a unitary-only circuit, in time order."""
    u = np.eye(2 ** c.n_qubits, dtype=complex)
    for instr in c.instructions:
        if instr.op != "unitary":
            raise NonUnitaryInstruction(f"circuit contains {instr.op!r}")
        u = qmath._apply_op(instr.gate.matrix, u, instr.targets)
    return u


def basis_permutation(c: Circuit) -> np.ndarray:
    """Read-only source rows ``src`` of a unitary-only circuit that permutes the basis states.

    The circuit's unitary U must be exactly a 0/1 permutation matrix: row a
    holds one nonzero entry, a 1 in column ``src[a]``, and every column is
    hit once. Then (U psi)[a] = psi[src[a]], so ``psi[src]`` applies U to
    the rows of ``psi`` by indexing alone, with no arithmetic.
    """
    u = circuit_unitary(c)
    rows, src = np.nonzero(u)
    dim = u.shape[0]
    one_per_row = np.array_equal(rows, np.arange(dim)) and bool((u[rows, src] == 1).all())
    if not (one_per_row and np.array_equal(np.sort(src), np.arange(dim))):
        raise NotAPermutation("the circuit's unitary is not a permutation of the basis states")
    src.setflags(write=False)
    return src


def sample(result: RunResult, shots: int, seed: int = 0) -> dict:
    """Multinomial draw over the exact distribution.

    Uses numpy's PCG64 generator, seeded explicitly, so identical
    invocations reproduce identical counts on any platform.
    """
    shots = qmath._count(shots, "shots", ceiling=qmath.MAX_SHOTS)
    seed = qmath._count(seed, "seed")
    keys = sorted(result.distribution)
    probs = np.array([result.distribution[k] for k in keys])
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(shots, probs)
    return {k: int(v) for k, v in zip(keys, counts)}
