"""Gate library, circuit IR, and the two reference backends.

The density backend is the primary one: measurements branch the state
and the exact joint outcome distribution is accumulated, never sampled.
Sampling is a separate seeded post-process over that distribution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadParams,
    BadProbability,
    BadTargets,
    DimensionMismatch,
    InvalidCircuit,
    NonUnitary,
    NonUnitaryInstruction,
    TooManyQubits,
    UnknownKind,
)
from . import qmath
from .qmath import DensityMatrix, KrausSet, StateVector

MAX_QUBITS = 6


@dataclass(frozen=True, eq=False)
class Gate:
    """A named unitary, checked once when built and kept as a read-only complex copy."""

    kind: str
    matrix: np.ndarray
    theta: Optional[float] = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"{self.kind} matrix of shape {m.shape} is not square")
        qmath._qubit_count(m.shape[0], f"{self.kind} matrix")
        if not qmath.is_unitary(m):
            raise NonUnitary(f"{self.kind} matrix fails the unitarity check")
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
    """The shared library gate ``kind``; RX, the one parameterized kind, is built per call."""
    if kind == "RX":
        if theta is None:
            raise BadParams("RX needs an angle")
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return Gate("RX", [[c, -1j * s], [-1j * s, c]], float(theta))
    if kind not in _LIBRARY:
        raise UnknownKind(f"no gate kind {kind!r}")
    if theta is not None:
        raise BadParams(f"{kind} takes no angle")
    return _LIBRARY[kind]


@dataclass(frozen=True)
class Instruction:
    """One circuit step: unitary, channel, reset, or measure."""

    op: str
    targets: tuple
    gate: Optional[Gate] = None
    kraus: Optional[KrausSet] = None
    clbit: Optional[int] = None

    def __post_init__(self):
        # Checks that need no circuit; target and clbit ranges depend on the
        # register and are checked by _register_problems.
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(set(targets)) != len(targets):
            raise BadTargets(f"repeated target in {targets}")
        if self.op == "unitary":
            if len(targets) != self.gate.arity:
                raise BadTargets(
                    f"{self.gate.kind} expects {self.gate.arity} targets, got {len(targets)}"
                )
        elif self.op == "channel" and self.kraus.dim != 2 ** len(targets):
            raise BadTargets("Kraus dimension does not match the target count")


@dataclass
class Circuit:
    """Instruction list over a fixed register; built once, run read-only."""

    n_qubits: int
    n_clbits: int = 0
    instructions: list = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits > MAX_QUBITS:
            raise TooManyQubits(f"{self.n_qubits} qubits exceeds the limit of {MAX_QUBITS}")
        if self.n_qubits < 1:
            raise InvalidCircuit(["circuit needs at least one qubit"])
        if self.n_clbits < 0:
            raise InvalidCircuit(["circuit needs a non-negative clbit count"])

    # -- builder helpers ----------------------------------------------------

    def _append(self, instr: Instruction) -> "Circuit":
        problems = _register_problems(self, instr)
        if problems:
            raise BadTargets(problems[0])
        self.instructions.append(instr)
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

    def channel(self, kraus: KrausSet, targets: Sequence[int]) -> "Circuit":
        return self._append(Instruction("channel", targets, kraus=kraus))

    def reset(self, q) -> "Circuit":
        return self._append(Instruction("reset", (q,)))

    def measure(self, q, clbit) -> "Circuit":
        return self._append(Instruction("measure", (q,), clbit=int(clbit)))

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
            elif instr.op == "channel":
                out.append(
                    {
                        "op": "channel",
                        "dim": instr.kraus.dim,
                        "operators": [qmath.matrix_to_entries(k) for k in instr.kraus.operators],
                        "targets": list(instr.targets),
                    }
                )
            elif instr.op == "reset":
                out.append({"op": "reset", "target": instr.targets[0]})
            else:
                out.append({"op": "measure", "target": instr.targets[0], "clbit": instr.clbit})
        return {"n_qubits": self.n_qubits, "n_clbits": self.n_clbits, "instructions": out}

    @classmethod
    def from_json(cls, text: str) -> "Circuit":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "Circuit":
        whole = qmath._whole
        c = cls(whole(doc["n_qubits"], "n_qubits"), whole(doc.get("n_clbits", 0), "n_clbits"))
        for item in doc.get("instructions", []):
            op = item["op"]
            if op == "unitary":
                theta = item.get("theta")
                theta = None if theta is None else qmath._finite(theta, "theta")
                gate = make_gate(item["kind"], theta)
                c.append_gate(gate, [whole(t, "target") for t in item["targets"]])
            elif op == "channel":
                dim = whole(item["dim"], "dim")
                ops = tuple(qmath.entries_to_matrix(dim, e) for e in item["operators"])
                c.channel(KrausSet(ops), [whole(t, "target") for t in item["targets"]])
            elif op == "reset":
                c.reset(whole(item["target"], "target"))
            elif op == "measure":
                c.measure(whole(item["target"], "target"), whole(item["clbit"], "clbit"))
            else:
                raise UnknownKind(f"no instruction op {op!r}")
        return c


def _register_problems(c: Circuit, instr: Instruction) -> list:
    """Targets or clbit of ``instr`` that fall outside ``c``'s registers."""
    problems = [
        f"target {t} outside register of {c.n_qubits} qubits"
        for t in instr.targets
        if not 0 <= t < c.n_qubits
    ]
    if instr.clbit is not None and not 0 <= instr.clbit < c.n_clbits:
        problems.append(f"clbit {instr.clbit} outside register of {c.n_clbits} bits")
    return problems


def validate(c: Circuit) -> list:
    """Return a list of problems; empty means the circuit is runnable."""
    problems = []
    used_clbits = set()
    for i, instr in enumerate(c.instructions):
        problems.extend(f"instruction {i}: {p}" for p in _register_problems(c, instr))
        if instr.clbit in used_clbits:
            problems.append(f"instruction {i}: clbit {instr.clbit} written twice")
        elif instr.clbit is not None:
            used_clbits.add(instr.clbit)
    return problems


# -- backends ----------------------------------------------------------------


def run_statevector(c: Circuit) -> StateVector:
    """Evolve |0...0> through a unitary-only circuit."""
    _require_valid(c)
    return StateVector(c.n_qubits, circuit_unitary(c)[:, 0])


_PROJ = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
)

_RESET_KRAUS = (_PROJ[0], np.array([[0, 1], [0, 0]], dtype=complex))


def apply_instruction(mat: np.ndarray, instr: Instruction) -> np.ndarray:
    """Apply a non-measuring instruction to an unvalidated density-matrix array."""
    if instr.op == "unitary":
        return qmath._conjugate(instr.gate.matrix, mat, instr.targets)
    if instr.op == "channel":
        return qmath._kraus_map(instr.kraus.operators, mat, instr.targets)
    if instr.op == "reset":
        return qmath._kraus_map(_RESET_KRAUS, mat, instr.targets)
    raise NonUnitaryInstruction("measurement must be handled by the branch runner")


@dataclass
class RunResult:
    """Exact joint outcome distribution plus the ensemble-averaged state."""

    distribution: dict
    final_state: DensityMatrix


def run_density(c: Circuit, initial: Optional[DensityMatrix] = None) -> RunResult:
    """Exact density evolution; measurements branch on the joint outcomes."""
    _require_valid(c)
    n = c.n_qubits
    if initial is None:
        initial = qmath.basis_state(n, 0).density()
    elif initial.n != n:
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
    return RunResult(distribution, DensityMatrix(n, mixed))


def _require_valid(c: Circuit):
    problems = validate(c)
    if problems:
        raise InvalidCircuit(problems)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full-register matrix of a unitary-only circuit, in time order."""
    u = np.eye(2 ** c.n_qubits, dtype=complex)
    for instr in c.instructions:
        if instr.op != "unitary":
            raise NonUnitaryInstruction(f"circuit contains {instr.op!r}")
        u = qmath._apply_op(instr.gate.matrix, u, instr.targets)
    return u


def sample(result: RunResult, shots: int, seed: int = 0) -> dict:
    """Multinomial draw over the exact distribution.

    Uses numpy's PCG64 generator, seeded explicitly, so identical
    invocations reproduce identical counts on any platform.
    """
    if shots < 0:
        raise BadParams("shots must be nonnegative")
    keys = sorted(result.distribution)
    probs = np.array([result.distribution[k] for k in keys])
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.PCG64(seed))
    counts = rng.multinomial(shots, probs)
    return {k: int(v) for k, v in zip(keys, counts)}


def depolarizing_kraus(p: float) -> KrausSet:
    """Depolarizing channel: rho -> (1 - p) rho + p I/2 at p = 1 fully mixes."""
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"depolarizing strength {p} outside [0, 1]")
    if p == 0.0:
        return KrausSet((_LIBRARY["I"].matrix,))
    i, x, y, z = (_LIBRARY[k].matrix for k in "IXYZ")
    q = math.sqrt(p / 4)
    return KrausSet((math.sqrt(1 - 3 * p / 4) * i, q * x, q * y, q * z))
