"""Brute-force reference implementations used only by the tests.

Everything here is written directly against numpy, independent of the
package internals, so expected values come from a second route.
Little-endian convention throughout: qubit 0 is the least significant
bit of a basis index, so it sits rightmost in a kron chain.
"""

import csv
import io
import json
import math
import numbers
from functools import cache, reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = (KET0 + KET1) / np.sqrt(2)
MINUS = (KET0 - KET1) / np.sqrt(2)


# control carried in the low local bit, matching lift() conventions
CNOT = np.zeros((4, 4), dtype=complex)
CNOT[0, 0] = CNOT[3, 1] = CNOT[2, 2] = CNOT[1, 3] = 1


def rx(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def kron_chain(factors):
    """Tensor factors ordered qubit-0-first (qubit 0 ends up least significant)."""
    return reduce(np.kron, reversed(list(factors)))


def lift(op, qubits, n):
    """Embed ``op`` on the given qubits of an n-qubit register.

    Builds the full matrix entry by entry from bit arithmetic; slow and
    simple on purpose.
    """
    k = len(qubits)
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        loc = 0
        for p, q in enumerate(qubits):
            loc |= ((col >> q) & 1) << p
        base = col
        for p, q in enumerate(qubits):
            base &= ~(1 << q)
        for locp in range(2 ** k):
            row = base
            for p, q in enumerate(qubits):
                row |= ((locp >> p) & 1) << q
            full[row, col] = op[locp, loc]
    return full


def apply_unitary(state, op, qubits):
    n = int(np.log2(state.size))
    return lift(op, qubits, n) @ state


def density(state):
    return np.outer(state, state.conj())


def ptrace(rho, keep, n):
    """Partial trace keeping ``keep`` (ascending original order)."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            for t in range(2 ** len(traced)):
                row = 0
                colv = 0
                for p, q in enumerate(keep):
                    row |= ((i >> p) & 1) << q
                    colv |= ((j >> p) & 1) << q
                for p, q in enumerate(traced):
                    bit = (t >> p) & 1
                    row |= bit << q
                    colv |= bit << q
                out[i, j] += rho[row, colv]
    return out


def entropy_bits(rho):
    vals = np.linalg.eigvalsh(rho)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log2(vals)))


def tdist(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return m / np.trace(m)


def random_kraus_set(dim, count, rng):
    """Trace-preserving set built by normalizing random operators."""
    ops = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(count)]
    s = sum(a.conj().T @ a for a in ops)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return [a @ inv_sqrt for a in ops]


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def partial_swap(n_loop, angle):
    """exp(-i angle SWAP) between loop qubit 0 and the system qubit above the loop."""
    n = n_loop + 1
    swap = lift(SWAP, [0, n_loop], n)
    return np.cos(angle) * np.eye(2 ** n) - 1j * np.sin(angle) * swap


def superoperator(u, sigma, n_loop):
    """The loop superoperator S, written entry by entry from
    rho -> tr_sys[U (sigma x rho) U'] in row-major vec."""
    d = 2 ** n_loop
    blocks = u.reshape(sigma.shape[0], d, sigma.shape[0], d)
    return np.einsum("sial,ab,sjbm->ijlm", blocks, sigma, blocks.conj()).reshape(d * d, d * d)


def fixed_space(u, sigma, n_loop):
    """Orthonormal columns spanning the loop's fixed space: the right singular
    vectors of the complex S - I whose singular values are at most 1e-9."""
    s = superoperator(u, sigma, n_loop)
    _, sig, vh = np.linalg.svd(s - np.eye(len(s)))
    return vh[sig <= 1e-9].conj().T


def cesaro_limit(u, sigma, n_loop):
    """Limit of the running average of loop iterates from I/d, by dense linear algebra.

    With right null vectors N and left null vectors L of S - I (``superoperator``),
    the spectral projection onto the fixed space along range(S - I) is
    N (L'N)^-1 L', applied to vec(I/d).
    """
    d = 2 ** n_loop
    s = superoperator(u, sigma, n_loop)
    left, sig, vh = np.linalg.svd(s - np.eye(d * d))
    null = sig <= 1e-9
    n_right, n_left = vh[null].conj().T, left[:, null]
    start = (np.eye(d) / d).reshape(-1)
    coeff = np.linalg.solve(n_left.conj().T @ n_right, n_left.conj().T @ start)
    return (n_right @ coeff).reshape(d, d)


def stale_engine_totals(cycles, p, shots, seed):
    """Per-cycle work totals of a Szilard engine run without the reset, shot by shot.

    Each shot keeps its own memory bit, starting blank. A cycle wins one unit
    on a blank record and loses one on a set one; then the fresh particle,
    with probability p a fair coin and otherwise 0, is XORed into the record.
    Seeded numpy PCG64, two draws per shot per cycle.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    memory = np.zeros(shots, dtype=np.int8)
    totals = []
    for _ in range(cycles):
        totals.append(shots - 2 * int(np.count_nonzero(memory)))
        hit = rng.random(shots) < p
        coin = rng.integers(0, 2, shots, dtype=np.int8)
        np.bitwise_xor(memory, coin, out=memory, where=hit)
    return totals


def round_float(value, sig=9):
    """The CLI's rounding: non-finite as is, below 1e-12 in magnitude to 0.0,
    else the nearest float to ``value``'s ``sig``-significant-digit decimal."""
    value = float(value)
    if not math.isfinite(value):
        return value
    if abs(value) < 1e-12:
        return 0.0
    return float(f"{value:.{sig}g}")


def json_float(value):
    """The CLI's JSON text of one float: ``round_float``'s float, written by
    ``json.dumps`` (``float.__repr__``; NaN and Infinity spelled as json does)."""
    return json.dumps(round_float(value))


def json_ready(value):
    """A CLI payload as plain JSON types, every float rounded: the reference
    for ``json.dumps(json_ready(payload), indent=2) + "\\n"``."""
    if isinstance(value, dict):
        return {str(k): json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round_float(value)
    return value


def cell(value, sig):
    """The CLI's table (``sig`` 6) or CSV (``sig`` 9) cell of one value, by
    the per-value rules: a float rounds (``round_float``) and then formats."""
    if isinstance(value, (float, np.floating)):
        return f"{round_float(value, sig):.{sig}g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, tuple):
        return " ".join([cell(v, sig) for v in value])
    return str(value)


def render_table(headers, rows):
    """The CLI's aligned table, built row by row: each column as wide as its
    widest cell or header, two spaces between columns, no trailing blanks."""
    grid = [list(headers)] + [[cell(v, 6) for v in row] for row in rows]
    widths = [max(len(line[i]) for line in grid) for i in range(len(headers))]
    lines = [
        "  ".join(text.ljust(w) for text, w in zip(line, widths)).rstrip()
        for line in grid
    ]
    return "\n".join(lines) + "\n"


def render_csv(headers, rows):
    """The CLI's CSV, written row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([cell(v, 9) for v in row])
    return buffer.getvalue()


def sweep_walk(thetas, phis):
    """``epr.sweep``'s p_check_one over the theta-major grid, by the plain walk:
    each batch of 64 columns starts at |0...0> and runs every instruction of a
    freshly built deferred circuit. Unlike the rest of this module it runs the
    package's own kernel, since it pins the sweep's bytes, not only its values."""
    from paradoxlab.circuit import make_gate
    from paradoxlab.epr import CHECK, EprConfig, build_epr_unitary
    from paradoxlab.qmath import _apply_op

    grid_theta = np.repeat(np.asarray(thetas, dtype=float), len(phis))
    grid_phi = np.tile(np.asarray(phis, dtype=float), len(thetas))
    x = make_gate("X").matrix
    template = build_epr_unitary(EprConfig(0.0, 0.0))
    dim = 2 ** template.n_qubits
    fires = (np.arange(dim) >> CHECK) & 1 == 1
    p_one = np.empty(grid_theta.size)
    for lo in range(0, grid_theta.size, 64):
        cols = slice(lo, lo + 64)
        half_angle = {0: grid_theta[cols] / 2, 1: grid_phi[cols] / 2}
        state = np.zeros((dim, half_angle[0].size), dtype=complex)
        state[0] = 1.0
        for instr in template.instructions:
            if instr.gate.kind == "RX":
                half = half_angle[instr.targets[0]]
                flipped = _apply_op(x, state, instr.targets)
                state = np.cos(half) * state - 1j * np.sin(half) * flipped
            else:
                state = _apply_op(instr.gate.matrix, state, instr.targets)
        p_one[cols] = (np.abs(state) ** 2)[fires].sum(axis=0)
    return p_one


@cache
def _szilard_stage_sources():
    """Source rows of the engine's observe and stroke stages over all 16 states."""
    from paradoxlab.circuit import basis_permutation
    from paradoxlab.szilard import _OBSERVE, _STROKE

    return basis_permutation(_OBSERVE), basis_permutation(_STROKE)


def szilard_cycle(memory, skip_reset, p):
    """``szilard.run_single_cycle``'s record fields and output memory by the
    16-state walk: the full 16 x 16 state, each stage's full basis gather,
    einsum partial traces and one eigensolve per entropy. Like ``sweep_walk``
    it runs the package's own kernel, since it pins the cycle's bytes.

    Returns (expected work, entropy before and after the reset, mutual
    information, memory out).
    """
    from paradoxlab.qmath import _partial_trace, _vn_entropy_bits

    observe, stroke = _szilard_stage_sources()
    energy = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
    particle = np.diag([1 - p / 2, p / 2]).astype(complex)
    rho = np.zeros((16, 16), dtype=complex)
    rho[:4, :4] = np.kron(memory, particle)
    rho = rho[np.ix_(observe, observe)]
    joint = _partial_trace(rho, [0, 1])
    s_a = _vn_entropy_bits(_partial_trace(joint, [0]))
    s_b = _vn_entropy_bits(_partial_trace(joint, [1]))
    mutual = max(0.0, s_a + s_b - _vn_entropy_bits(joint))
    rho = rho[np.ix_(stroke, stroke)]
    work = float(np.real(np.trace(_partial_trace(rho, [2, 3]) @ energy))) - 1.0
    memory_out = _partial_trace(rho, [1])
    pre = _vn_entropy_bits(memory_out)
    if not skip_reset:
        memory_out = np.diag([1.0, 0.0]).astype(complex)
    return work, pre, _vn_entropy_bits(memory_out), mutual, memory_out


def matrix_entries(m):
    """Row-major [[re, im], ...] of a matrix, read one complex scalar at a time."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m, dtype=complex).reshape(-1)]


def _finite_real(value):
    """``value`` as a finite float, or None: a real but a bool, within float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        real = float(value)
    except OverflowError:
        return None
    return real if math.isfinite(real) else None


def matrix_from_entries(dim, entries):
    """The dim x dim matrix of a matrix file's row-major [re, im] pairs, read
    one value at a time; or, at the first value that is refused, the name of
    the error and its message."""
    if not isinstance(entries, (list, tuple)):
        return "BadParams", "entries must be a list of [re, im] pairs"
    if len(entries) != dim * dim:
        return "DimensionMismatch", f"expected {dim * dim} entries, got {len(entries)}"
    flat = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            return "BadParams", f"entry {index} is not a [re, im] pair"
        parts = []
        for value, what in zip(entry, ("real", "imaginary")):
            real = _finite_real(value)
            if real is None:
                return "BadParams", f"entry {what} part {value!r} is not a finite number"
            parts.append(real)
        flat.append(complex(*parts))
    return np.array(flat).reshape(dim, dim)
