"""Brute-force reference implementations used only by the tests.

Everything here is written directly against numpy, independent of the
package internals, so expected values come from a second route.
Little-endian convention throughout: qubit 0 is the least significant
bit of a basis index, so it sits rightmost in a kron chain.
"""

from functools import reduce

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
