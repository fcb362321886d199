from __future__ import annotations

import itertools
import json
import warnings

import numpy as np
import pytest

import oracle
from paradoxlab import qmath
from paradoxlab.circuit import Gate
from paradoxlab.ctc import CtcProblem
from paradoxlab.errors import (
    BadParams,
    BadTargets,
    DimensionMismatch,
    InvalidState,
    NonUnitary,
    NotTracePreserving,
    TooManyQubits,
)
from paradoxlab.qmath import (
    DensityMatrix,
    KrausSet,
    adjoint,
    apply_kraus,
    evolve_density,
    partial_trace,
    trace_distance,
    vn_entropy_bits,
)


def dm(mat):
    return DensityMatrix(mat)


class TestAdjoint:
    def test_hermitian_fixed_points(self):
        for m in (oracle.H, oracle.X, oracle.Y, oracle.Z):
            np.testing.assert_allclose(adjoint(m), m, atol=1e-15)

    def test_reverses_products(self):
        rng = np.random.default_rng(7)
        a = oracle.random_unitary(4, rng)
        b = oracle.random_unitary(4, rng)
        np.testing.assert_allclose(adjoint(a @ b), adjoint(b) @ adjoint(a), atol=1e-12)


class TestStates:
    def test_density_invariants_checked(self):
        with pytest.raises(InvalidState):
            dm([[0.5, 0.4], [0.3, 0.5]])  # not hermitian
        with pytest.raises(InvalidState):
            dm([[0.9, 0], [0, 0.2]])  # trace off
        with pytest.raises(InvalidState):
            dm([[1.5, 0], [0, -0.5]])  # negative eigenvalue

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda bad: DensityMatrix(np.full((2, 2), bad)), InvalidState),
            (lambda bad: KrausSet((np.full((2, 2), bad),)), NotTracePreserving),
        ],
        ids=["DensityMatrix", "KrausSet"],
    )
    def test_non_finite_entries_rejected(self, build, error, bad):
        """Each invariant check reads `err > tol`, which NaN slips past."""
        with pytest.raises(error, match="non-finite"):
            build(bad)

    @pytest.mark.parametrize("index", [-1, 4, 7, 1.5, True, "1"])
    def test_basis_index_must_be_in_range(self, index):
        """-1 used to give the last basis state and 7 a raw IndexError."""
        with pytest.raises(BadParams, match="basis index"):
            qmath.basis_state(2, index)

    def test_basis_state_at_last_index(self):
        np.testing.assert_array_equal(qmath.basis_state(2, 3.0).mat, np.diag([0, 0, 0, 1]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_state_is_the_oracle_projector(self, n):
        for index in range(2 ** n):
            ket = np.zeros(2 ** n, dtype=complex)
            ket[index] = 1.0
            np.testing.assert_array_equal(qmath.basis_state(n, index).mat, oracle.density(ket))

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: qmath.basis_state(n).mat,
            lambda n: qmath.maximally_mixed(n).mat,
            lambda n: DensityMatrix(np.eye(2 ** n) / 2 ** n).mat,
            lambda n: qmath.embed_operator(np.eye(2), [0], n),
        ],
        ids=["basis_state", "maximally_mixed", "DensityMatrix", "embed_operator"],
    )
    def test_register_ceiling(self, build):
        """Seven qubits used to build a state or lift that no other entry point accepts."""
        assert build(qmath.MAX_QUBITS).shape == (64, 64)
        with pytest.raises(TooManyQubits, match="7 qubits exceeds the limit of 6"):
            build(7)


class TestEvolveDensity:
    def test_bit_flip(self):
        rho = evolve_density(dm([[1, 0], [0, 0]]), oracle.X, [0])
        np.testing.assert_allclose(rho.mat, [[0, 0], [0, 1]], atol=1e-12)

    def test_bell_corners(self):
        """H then CNOT on |00> leaves 0.5 at the four corners."""
        rho = dm(oracle.density(np.kron(oracle.KET0, oracle.KET0)))
        rho = evolve_density(rho, oracle.H, [0])
        cnot = np.zeros((4, 4), dtype=complex)
        cnot[0, 0] = cnot[1, 3] = cnot[3, 1] = cnot[2, 2] = 1
        rho = evolve_density(rho, cnot, [0, 1])
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert rho.mat[i, j] == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitary):
            evolve_density(dm([[1, 0], [0, 0]]), np.array([[1, 0], [0, 2.0]]), [0])

    def test_rejects_bad_targets(self):
        rho = dm(np.eye(4) / 4)
        with pytest.raises(BadTargets):
            evolve_density(rho, np.eye(4), [0, 0])
        with pytest.raises(BadTargets):
            evolve_density(rho, oracle.X, [5])

    def test_mixed_state_invariant_under_unitary(self):
        rng = np.random.default_rng(3)
        u = oracle.random_unitary(2, rng)
        rho = evolve_density(dm(np.eye(4) / 4), u, [1])
        np.testing.assert_allclose(rho.mat, np.eye(4) / 4, atol=1e-12)

    def test_matches_oracle_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            raw = oracle.random_density(2 ** n, rng)
            rho = dm(raw)
            k = int(rng.integers(1, n + 1))
            targets = list(rng.choice(n, size=k, replace=False))
            u = oracle.random_unitary(2 ** k, rng)
            got = evolve_density(rho, u, targets)
            full = oracle.lift(u, targets, n)
            np.testing.assert_allclose(got.mat, full @ raw @ full.conj().T, atol=1e-10)


class TestEmbedOperator:
    def test_matches_oracle_lift_on_unsorted_targets(self):
        rng = np.random.default_rng(29)
        for n in range(1, 7):
            for _ in range(3):
                k = int(rng.integers(1, min(n, 3) + 1))
                targets = [int(t) for t in rng.permutation(n)[:k]]
                op = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
                got = qmath.embed_operator(op, targets, n)
                np.testing.assert_allclose(got, oracle.lift(op, targets, n), atol=1e-12)


def tensordot_apply(op, state, targets):
    """The kernel as one ``np.tensordot`` and an axis move: the byte reference."""
    n = state.shape[0].bit_length() - 1
    k = len(targets)
    axes = [n - 1 - q for q in targets]
    out = np.tensordot(
        op.reshape((2,) * (2 * k)),
        state.reshape((2,) * n + state.shape[1:]),
        axes=([2 * k - 1 - p for p in range(k)], axes),
    )
    return np.moveaxis(out, [k - 1 - p for p in range(k)], axes).reshape(state.shape)


class TestApplyOp:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_tensordot_bytes_and_oracle(self, n):
        rng = np.random.default_rng(100 + n)
        dim = 2 ** n
        real = rng.normal(size=(dim, dim))
        square = real + 1j * rng.normal(size=(dim, dim))
        states = [
            rng.normal(size=dim) + 1j * rng.normal(size=dim),
            real,
            square,
            np.asfortranarray(real),
            np.asfortranarray(square),
            rng.normal(size=(dim, 2, 3)) + 1j * rng.normal(size=(dim, 2, 3)),
        ]
        for k in range(1, min(n, 3) + 1):
            for targets in itertools.permutations(range(n), k):
                d = 2 ** k
                op_re = rng.normal(size=(d, d))
                for op in (op_re, op_re + 1j * rng.normal(size=(d, d))):
                    lift = oracle.lift(op, targets, n)
                    for op_order in "CF":
                        op = np.asarray(op, order=op_order)
                        for state in states:
                            got = qmath._apply_op(op, state, targets)
                            want = tensordot_apply(op, state, targets)
                            assert got.dtype == want.dtype and got.shape == want.shape
                            assert got.tobytes() == want.tobytes(), (targets, op_order, state.shape)
                            full = (lift @ state.reshape(dim, -1)).reshape(state.shape)
                            np.testing.assert_allclose(got, full, rtol=0, atol=1e-12)

    def test_cached_rows_are_read_only(self):
        for rows in qmath._op_rows(3, (2, 0))[1:]:
            assert not rows.flags.writeable
            assert sorted(rows.ravel()) == list(range(8))


class TestApplyKraus:
    def test_identity_set(self):
        ks = KrausSet((np.eye(2, dtype=complex),))
        rho = dm([[0.25, 0], [0, 0.75]])
        got = apply_kraus(rho, ks, [0])
        np.testing.assert_allclose(got.mat, rho.mat, atol=1e-12)

    def test_full_depolarize_by_hand(self):
        """The four-Pauli set at weight 1/2 sends any qubit state to I/2."""
        ops = tuple(0.5 * m for m in (oracle.I2, oracle.X, oracle.Y, oracle.Z))
        ks = KrausSet(ops)
        got = apply_kraus(dm([[0, 0], [0, 1]]), ks, [0])
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-12)

    def test_depolarized_half_of_bell_leaves_other_marginal_mixed(self):
        bell = (np.kron(oracle.KET0, oracle.KET0) + np.kron(oracle.KET1, oracle.KET1)) / np.sqrt(2)
        rho = dm(oracle.density(bell))
        ops = tuple(0.5 * m for m in (oracle.I2, oracle.X, oracle.Y, oracle.Z))
        got = apply_kraus(rho, KrausSet(ops), [0])
        np.testing.assert_allclose(got.mat, np.eye(4) / 4, atol=1e-12)

    def test_trace_preservation_enforced(self):
        with pytest.raises(NotTracePreserving):
            KrausSet((oracle.X * 0.9,))

    def test_huge_entry_refused_without_overflow(self):
        with pytest.raises(NotTracePreserving, match="unit disc"):
            KrausSet((oracle.X * 1e200,))

    def test_trace_preserved_on_random_sets(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))
            targets = list(rng.choice(n, size=k, replace=False))
            ops = oracle.random_kraus_set(2 ** k, int(rng.integers(1, 4)), rng)
            raw = oracle.random_density(2 ** n, rng)
            got = apply_kraus(dm(raw), KrausSet(tuple(ops)), targets)
            assert np.trace(got.mat) == pytest.approx(1.0, abs=1e-9)
            lifted = [oracle.lift(k_op, targets, n) for k_op in ops]
            want = sum(full @ raw @ full.conj().T for full in lifted)
            np.testing.assert_allclose(got.mat, want, atol=1e-10)

    def test_dimension_mismatch(self):
        ks = KrausSet((np.eye(2, dtype=complex),))
        with pytest.raises(DimensionMismatch):
            apply_kraus(dm(np.eye(4) / 4), ks, [0, 1])


class TestPartialTrace:
    def test_bell_marginal_is_mixed(self):
        bell = (np.kron(oracle.KET0, oracle.KET0) + np.kron(oracle.KET1, oracle.KET1)) / np.sqrt(2)
        rho = dm(oracle.density(bell))
        got = partial_trace(rho, [0])
        np.testing.assert_allclose(got.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factors(self):
        rho = dm(np.kron(oracle.density(oracle.PLUS), oracle.density(oracle.KET1)))
        got = partial_trace(rho, [1])
        np.testing.assert_allclose(got.mat, oracle.density(oracle.PLUS), atol=1e-12)
        got0 = partial_trace(rho, [0])
        np.testing.assert_allclose(got0.mat, oracle.density(oracle.KET1), atol=1e-12)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        raw = oracle.random_density(8, rng)
        got = partial_trace(dm(raw), [0, 1, 2])
        np.testing.assert_allclose(got.mat, raw, atol=1e-12)

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            raw = oracle.random_density(2 ** n, rng)
            k = int(rng.integers(1, n))
            keep = sorted(rng.choice(n, size=k, replace=False))
            got = partial_trace(dm(raw), keep)
            np.testing.assert_allclose(got.mat, oracle.ptrace(raw, keep, n), atol=1e-10)

    def test_random_product_states_recover_factors(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            factors = [oracle.random_density(2, rng) for _ in range(n)]
            joint = dm(oracle.kron_chain(factors))
            for q in range(n):
                got = partial_trace(joint, [q])
                np.testing.assert_allclose(got.mat, factors[q], atol=1e-10)

    def test_empty_keep_rejected(self):
        with pytest.raises(BadTargets):
            partial_trace(dm(np.eye(2) / 2), [])

    @pytest.mark.parametrize(
        "keep, error",
        [([1.5], BadParams), ([True], BadParams), (["1"], BadParams), ([2], BadTargets),
         ([-1], BadTargets)],
    )
    def test_kept_qubit_must_be_an_index_in_range(self, keep, error):
        """``int()`` used to truncate 1.5 and True to qubit 1."""
        with pytest.raises(error, match="kept qubit"):
            partial_trace(dm(np.eye(4) / 4), keep)

    def test_whole_float_kept_qubit_accepted(self):
        rho = dm(np.kron(oracle.density(oracle.PLUS), oracle.density(oracle.KET1)))
        np.testing.assert_array_equal(partial_trace(rho, [1.0]).mat, partial_trace(rho, [1]).mat)


class TestEntropy:
    def test_pure_state_zero(self):
        assert vn_entropy_bits(dm([[1, 0], [0, 0]])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_one_bit(self):
        assert vn_entropy_bits(dm(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarters_split(self):
        got = vn_entropy_bits(dm([[0.75, 0], [0, 0.25]]))
        assert got == pytest.approx(0.8112781244591328, abs=1e-9)

    def test_eigenvalues_at_the_floor_add_nothing(self):
        # Counted, the 1e-13 eigenvalue alone would add about 4.3e-12 bits.
        assert vn_entropy_bits(dm(np.diag([1 - 1e-13, 1e-13]))) < qmath.ENTROPY_EIG_FLOOR

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            raw = oracle.random_density(4, rng)
            u = oracle.random_unitary(4, rng)
            a = vn_entropy_bits(dm(raw))
            b = vn_entropy_bits(dm(u @ raw @ u.conj().T))
            assert a == pytest.approx(b, abs=1e-9)


def random_pure_density(dim, rng):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return oracle.density(ket / np.linalg.norm(ket))


class TestArrayCores:
    """The unvalidated array cores under ``partial_trace`` and ``vn_entropy_bits``."""

    @pytest.mark.parametrize("make", [oracle.random_density, random_pure_density])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cores_match_oracle_for_every_keep_set(self, n, make):
        raw = make(2 ** n, np.random.default_rng(60 + n))
        assert qmath._vn_entropy_bits(raw) == pytest.approx(oracle.entropy_bits(raw), abs=1e-12)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                got = qmath._partial_trace(raw, list(keep))
                want = oracle.ptrace(raw, keep, n)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                assert qmath._vn_entropy_bits(got) == pytest.approx(
                    oracle.entropy_bits(want), abs=1e-12
                )

    def test_public_functions_wrap_the_cores(self):
        raw = oracle.random_density(8, np.random.default_rng(3))
        got = partial_trace(dm(raw), [2, 0, 2])
        assert got.mat.tobytes() == qmath._partial_trace(raw, [0, 2]).tobytes()
        assert vn_entropy_bits(dm(raw)) == qmath._vn_entropy_bits(raw)


class TestTraceDistance:
    def test_identical_states(self):
        rho = dm(np.eye(2) / 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = dm([[1, 0], [0, 0]])
        b = dm([[0, 0], [0, 1]])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_zero_versus_plus(self):
        a = dm([[1, 0], [0, 0]])
        b = dm(oracle.density(oracle.PLUS))
        assert trace_distance(a, b) == pytest.approx(0.7071067811865476, abs=1e-9)

    def test_metric_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a, b, c = (dm(oracle.random_density(4, rng)) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-9)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9
            assert trace_distance(a, b) >= -1e-12


class TestIsUnitary:
    @pytest.mark.parametrize(
        "build",
        [
            lambda path: Gate("G", [[1e200, 0], [0, 1]]),
            lambda path: CtcProblem(np.diag([1e200, 1, 1, 1])),
            lambda path: qmath.save_unitary(path, np.diag([1e200, 1])),
        ],
        ids=["Gate", "CtcProblem", "save_unitary"],
    )
    def test_huge_entry_refused_without_overflow(self, build, tmp_path):
        """Every caller of the check gets its unit-disc screen, not an overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonUnitary):
                build(str(tmp_path / "huge.json"))


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        u = oracle.random_unitary(4, rng)
        path = tmp_path / "u.json"
        qmath.save_unitary(str(path), u)
        got = qmath.load_unitary(str(path))
        np.testing.assert_allclose(got, u, atol=1e-12)

    def test_rejects_non_unitary(self, tmp_path):
        path = tmp_path / "bad.json"
        qmath.save_unitary(str(path), np.eye(2))
        data = json.loads(path.read_text())
        data["entries"][0] = [2.0, 0.0]
        path.write_text(json.dumps(data))
        with pytest.raises(NonUnitary):
            qmath.load_unitary(str(path))

    def test_huge_entry_rejected_without_overflow(self, tmp_path):
        path = tmp_path / "huge.json"
        qmath.save_unitary(str(path), np.eye(2))
        data = json.loads(path.read_text())
        data["entries"][3] = [1e200, -1e200]
        path.write_text(json.dumps(data))
        with pytest.raises(NonUnitary):
            qmath.load_unitary(str(path))

    @pytest.mark.parametrize("dim", ["2", True, 2.5])
    def test_rejects_dim_that_is_not_a_whole_number(self, dim, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": dim, "entries": [[1.0, 0.0]]}))
        with pytest.raises(BadParams, match="dim"):
            qmath.load_unitary(str(path))

    @pytest.mark.parametrize(
        "entry, field",
        [([True, 0.0], "real part"), ([1.0, "0"], "imaginary part"), ([float("nan"), 0.0], "real")],
        ids=["boolean", "string", "nan"],
    )
    def test_rejects_entry_that_is_not_a_finite_number(self, entry, field, tmp_path):
        path = tmp_path / "bad.json"
        entries = [entry, [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(BadParams, match=field):
            qmath.load_unitary(str(path))

    def test_refuses_dimension_that_is_not_a_power_of_two(self, tmp_path):
        perm = np.eye(3)[:, [1, 2, 0]]
        path = tmp_path / "perm.json"
        with pytest.raises(DimensionMismatch, match="power of two"):
            qmath.save_unitary(str(path), perm)
        path.write_text(json.dumps({"dim": 3, "entries": qmath.matrix_to_entries(perm)}))
        with pytest.raises(DimensionMismatch, match="power of two"):
            qmath.load_unitary(str(path))

    def test_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
        with pytest.raises(DimensionMismatch):
            qmath.load_unitary(str(path))
