import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aapt import (
    haar_unitary,
    hermitian_basis,
    hs_inner,
    partial_trace,
    partial_transpose,
    pseudo_inverse,
    random_density,
    rank_and_nullspace,
    rank_evidence,
    tensor,
    unvec,
    vec,
)

from helpers import random_complex

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def phi_plus(d):
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(v, v.conj())


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_action_flips_first_factor_only(self):
        ket00 = np.zeros(4)
        ket00[0] = 1
        ket10 = np.zeros(4)
        ket10[2] = 1
        assert np.allclose(tensor(SIGMA_X, np.eye(2)) @ ket00, ket10)

    def test_trace_multiplicativity(self):
        for k in range(50):
            a = random_complex((3, 3), 100 + k)
            b = random_complex((3, 3), 200 + k)
            assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_product_case(self):
        rho_a = random_density(2, 2, seed=1)
        rho_b = random_density(3, 3, seed=2)
        assert np.allclose(partial_trace(tensor(rho_a, rho_b), (2, 3), "A"), rho_b, atol=1e-14)

    def test_max_entangled_marginal(self):
        # direct component sum: sum_a <a| phi+ |a> over the A factor is 1/2 on B
        assert np.allclose(partial_trace(phi_plus(2), (2, 2), "A"), np.eye(2) / 2, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), da=st.integers(1, 3), db=st.integers(1, 3))
    def test_trace_preserved(self, seed, da, db):
        m = random_complex((da * db, da * db), seed)
        for which in ("A", "B"):
            assert abs(np.trace(partial_trace(m, (da, db), which)) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), (2, 2), "A")


class TestPartialTranspose:
    def test_product_case(self):
        rho_a = random_density(2, 2, seed=3)
        rho_b = random_density(2, 2, seed=4)
        expected = tensor(rho_a.T, rho_b)
        assert np.allclose(partial_transpose(tensor(rho_a, rho_b), (2, 2), "A"), expected, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), da=st.integers(1, 3), db=st.integers(1, 3))
    def test_involution(self, seed, da, db):
        m = random_complex((da * db, da * db), seed)
        for which in ("A", "B"):
            assert np.array_equal(partial_transpose(partial_transpose(m, (da, db), which), (da, db), which), m)

    def test_max_entangled_gives_swap(self):
        # enumerating components: |ab><a'b'| -> |ab'><a'b| turns sum |aa><a'a'| into the swap
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[1, 2] = swap[2, 1] = swap[3, 3] = 1
        assert np.allclose(partial_transpose(phi_plus(2), (2, 2), "B"), swap / 2, atol=1e-15)


class TestRankAndNullspace:
    def test_identity(self):
        rank, basis = rank_and_nullspace(np.eye(4))
        assert rank == 4
        assert basis.shape == (4, 0)

    def test_rank_one_outer_product(self):
        v = random_complex((5,), 7)
        rank, basis = rank_and_nullspace(np.outer(v, v.conj()))
        assert rank == 1
        assert basis.shape == (5, 4)

    def test_null_vector_residuals(self):
        m = random_complex((8, 3), 11) @ random_complex((3, 5), 12)
        ev = rank_evidence(m)
        rank, basis = rank_and_nullspace(m)
        assert rank == 3
        assert rank + basis.shape[1] == 5
        for i in range(basis.shape[1]):
            assert np.linalg.norm(m @ basis[:, i]) <= 10 * ev.tol

    def test_wide_matrix_null_space(self):
        # a wide matrix needs the full SVD: the thin vh has only `rows` rows
        m = random_complex((3, 2), 13) @ random_complex((2, 5), 14)
        ev = rank_evidence(m)
        rank, basis = rank_and_nullspace(m)
        assert rank == 2
        assert basis.shape == (5, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
        for i in range(basis.shape[1]):
            assert np.linalg.norm(m @ basis[:, i]) <= 10 * ev.tol

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            rank_and_nullspace(np.eye(2), tol=-1.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_rank_invariant_under_dagger_and_transpose(self, seed, rows, cols):
        m = random_complex((rows, cols), seed)
        r = rank_evidence(m).rank
        assert rank_evidence(m.conj().T).rank == r
        assert rank_evidence(m.T).rank == r


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-15)

    def test_penrose_residuals(self):
        for k in range(100):
            m = random_complex((9, 4), 4000 + k)
            p = pseudo_inverse(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(m @ p @ m - m) <= 1e-10 * scale
            assert np.linalg.norm(p @ m @ p - p) <= 1e-10 * max(1.0, np.linalg.norm(p))


class TestHaarUnitary:
    def test_scalar_case(self):
        u = haar_unitary(1, seed=0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_unitarity(self):
        for k in range(100):
            u = haar_unitary(4, seed=k)
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_seed_determinism(self):
        assert np.array_equal(haar_unitary(3, seed=42), haar_unitary(3, seed=42))


class TestHermitianBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        basis = hermitian_basis(2)
        expected = [np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z]
        for got, want in zip(basis, expected):
            assert np.allclose(got, want / np.sqrt(2), atol=1e-15)

    def test_orthonormality(self):
        basis = hermitian_basis(5)
        assert len(basis) == 25
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert abs(hs_inner(a, b) - (1.0 if i == j else 0.0)) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_expansion_reconstructs_any_hermitian(self, d):
        x = random_complex((d, d), 900 + d)
        h = x + x.conj().T
        rebuilt = sum(hs_inner(b, h) * b for b in hermitian_basis(d))
        assert np.linalg.norm(rebuilt - h) <= 1e-12


class TestRandomDensity:
    def test_scalar_case(self):
        assert np.allclose(random_density(1, 1, seed=0), [[1.0]])

    def test_spectral_checks(self):
        for k in range(100):
            rho = random_density(4, 4, seed=k)
            eigs = np.linalg.eigvalsh(rho)
            assert eigs[0] >= -1e-14
            assert abs(np.trace(rho).real - 1) <= 1e-14

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_rank_parameter(self, rank):
        rho = random_density(4, rank, seed=rank)
        got, _ = rank_and_nullspace(rho)
        assert got == rank

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            random_density(3, 4, seed=0)


class TestVecConventions:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4))
    def test_unvec_inverts_vec_exactly(self, seed, d):
        m = random_complex((d, d), seed)
        assert np.array_equal(unvec(vec(m)), m)

    def test_vec_stacks_columns(self):
        m = np.array([[1, 3], [2, 4]], dtype=complex)
        assert np.array_equal(vec(m), np.array([1, 2, 3, 4], dtype=complex))

    def test_sandwich_identity(self):
        a, x, b = (random_complex((3, 3), 50 + i) for i in range(3))
        assert np.allclose(vec(a @ x @ b), tensor(b.T, a) @ vec(x), atol=1e-12)


class TestCompositionInvariants:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), da=st.integers(1, 3), db=st.integers(1, 3))
    def test_tensor_then_partial_trace_over_b(self, seed, da, db):
        a = random_complex((da, da), seed)
        b = random_complex((db, db), seed + 1)
        got = partial_trace(tensor(a, b), (da, db), "B")
        assert np.allclose(got, np.trace(b) * a, atol=1e-12)


class TestNullspaceShapes:
    @pytest.mark.parametrize(
        "rows, inner, cols",
        [(9, 2, 4), (40, 3, 6), (5, 3, 5), (4, 4, 4), (2, 2, 5), (3, 1, 7)],
        ids=["tall", "very_tall", "square", "square_full", "wide", "wide_rank1"],
    )
    def test_rank_plus_nullity_is_the_column_count(self, rows, inner, cols):
        m = random_complex((rows, inner), rows * 100 + cols) @ random_complex((inner, cols), inner)
        ev = rank_evidence(m)
        rank, basis = rank_and_nullspace(m)
        assert rank == ev.rank == min(inner, rows, cols)
        assert rank + basis.shape[1] == cols
        assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        assert np.linalg.norm(m @ basis) <= 10 * ev.tol

    def test_r_only_svd_keeps_the_evidence_of_the_full_svd(self):
        from aapt.linalg import _evidence, _svd_nullspace

        m = random_complex((60, 5), 17) @ random_complex((5, 8), 18)
        got, _ = _svd_nullspace(m, 0.0)
        want = _evidence(m.shape, np.linalg.svd(m, compute_uv=False), 0.0)
        assert got.rank == want.rank == 5
        assert got.tol == pytest.approx(want.tol, rel=1e-13)
        assert got.smallest_kept == pytest.approx(want.smallest_kept, rel=1e-12)

    def test_tolerance_reads_the_shape_it_is_given(self):
        from aapt.linalg import _svd_nullspace, default_rank_tol

        m = random_complex((6, 4), 19)
        ev, _ = _svd_nullspace(m, 0.0, (1296, 4))
        assert ev.tol == pytest.approx(default_rank_tol((1296, 4), float(np.linalg.svd(m, compute_uv=False)[0])), rel=1e-13)
        assert ev.tol == pytest.approx(1296 / 6 * _svd_nullspace(m, 0.0)[0].tol, rel=1e-15)
