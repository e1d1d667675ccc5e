import numpy as np
import pytest

from nonmarkov import linalg


PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class TestEigh:
    def test_identity(self):
        dec = linalg.eigh(np.eye(2))
        assert np.allclose(dec.eigenvalues, [1, 1])

    def test_pauli_z(self):
        dec = linalg.eigh(PAULI_Z)
        assert np.allclose(dec.eigenvalues, [-1, 1])

    def test_pauli_x_eigenvectors(self):
        # hand diagonalization: eigenvalues -1, +1 with vectors (|0> -+ |1>)/sqrt2
        dec = linalg.eigh(PAULI_X)
        assert np.allclose(dec.eigenvalues, [-1, 1])
        minus = dec.eigenvectors[:, 0]
        plus = dec.eigenvectors[:, 1]
        ref_minus = np.array([1, -1]) / np.sqrt(2)
        ref_plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(minus @ ref_minus) - 1) < 1e-12
        assert abs(abs(plus @ ref_plus) - 1) < 1e-12

    def test_reconstruction_and_unitarity(self, rng, herm):
        for dim in (2, 3, 5, 8):
            m = herm(dim, rng)
            dec = linalg.eigh(m)
            scale = np.abs(m).max()
            u = dec.eigenvectors
            assert np.abs((u * dec.eigenvalues) @ u.conj().T - m).max() < 1e-10 * scale
            assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            linalg.eigh(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(linalg.NotHermitianError):
            linalg.eigh(m)

    def test_rejects_nan(self):
        m = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            linalg.eigh(m)


class TestSpectralFn:
    def test_square_diagonal(self):
        out = linalg.spectral_fn(np.diag([1.0, 2.0]), lambda x: x * x)
        assert np.allclose(out, np.diag([1.0, 4.0]))

    def test_sqrt_squares_back(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        root = linalg.spectral_fn(m, np.sqrt)
        assert np.abs(root @ root - m).max() < 1e-9 * max(1, np.abs(m).max())

    def test_pseudo_log_convention(self):
        m = np.diag([0.5, 0.5, 0.0])
        out = linalg.spectral_fn(m, np.log, support_only=True)
        assert np.allclose(out, np.diag([np.log(0.5), np.log(0.5), 0.0]))

    def test_log_without_support_only_raises(self):
        with pytest.raises(ValueError):
            linalg.spectral_fn(np.diag([1.0, 0.0]), np.log)

    def test_commutes_with_input(self, rng, herm):
        m = herm(5, rng)
        out = linalg.spectral_fn(m, np.exp)
        comm = out @ m - m @ out
        assert np.abs(comm).max() < 1e-9 * max(1, np.abs(m).max()) ** 2

    def test_identity_function_support_projection(self, rng):
        # f = id with support_only returns the support-projected matrix
        m = np.diag([0.7, 0.3, 0.0])
        out = linalg.spectral_fn(m, lambda x: x, support_only=True)
        assert np.allclose(out, m)


class TestNorms:
    def test_trace_norm_identity(self):
        assert linalg.trace_norm(np.eye(2)) == pytest.approx(2.0)

    def test_trace_norm_signature(self):
        assert linalg.trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_trace_norm_projector_difference(self):
        # |0><0| - |+><+| has eigenvalues +-1/sqrt2
        p0 = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        assert linalg.trace_norm(p0 - plus) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_trace_norm_spectral_oracle(self, rng, herm):
        for _ in range(20):
            m = herm(4, rng)
            oracle = np.abs(np.linalg.eigvalsh(m)).sum()
            assert abs(linalg.trace_norm(m) - oracle) < 1e-10

    def test_trace_norm_triangle_inequality(self, rng, herm):
        for _ in range(200):
            a = herm(3, rng)
            b = herm(3, rng)
            assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-10

    def test_operator_norm(self):
        assert linalg.operator_norm(np.eye(5)) == pytest.approx(1.0)
        assert linalg.operator_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_norm_ordering(self, rng, herm):
        for _ in range(20):
            m = herm(4, rng)
            assert linalg.operator_norm(m) <= linalg.trace_norm(m) + 1e-12

    def test_trace_norm_non_hermitian(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sv = np.linalg.svd(g, compute_uv=False)
        assert abs(linalg.trace_norm(g) - sv.sum()) < 1e-10


class TestMinEig:
    def test_diagonal(self):
        assert linalg.min_eig(np.diag([0.2, 0.8])) == pytest.approx(0.2)

    def test_swap_operator(self):
        # Choi matrix of qubit transposition is the swap, spectrum {-1, 1}
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        assert linalg.min_eig(swap) == pytest.approx(-1.0)

    def test_psd(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert linalg.min_eig(g @ g.conj().T) >= -1e-12
