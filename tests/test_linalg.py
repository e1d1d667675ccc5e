import json

import numpy as np
import pytest

from nonmarkov import linalg, maps, sdp, states


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


def loop_trace_out(m, dims, axis):
    """Tr over factor ``axis`` by explicit indices: out[r, c] = sum_j
    m[(r with j at axis), (c with j at axis)], rows and columns A-major."""
    rest = [d for k, d in enumerate(dims) if k != axis]
    n = int(np.prod(rest))
    out = np.zeros((n, n), dtype=complex)
    for r in np.ndindex(*rest):
        for c in np.ndindex(*rest):
            for j in range(dims[axis]):
                row = np.ravel_multi_index(r[:axis] + (j,) + r[axis:], dims)
                col = np.ravel_multi_index(c[:axis] + (j,) + c[axis:], dims)
                out[np.ravel_multi_index(r, rest), np.ravel_multi_index(c, rest)] += m[row, col]
    return out


class TestTraceOut:
    DIMS = [(2, 2), (2, 3), (3, 2), (2, 8), (9, 2), (2, 2, 2), (2, 3, 4), (4, 3, 2), (3, 8, 1)]

    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_index_loop(self, rng, dims):
        n = int(np.prod(dims))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for axis in range(len(dims)):
            got = linalg.trace_out(m, dims, axis)
            want = loop_trace_out(m, dims, axis)
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-12

    # The partial traces of the package written as einsum subscripts.
    # trace_out agrees with them bit for bit whenever the result has at least
    # two rows; a 1x1 result (every other factor trivial) is a full trace,
    # which einsum sums in another order.
    TWO = [(2, 2), (3, 2), (2, 5), (4, 4), (16, 2), (2, 16)]
    THREE = [(2, 2, 2), (2, 3, 4), (4, 2, 3), (3, 3, 2), (2, 8, 2)]
    EINSUM = [("abac->bc", 0, TWO), ("abcb->ac", 1, TWO),
              ("abcxyc->abxy", 2, THREE), ("abcxbz->acxz", 1, THREE)]

    @pytest.mark.parametrize("subscripts,axis,shapes", EINSUM)
    def test_equals_einsum_bit_for_bit(self, rng, subscripts, axis, shapes):
        for dims in shapes:
            n = int(np.prod(dims))
            for _ in range(3):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                old = np.einsum(subscripts, m.reshape(dims * 2))
                new = linalg.trace_out(m, dims, axis)
                assert new.tobytes() == old.reshape(new.shape).tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_stack_equals_each_matrix_bit_for_bit(self, rng, axis):
        dims = (2, 3, 2)
        stack = rng.standard_normal((2, 3, 12, 12)) + 1j * rng.standard_normal((2, 3, 12, 12))
        traced = linalg.trace_out(stack, dims, axis)
        assert traced.shape == (2, 3) + linalg.trace_out(stack[0, 0], dims, axis).shape
        for i, j in np.ndindex(2, 3):
            assert traced[i, j].tobytes() == linalg.trace_out(stack[i, j], dims, axis).tobytes()

    def test_marginal_of_product(self):
        a = states.random_density(2, 2, 1).matrix
        b = states.random_density(3, 2, 2).matrix
        c = states.random_density(2, 1, 3).matrix
        abc = np.kron(np.kron(a, b), c)
        assert np.abs(linalg.trace_out(abc, (2, 3, 2), 0) - np.kron(b, c)).max() < 1e-15
        assert np.abs(linalg.trace_out(abc, (2, 3, 2), 1) - np.kron(a, c)).max() < 1e-15
        assert np.abs(linalg.trace_out(abc, (2, 3, 2), 2) - np.kron(a, b)).max() < 1e-15


# Off-diagonal zeros of both signs, which halving by a complex division
# would turn into +0.0.
SIGNED_ZERO_STATE = [[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), 0.5]]


class TestHermitize:
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_idempotent_bit_for_bit(self, rng, layout):
        a = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        a = layout(a + a.conj().swapaxes(-1, -2))
        a[0, 0, 1], a[0, 1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        h = linalg.hermitize(a)
        assert np.array_equal(h, (a + a.conj().swapaxes(-1, -2)) / 2)
        assert linalg.hermitize(h).tobytes() == h.tobytes()
        signed = linalg.hermitize(SIGNED_ZERO_STATE)
        assert linalg.hermitize(signed).tobytes() == signed.tobytes()

    def test_state_with_signed_zeros_round_trips(self):
        rho = states.DensityOperator(SIGNED_ZERO_STATE)
        back = states.DensityOperator.from_json(rho.to_json())
        assert back.matrix.tobytes() == rho.matrix.tobytes()
        assert back.to_json() == rho.to_json()


class TestJsonForm:
    @pytest.mark.parametrize("shape", [(3,), (2, 2), (3, 4), (2, 3, 3)])
    def test_round_trip_exact(self, rng, shape):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        back = linalg.from_jsonable(json.loads(json.dumps(linalg.to_jsonable(m))))
        assert back.dtype == np.complex128
        assert np.array_equal(back, m)

    def test_round_trip_keeps_signed_zeros(self):
        m = np.array([complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0)])
        back = linalg.from_jsonable(json.loads(json.dumps(linalg.to_jsonable(m))))
        assert back.tobytes() == m.tobytes()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            linalg.from_jsonable({"re": [[1.0, 0.0], [0.0, 1.0]], "im": [0.0, 0.0]})

    def test_real_input_gets_zero_imaginary_part(self):
        doc = linalg.to_jsonable(np.eye(2))
        assert doc == {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}

    def test_texts_of_state_map_and_problem(self):
        # The JSON layout of each type is fixed, byte for byte: its
        # constructor fields by name.
        rho = states.DensityOperator(np.array([[0.75, 0.25j], [-0.25j, 0.25]]))
        matrix = ('{"re": [[0.75, 0.0], [0.0, 0.25]], '
                  '"im": [[0.0, 0.25], [-0.25, 0.0]]}')
        assert rho.to_json() == '{"matrix": ' + matrix + '}'
        pair = states.BipartiteState(2, 1, rho)
        assert pair.to_json() == '{"dimA": 2, "dimB": 1, "state": {"matrix": ' + matrix + '}}'
        phase = maps.from_kraus([np.diag([1, 1j])])
        assert phase.to_json() == (
            '{"dimIn": 2, "dimOut": 2, "superop": {"re": [[1.0, 0.0, 0.0, 0.0], '
            '[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], '
            '"im": [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], '
            '[0.0, 0.0, 0.0, 0.0]]}}'
        )
        prob = sdp.SdpProblem(
            C=[np.array([[1, 0.5j], [-0.5j, 2]])], A=np.eye(2)[None], b=[1.0]
        )
        assert prob.to_json() == (
            '{"C": [{"re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.5], [-0.5, 0.0]]}], '
            '"A": {"re": [[[1.0, 0.0], [0.0, 1.0]]], "im": [[[0.0, 0.0], [0.0, 0.0]]]}, '
            '"b": [1.0]}'
        )


def json_objects():
    """One object of each type with a JSON form, each holding signed zeros.
    The Hermitian matrices are exactly Hermitian, conj(0j) being -0j, so the
    constructors' symmetrization keeps their bits."""
    zeros = np.array([[0.5, complex(0.0, -0.0)], [0.0, 0.5]])
    rho = states.DensityOperator(zeros)
    superop = np.eye(4, dtype=complex)
    superop[1, 2] = superop[2, 1] = complex(-0.0, -0.0)
    return {
        "DensityOperator": rho,
        "BipartiteState": states.BipartiteState(1, 2, rho),
        "QuantumMap": maps.QuantumMap(2, 2, superop),
        "SdpProblem": sdp.SdpProblem(C=[zeros], A=np.diag([1.0, 2.0])[None], b=[1.0]),
    }


def arrays(obj):
    if isinstance(obj, sdp.SdpProblem):
        return [*obj.C, obj.A, obj.b]
    return [obj.superop if isinstance(obj, maps.QuantumMap) else obj.matrix]


class TestObjectJson:
    @pytest.mark.parametrize("name", list(json_objects()))
    def test_round_trip_bit_for_bit(self, name):
        obj = json_objects()[name]
        text = obj.to_json()
        assert "-0.0" in text
        back = type(obj).from_json(text)
        assert type(back) is type(obj)
        # json writes every float64 exactly, signed zeros included.
        assert back.to_json() == text
        assert [a.tobytes() for a in arrays(back)] == [a.tobytes() for a in arrays(obj)]
        if name == "SdpProblem":
            assert sdp.solve(back).primal_value == sdp.solve(obj).primal_value
