import json

import numpy as np
import pytest

from nonmarkov import linalg, states
from nonmarkov.states import (
    BipartiteState,
    DensityOperator,
    Povm,
    StateEnsemble,
    basis_state,
    make_cq,
    max_entangled,
    max_entangled_vector,
    maximally_mixed,
    partial_trace,
    pure_state,
    purify,
    random_density,
    schmidt_rank,
    tensor,
)


def ket(*amps):
    return pure_state(np.array(amps, dtype=complex))


PLUS = ket(1, 1)


class TestDensityOperator:
    def test_valid(self):
        rho = DensityOperator(np.diag([0.25, 0.75]))
        assert rho.dim == 2

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(linalg.NotHermitianError):
            DensityOperator(m)


class TestTensorPartialTrace:
    def test_basis_case(self):
        s = tensor(basis_state(2, 0), basis_state(2, 1))
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0  # |01> at A-major index 0*2+1
        assert np.allclose(s.matrix, expect)

    def test_mixed_case(self):
        s = tensor(maximally_mixed(2), maximally_mixed(2))
        assert np.allclose(s.matrix, np.eye(4) / 4)

    def test_inverse_pair(self, rng):
        a = random_density(2, 2, 11)
        b = random_density(3, 3, 12)
        s = tensor(a, b)
        assert np.abs(partial_trace(s, "B").matrix - a.matrix).max() < 1e-12
        assert np.abs(partial_trace(s, "A").matrix - b.matrix).max() < 1e-12

    def test_bell_marginal(self):
        psi = max_entangled(2)
        assert np.abs(partial_trace(psi, "B").matrix - np.eye(2) / 2).max() < 1e-12

    def test_marginal_rejects_unknown_label(self):
        psi = max_entangled(2)
        assert np.abs(psi.marginal("A").matrix - np.eye(2) / 2).max() < 1e-12
        with pytest.raises(ValueError, match="'A' or 'B'"):
            psi.marginal("x")

    @pytest.mark.parametrize("which", ["x", "a", "AB", None])
    def test_partial_trace_rejects_unknown_label(self, which):
        with pytest.raises(ValueError, match="'A' or 'B'"):
            partial_trace(max_entangled(2), which)

    def test_basis_state_index_in_range(self):
        assert basis_state(3, 2).matrix[2, 2] == 1.0
        assert basis_state(3, np.int64(0)).matrix[0, 0] == 1.0
        for i in (-1, 3, 5, 1.0, True):
            with pytest.raises(ValueError, match="basis index"):
                basis_state(3, i)

    def test_trace_preserved_2x3(self):
        # independent oracle: direct index contraction
        rho = random_density(6, 6, 77)
        s = BipartiteState(2, 3, rho)
        m = rho.matrix.reshape(2, 3, 2, 3)
        oracle = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for c in range(2):
                oracle[a, c] = sum(m[a, b, c, b] for b in range(3))
        got = partial_trace(s, "B").matrix
        assert np.abs(got - oracle).max() < 1e-14
        assert abs(np.trace(got) - 1) < 1e-12


class TestMaxEntangled:
    def test_definition(self):
        psi = max_entangled(2)
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(psi.matrix - np.outer(v, v)).max() < 1e-14

    def test_purity(self):
        assert max_entangled(3).state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_schmidt_rank(self):
        for d in (2, 3):
            assert schmidt_rank(max_entangled_vector(d), d, d) == d

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestPurify:
    def test_pure_input_trivial_reference(self):
        psi = max_entangled(2)
        tri = purify(psi)
        assert tri.dimC == 1
        assert np.abs(tri.marginal_ab().matrix - psi.matrix).max() < 1e-9

    def test_maximally_mixed_single(self):
        s = BipartiteState(2, 1, maximally_mixed(2))
        tri = purify(s)
        assert tri.dimC == 2
        # recovered marginal is I/2
        assert np.abs(tri.marginal_ab().matrix - np.eye(2) / 2).max() < 1e-9

    def test_random_rank3_recovery(self):
        rho = random_density(4, 3, 5)
        s = BipartiteState(2, 2, rho)
        tri = purify(s)
        assert tri.dimC == 3
        assert tri.state.purity() == pytest.approx(1.0, abs=1e-10)
        assert np.abs(tri.marginal_ab().matrix - rho.matrix).max() < 1e-9


class TestSchmidt:
    def test_product_state(self):
        v = np.kron(np.array([1, 0]), np.array([1, 1]) / np.sqrt(2))
        assert schmidt_rank(v, 2, 2) == 1

    def test_skewed_superposition(self):
        # (2|00> + |11>)/sqrt5: singular values 2/sqrt5, 1/sqrt5
        v = np.array([2, 0, 0, 1]) / np.sqrt(5)
        assert schmidt_rank(v, 2, 2) == 2

    def test_matches_reduced_rank(self):
        for seed in range(5):
            v = states.random_pure_vector(6, seed)
            s = BipartiteState(2, 3, pure_state(v))
            red = partial_trace(s, "B").matrix
            w = np.linalg.eigvalsh(red)
            rank = int((w > linalg.support_cut(w)).sum())
            assert schmidt_rank(v, 2, 3) == rank

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
    def test_rank_does_not_depend_on_norm(self, scale):
        product = np.kron(np.array([1, 0]), np.array([1, 1]) / np.sqrt(2))
        assert schmidt_rank(scale * max_entangled_vector(2), 2, 2) == 2
        assert schmidt_rank(scale * np.array([2, 0, 0, 1]) / np.sqrt(5), 2, 2) == 2
        assert schmidt_rank(scale * product, 2, 2) == 1

    def test_zero_vector_has_rank_zero(self):
        assert schmidt_rank(np.zeros(6), 2, 3) == 0


class TestCq:
    def test_single_state(self):
        rho = random_density(2, 2, 1)
        cq = make_cq([1.0], [rho])
        assert np.abs(cq.matrix[:2, :2] - rho.matrix).max() < 1e-14

    def test_two_orthogonal(self):
        cq = make_cq([0.5, 0.5], [basis_state(2, 0), basis_state(2, 1)])
        assert np.abs(partial_trace(cq, "B").matrix - np.eye(2) / 2).max() < 1e-12

    def test_marginal_b_is_average(self):
        ens = [random_density(3, 3, s) for s in (4, 5, 6)]
        p = [0.5, 0.3, 0.2]
        cq = make_cq(p, ens)
        avg = sum(pi * e.matrix for pi, e in zip(p, ens))
        assert np.abs(partial_trace(cq, "A").matrix - avg).max() < 1e-12


class TestRandomDensity:
    def test_pure_rank1(self):
        rho = random_density(3, 1, 42)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_determinism(self):
        a = random_density(4, 2, 123)
        b = random_density(4, 2, 123)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank(self):
        rho = random_density(4, 2, 7)
        w = np.linalg.eigvalsh(rho.matrix)
        assert int((w > linalg.support_cut(w)).sum()) == 2

    def test_mean_is_maximally_mixed(self):
        # unitary invariance of the sampling law; 10^4 samples
        acc = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for s in range(n):
            acc += random_density(2, 2, s).matrix
        assert np.abs(acc / n - np.eye(2) / 2).max() < 5e-2

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            random_density(2, 3, 0)


class TestEnsemblePovm:
    def test_ensemble_invariants(self):
        with pytest.raises(ValueError):
            StateEnsemble(np.array([0.5, 0.4]), [basis_state(2, 0), basis_state(2, 1)])
        with pytest.raises(ValueError):
            StateEnsemble(np.array([1.0]), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ensemble_rejects_non_finite_probs(self, bad):
        # NaN compares false in both the sign and the sum test
        with pytest.raises(ValueError, match="finite"):
            StateEnsemble([bad, 0.5], [basis_state(2, 0), basis_state(2, 1)])

    def test_povm_sums_to_identity(self):
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError):
            Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])


class TestDimensions:
    @pytest.mark.parametrize("dims", [(2.0, 2), (2, np.float64(2.0)), (0, 4), (True, 4)])
    def test_bipartite_rejects_non_integer_dimensions(self, dims):
        with pytest.raises(ValueError, match="positive integer"):
            BipartiteState(*dims, maximally_mixed(4))

    def test_tripartite_rejects_non_integer_dimensions(self):
        with pytest.raises(ValueError, match="positive integer"):
            states.TripartiteState(2, 2.0, 1, maximally_mixed(4))

    def test_numpy_dimensions_stored_as_python_ints(self):
        s = BipartiteState(np.int64(2), np.uint8(2), maximally_mixed(4))
        t = states.TripartiteState(np.int64(2), 2, np.int32(1), maximally_mixed(4))
        assert {type(d) for d in (s.dimA, s.dimB, t.dimA, t.dimB, t.dimC)} == {int}

    @pytest.mark.parametrize("dim, rank", [(2, 1.5), (2, 2.0), (2.0, 1), (2, 0), (2, True)])
    def test_random_density_rejects_bad_rank_and_dim(self, dim, rank):
        with pytest.raises(ValueError, match="positive integer"):
            random_density(dim, rank, 0)


class TestJson:
    @pytest.mark.parametrize("dims", [[2.9, 2.2], [2.0, 2.0], [4, 1.0], ["2", 2]])
    def test_rejects_non_integer_dims(self, dims):
        doc = json.loads(max_entangled(2).to_json())
        doc["dims"] = dims
        with pytest.raises(ValueError, match="positive integer"):
            BipartiteState.from_json(json.dumps(doc))

    def test_dumps_rejects_non_integer_dims(self):
        with pytest.raises(ValueError, match="positive integer"):
            states.dumps_state(np.eye(4) / 4, [2.9, 1.6])

    @pytest.mark.parametrize("dims", [[3], [2, 3], [4, 2]])
    def test_dumps_rejects_dims_its_loader_would(self, dims):
        # dumps_state and loads_state apply one shape check
        with pytest.raises(ValueError, match="does not match dims"):
            states.dumps_state(np.eye(4) / 4, dims)
        doc = {"dims": dims, **linalg.to_jsonable(np.eye(4) / 4)}
        with pytest.raises(ValueError, match="does not match dims"):
            states.loads_state(json.dumps(doc))

    def test_round_trip_exact(self):
        rho = random_density(3, 2, 99)
        back = DensityOperator.from_json(rho.to_json())
        assert np.array_equal(back.matrix, rho.matrix)

    def test_bipartite_round_trip(self):
        s = max_entangled(2)
        back = BipartiteState.from_json(s.to_json())
        assert back.dimA == 2 and back.dimB == 2
        assert np.array_equal(back.matrix, s.matrix)
