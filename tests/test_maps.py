import json

import numpy as np
import pytest

from nonmarkov import _accel, dynamics, linalg, maps, states
from nonmarkov.maps import (
    NonInvertibleMapError,
    QuantumMap,
    adjoint,
    amplify,
    choi,
    choi_quadratic_form,
    compose,
    depolarizing,
    from_choi,
    from_kraus,
    identity_map,
    inverse,
    is_cptp,
    k_positivity,
    replacer,
    transposition_map,
    unitary_map,
)
from test_dynamics import family_of, rk4_family

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def amplitude_damping_kraus(p):
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return [k0, k1]


def pauli_channel(p0, p1, p2, p3):
    return maps.mix(
        [identity_map(2), unitary_map(SX), unitary_map(SY), unitary_map(SZ)],
        [p0, p1, p2, p3],
    )


class TestFromKraus:
    def test_unitary_superop_is_conj_kron(self):
        m = unitary_map(HAD)
        assert np.abs(m.superop - np.kron(HAD.conj(), HAD)).max() < 1e-14

    def test_full_damping_is_constant_map(self):
        m = from_kraus(amplitude_damping_kraus(1.0))
        rho = states.random_density(2, 2, 3).matrix
        out = m.apply(rho)
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12

    def test_kraus_completeness_gives_cptp(self, rng):
        for seed in range(5):
            m = maps.random_cptp(3, 2, seed)
            rep = is_cptp(m)
            assert rep["cp"] and rep["tp"]

    def test_apply_matches_kraus_action(self, rng):
        ops = amplitude_damping_kraus(0.3)
        m = from_kraus(ops)
        rho = states.random_density(2, 2, 8).matrix
        direct = sum(k @ rho @ k.conj().T for k in ops)
        assert np.abs(m.apply(rho) - direct).max() < 1e-14


class TestChoi:
    def test_identity_choi_is_unnormalized_bell(self):
        j = choi(identity_map(2))
        v = np.array([1, 0, 0, 1], dtype=complex)
        assert np.abs(j - np.outer(v, v)).max() < 1e-14

    def test_depolarizing_choi(self):
        j = choi(depolarizing(1.0, 2))
        # summing the definition: Phi(E_ij) = delta_ij I/2
        expect = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, i] = 1.0
            expect += np.kron(np.eye(2) / 2, e)
        assert np.abs(j - expect).max() < 1e-14

    def test_trace_of_choi_is_dim(self):
        for m in (identity_map(3), depolarizing(0.4, 2), from_kraus(amplitude_damping_kraus(0.2))):
            assert np.trace(choi(m)).real == pytest.approx(m.dimIn, abs=1e-12)

    def test_round_trip(self):
        m = maps.random_cptp(2, 3, 11)
        back = from_choi(choi(m), m.dimIn, m.dimOut)
        assert np.abs(back.superop - m.superop).max() < 1e-12

    def test_choi_hermitian_for_hermiticity_preserving(self):
        m = maps.weighted_difference(identity_map(2), depolarizing(0.7, 2), 0.4, 0.6)
        j = choi(m)
        assert np.abs(j - j.conj().T).max() < 1e-10


class TestAlgebra:
    def test_compose_identity(self):
        g = maps.random_cptp(2, 2, 1)
        assert np.abs(compose(identity_map(2), g).superop - g.superop).max() < 1e-14

    def test_compose_unitaries(self):
        u = states.random_unitary(2, 4)
        v = states.random_unitary(2, 5)
        lhs = compose(unitary_map(u), unitary_map(v)).superop
        rhs = unitary_map(u @ v).superop
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_compose_matches_sequential_apply(self):
        f = maps.random_cptp(2, 2, 6)
        g = maps.random_cptp(2, 2, 7)
        rho = states.random_density(2, 2, 8).matrix
        assert np.abs(compose(f, g).apply(rho) - f.apply(g.apply(rho))).max() < 1e-12

    def test_inverse_unitary(self):
        u = states.random_unitary(2, 9)
        inv = inverse(unitary_map(u))
        assert np.abs(inv.superop - unitary_map(u.conj().T).superop).max() < 1e-12

    def test_inverse_residual(self):
        g = maps.random_cptp(2, 2, 10)
        ident = compose(inverse(g), g)
        assert np.abs(ident.superop - np.eye(4)).max() < 1e-8

    def test_depolarizing_not_invertible(self):
        with pytest.raises(NonInvertibleMapError) as exc:
            inverse(depolarizing(1.0, 2))
        assert exc.value.sigma_min < 1e-12

    def test_family_inverse_matches_inv_per_map(self):
        ms = [maps.random_cptp(3, 2, seed) for seed in (11, 12, 13)]
        invs = inverse(family_of(ms))
        for j, m in enumerate(ms):
            assert invs[j].superop.tobytes() == np.linalg.inv(m.superop).tobytes()
            assert invs[j].superop.tobytes() == inverse(m).superop.tobytes()

    def test_family_inverse_raises_at_the_first_singular_map(self):
        # Two singular maps: the error carries the first one's singular values.
        first, second = depolarizing(1.0, 2), replacer(np.diag([0.25, 0.75]))
        ms = [maps.random_cptp(2, 2, 14), first, second]
        with pytest.raises(NonInvertibleMapError) as exc:
            inverse(family_of(ms))
        sv = np.linalg.svd(first.superop, compute_uv=False)
        assert (exc.value.sigma_min, exc.value.sigma_max) == (float(sv[-1]), float(sv[0]))
        assert sv[0] != np.linalg.svd(second.superop, compute_uv=False)[0]

    def test_pauli_map_inverse_eigenvalues(self):
        m = pauli_channel(0.7, 0.1, 0.1, 0.1)
        inv = inverse(m)
        for sigma, lam in zip(
            (SX, SY, SZ), (0.6, 0.6, 0.6)  # eigenvalues p0+pi-pj-pk
        ):
            out = inv.apply(sigma)
            assert np.abs(out - sigma / lam).max() < 1e-12


class TestFamily:
    """A family QuantumMap acts as each of its maps does alone, bit for bit."""

    MAPS = [maps.random_cptp(2, 2, 60), transposition_map(2), depolarizing(0.4)]

    def test_indexing_gives_each_map(self):
        fam = family_of(self.MAPS)
        for j, m in enumerate(self.MAPS):
            assert fam[j].superop.tobytes() == m.superop.tobytes()
            assert fam[j].hermitian_choi.tobytes() == m.hermitian_choi.tobytes()
        assert [g.superop.tobytes() for g in fam] == [m.superop.tobytes() for m in self.MAPS]
        assert fam[1:].superop.tobytes() == family_of(self.MAPS[1:]).superop.tobytes()
        assert fam[3:].superop.shape == (0, 4, 4)
        with pytest.raises(IndexError):
            fam[3]

    def test_choi_and_tensor_per_map(self):
        fam = family_of(self.MAPS)
        for j, m in enumerate(self.MAPS):
            assert choi(fam)[j].tobytes() == choi(m).tobytes()
            assert np.array_equal(fam.as_tensor()[j], m.as_tensor())

    def test_compose_and_adjoint_per_map(self):
        fam = family_of(self.MAPS)
        f = maps.random_cptp(2, 2, 61)
        for j, m in enumerate(self.MAPS):
            assert compose(fam, fam)[j].superop.tobytes() == compose(m, m).superop.tobytes()
            assert compose(f, fam)[j].superop.tobytes() == compose(f, m).superop.tobytes()
            assert adjoint(fam)[j].superop.tobytes() == adjoint(m).superop.tobytes()

    def test_rectangular_family(self):
        kraus = np.random.default_rng(62).standard_normal((3, 3, 2))
        ms = [from_kraus([k]) for k in kraus]  # 2 -> 3 maps
        fam = family_of(ms)
        assert (fam.dimIn, fam.dimOut, fam.superop.shape) == (2, 3, (3, 9, 4))
        assert choi(fam)[2].tobytes() == choi(ms[2]).tobytes()

    def test_checks_every_map(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        stack = np.stack([np.eye(4), np.kron(bad.conj(), np.eye(2))])
        with pytest.raises(linalg.NotHermitianError):
            QuantumMap(2, 2, stack)
        stack = np.stack([np.eye(4), np.eye(4)])
        stack[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            QuantumMap(2, 2, stack)
        with pytest.raises(ValueError, match="superop shape"):
            QuantumMap(2, 2, np.zeros((1, 1, 4, 4)))


class TestAdjoint:
    def test_unitary(self):
        u = states.random_unitary(3, 2)
        adj = adjoint(unitary_map(u))
        assert np.abs(adj.superop - unitary_map(u.conj().T).superop).max() < 1e-12

    def test_duality_on_basis(self, rng):
        m = maps.random_cptp(2, 3, 13)
        adj = adjoint(m)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.trace(a.conj().T @ m.apply(b))
            rhs = np.trace(adj.apply(a).conj().T @ b)
            assert abs(lhs - rhs) < 1e-10

    def test_tp_adjoint_unital(self):
        m = maps.random_cptp(2, 2, 14)
        assert np.abs(adjoint(m).apply(np.eye(2)) - np.eye(2)).max() < 1e-9

    def test_involution(self):
        m = maps.random_cptp(2, 2, 15)
        assert np.abs(adjoint(adjoint(m)).superop - m.superop).max() < 1e-12


class TestAmplify:
    def test_k1_is_same(self):
        m = maps.random_cptp(2, 2, 16)
        assert amplify(m, 1) is m

    @pytest.mark.parametrize("k", [0, -2, True, 2.0, 1.5, "2"])
    def test_rejects_non_positive_integer_k(self, k):
        with pytest.raises(ValueError, match="positive integer"):
            amplify(maps.random_cptp(2, 2, 16), k)

    def test_amplified_identity(self):
        assert np.abs(amplify(identity_map(2), 3).superop - np.eye(36)).max() < 1e-14

    def test_product_factorization(self):
        m = maps.random_cptp(2, 2, 17)
        a = states.random_density(2, 2, 18).matrix
        rho = states.random_density(2, 2, 19).matrix
        big = amplify(m, 2).apply(np.kron(a, rho))
        assert np.abs(big - np.kron(a, m.apply(rho))).max() < 1e-12

    def test_amplified_map_is_cptp(self):
        m = maps.random_cptp(2, 2, 20)
        rep = is_cptp(amplify(m, 2))
        assert rep["cp"] and rep["tp"]


class TestIsCptp:
    def test_unitary(self):
        rep = is_cptp(unitary_map(states.random_unitary(2, 21)))
        assert rep["cp"] and rep["tp"]

    def test_transposition(self):
        rep = is_cptp(transposition_map(2))
        assert not rep["cp"]
        assert rep["min_choi_eig"] == pytest.approx(-1.0, abs=1e-12)
        assert rep["tp"]

    def test_convex_mix(self):
        m = maps.mix([maps.random_cptp(2, 2, s) for s in (22, 23)], [0.5, 0.5])
        rep = is_cptp(m)
        assert rep["cp"] and rep["tp"]

    def test_family_reports_one_array_per_key(self):
        ms = [unitary_map(states.random_unitary(2, 21)), transposition_map(2),
              maps.mix([identity_map(2)], [1.5])]
        rep = is_cptp(family_of(ms))
        assert all(isinstance(v, np.ndarray) and v.shape == (3,) for v in rep.values())
        alone = [is_cptp(m) for m in ms]
        assert all(type(v) in (bool, float) for v in alone[0].values())
        assert [{key: v[j].item() for key, v in rep.items()} for j in range(3)] == alone
        assert rep["cp"].tolist() == [True, False, True]
        assert rep["tp"].tolist() == [True, True, False]

    def test_mix_rejects_mismatched_inputs(self):
        a, b = maps.random_cptp(2, 2, 22), maps.random_cptp(2, 2, 23)
        for ms, probs in [([a, b], [0.5]), ([a], [0.5, 0.5]), ([], []),
                          ([a, maps.random_cptp(3, 2, 24)], [0.5, 0.5]),
                          ([a, from_kraus([np.eye(3, 2)])], [0.5, 0.5])]:
            with pytest.raises(ValueError):
                maps.mix(ms, probs)


class TestKPositivity:
    def test_exact_path_cptp(self):
        m = maps.random_cptp(2, 2, 25)
        cert = k_positivity(m, 2, restarts=4, seed=0)
        assert cert.min_value >= -1e-9
        assert cert.min_value == pytest.approx(linalg.min_eig(choi(m)), abs=1e-12)
        assert cert.verdict == "heuristically-nonnegative"

    def test_transposition_k1_nonnegative(self):
        cert = k_positivity(transposition_map(2), 1, restarts=32, seed=1)
        # <a (x) b|J|a (x) b> = |<a|conj(b)>|^2 >= 0
        assert cert.verdict == "heuristically-nonnegative"
        assert cert.min_value >= -1e-12

    def test_transposition_k2_certified_negative(self):
        cert = k_positivity(transposition_map(2), 2, restarts=16, seed=2)
        assert cert.verdict == "certified-negative"
        assert cert.min_value == pytest.approx(-1.0, abs=1e-6)

    def test_min_value_is_quadratic_form_at_witness(self):
        cert = k_positivity(transposition_map(3), 2, restarts=16, seed=3)
        j = choi(transposition_map(3))
        q = maps.choi_quadratic_form(j, cert.witness)
        assert abs(cert.min_value - q) < 1e-10

    def test_witness_schmidt_rank_bounded(self):
        cert = k_positivity(transposition_map(3), 2, restarts=8, seed=4)
        assert states.schmidt_rank(cert.witness, 3, 3) <= 2

    def test_monotone_in_k(self):
        # larger search set can only lower the minimum
        m = maps.weighted_difference(identity_map(3), transposition_map(3), 0.5, 0.5)
        vals = [k_positivity(m, k, restarts=24, seed=5).min_value for k in (1, 2, 3)]
        assert vals[0] >= vals[1] - 1e-9
        assert vals[1] >= vals[2] - 1e-9

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            k_positivity(identity_map(2), 3)

    def test_deterministic(self):
        a = k_positivity(transposition_map(2), 1, restarts=8, seed=7)
        b = k_positivity(transposition_map(2), 1, restarts=8, seed=7)
        assert a.min_value == b.min_value
        assert np.array_equal(a.witness, b.witness)

    def test_search_statistics(self):
        cert = k_positivity(transposition_map(2), 1, restarts=16, seed=8)
        assert 0 <= cert.restarts_converged <= cert.restarts_used
        assert cert.spread >= 0.0

    def test_exact_path_statistics_are_zero(self):
        cert = k_positivity(transposition_map(2), 2, restarts=4, seed=0)
        assert (cert.restarts_used, cert.restarts_converged, cert.spread) == (0, 0, 0.0)

    def test_seeded_values_pinned(self):
        # Recorded from the per-row matmul Hessians.  The witness lies in a
        # degenerate eigenspace, so any change to the Hessians' last bits
        # moves it; -1 is the exact minimum.
        cert = k_positivity(transposition_map(3), 2)
        assert float(cert.min_value).hex() == "-0x1.0000000000000p+0"
        assert [float(x).hex() for x in cert.witness.real] == [
            "0x1.ffffffffffffep-56", "-0x1.752718336431dp-3", "0x1.650006e9f7ef1p-3",
            "0x1.7527183364317p-3", "0x1.ffffffffffffep-55", "-0x1.8580a827f2d14p-4",
            "-0x1.650006e9f7eedp-3", "0x1.8580a827f2d18p-4", "0x1.ffffffffffffep-56",
        ]
        assert [float(x).hex() for x in cert.witness.imag] == [
            "-0x1.7fffffffffffep-56", "-0x1.1828bbc1ed5dep-1", "-0x1.31d7cb8780c11p-3",
            "0x1.1828bbc1ed5ddp-1", "0x0.0p+0", "0x1.4cda81f20d974p-2",
            "0x1.31d7cb8780c11p-3", "-0x1.4cda81f20d974p-2", "0x1.3ffffffffffffp-54",
        ]

    def test_seeded_divisibility_report_pinned(self):
        # Pinned on the RK4 family; propagate's exact path differs in the last bits.
        # The k = 1 values are those of sweeps that take each unit eigenvector
        # as it comes, with no renormalization.
        dm = rk4_family(dynamics.model("eternal"), dynamics.time_grid(2, 7))
        rep = dynamics.divisibility_report(dm, ks=[1, 2], restarts=40, seed=0)
        pinned = {
            1: ["0x1.f242c862329e7p-4", "0x1.52104b9cd2b37p-4", "0x1.9fc40fc06fec5p-5",
                "0x1.db2738fa7a97ep-6", "0x1.02f906a9cbd50p-6", "0x1.129a64259c151p-7"],
            2: ["-0x1.6abf75ad93db6p-43", "-0x1.4064f98ac1863p-4", "-0x1.2260c081fb4c7p-3",
                "-0x1.7b78fa2394880p-3", "-0x1.b18486b7ebc1dp-3", "-0x1.cfef7bddab2dap-3"],
        }
        for k, values in pinned.items():
            assert [float(s.certificates[k].min_value).hex() for s in rep.steps] == values
        # The k = 1 values that the QR and stacked-eigh sweeps gave: the
        # closed-form 2x2 sweeps round differently but reach the same minima.
        lapack_k1 = ["0x1.f242c862329e2p-4", "0x1.52104b9cd2b35p-4", "0x1.9fc40fc06fef5p-5",
                     "0x1.db2738fa7a980p-6", "0x1.02f906a9cbd56p-6", "0x1.129a64259c158p-7"]
        assert [s.certificates[1].min_value for s in rep.steps] == pytest.approx(
            [float.fromhex(x) for x in lapack_k1], rel=1e-14)


class TestKposScan:
    """The batched seesaw against one call per restart."""

    @staticmethod
    def assert_groups_best_of_single_restart_runs(j4, k, starts_l, starts_u):
        """Every output of one kpos_scan call on the stack j4 has, group by
        group, the bytes of that group's single-restart runs; returns the
        call's values and stop flags."""
        n_groups, dA, dB = j4.shape[:3]
        per_group = starts_l.shape[0] // n_groups
        batch = _accel.kpos_scan(j4, dA, dB, k, starts_l, starts_u)
        for grp in range(n_groups):
            val, best_l, best_u, vals, converged = (x[grp] for x in batch)
            single = [
                _accel.kpos_scan(j4[grp:grp + 1], dA, dB, k, starts_l[r:r + 1], starts_u[r:r + 1])
                for r in range(grp * per_group, (grp + 1) * per_group)
            ]
            assert vals.tobytes() == np.concatenate([s[3][0] for s in single]).tobytes()
            assert converged.tobytes() == np.concatenate([s[4][0] for s in single]).tobytes()
            r = int(np.argmin([s[0][0] for s in single]))
            assert val.tobytes() == single[r][0][0].tobytes()
            assert best_l.tobytes() == single[r][1][0].tobytes()
            assert best_u.tobytes() == single[r][2][0].tobytes()
            # Checks that do not run the scan: every restart ran a sweep, and
            # the best factors are the state that achieves the best value.
            assert np.isfinite(vals).all()
            psi = np.einsum("ai,bi->ab", best_l, best_u).reshape(dA * dB)
            jm = j4[grp].reshape(dA * dB, dA * dB)
            assert choi_quadratic_form(jm, psi) == pytest.approx(val, rel=1e-9, abs=1e-12)
        return batch[3], batch[4]

    @classmethod
    def assert_best_of_single_restart_runs(cls, d, k, dB=None):
        # J acts on C^d (x) C^dB; dB defaults to d.
        dB = dB or d
        rng = np.random.default_rng(3)
        g = rng.standard_normal((d * dB, d * dB)) + 1j * rng.standard_normal((d * dB, d * dB))
        j4 = np.ascontiguousarray(((g + g.conj().T) / 2).reshape(d, dB, d, dB))
        shape = (12, d, k)
        starts_l = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        shape_u = (12, dB, k)
        starts_u = rng.standard_normal(shape_u) + 1j * rng.standard_normal(shape_u)
        vals, converged = cls.assert_groups_best_of_single_restart_runs(
            j4[None], k, starts_l, starts_u)
        return vals[0], converged[0]

    @staticmethod
    def staggered_qubit_stack():
        """Three 2 (x) 2 Choi tensors, diag(0, 1, 2, 3) plus 0.1, 0.5 and 1
        times a random Hermitian matrix, with 12 restarts each.  Within 12
        sweeps its rows stop on eight different sweeps, 4, 5 and 7 to 12,
        and two never stop."""
        rng = np.random.default_rng(29)
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        herm = (g + g.conj().swapaxes(1, 2)) / 2
        eps = np.array([0.1, 0.5, 1.0])[:, None, None]
        j4 = (np.diag(np.arange(4.0)) + eps * herm).reshape(3, 2, 2, 2, 2)
        shape = (36, 2, 1)
        starts_l = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        starts_u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return j4, starts_l, starts_u

    @staticmethod
    def random_stack(dA, dB, k, groups, per_group, seed):
        """``groups`` random Hermitian Choi tensors on C^dA (x) C^dB, as their
        matrices and as the J4 stack, and two draws of L starts and one of U
        starts, ``per_group`` rows per group."""
        rng = np.random.default_rng(seed)
        n = dA * dB
        g = rng.standard_normal((groups, n, n)) + 1j * rng.standard_normal((groups, n, n))
        herm = (g + g.conj().swapaxes(1, 2)) / 2
        shape_l, shape_u = (groups * per_group, dA, k), (groups * per_group, dB, k)
        starts = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for shape in (shape_l, shape_l, shape_u)]
        return herm, herm.reshape(groups, dA, dB, dA, dB), *starts

    @pytest.mark.parametrize("k", [1, 2])
    def test_k1_normalizes_once_and_k2_takes_qr_every_sweep(self, monkeypatch, k):
        # A sweep takes two eigenpairs.  At k = 1 each is a unit eigenvector,
        # the next half-step's factor as it comes, so a call normalizes only
        # its U starts; at k = 2 both factors take a QR on every sweep.
        j4, starts_l, starts_u = self.staggered_qubit_stack()
        if k == 2:
            _, _, starts_l, _, starts_u = self.random_stack(2, 2, 2, 3, 12, seed=5)
        calls = {"normalize": 0, "qr": 0, "eigpair": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(_accel, "KPOS_ITERS", 12)
        monkeypatch.setattr(_accel, "_orthonormalize", counted("normalize", _accel._orthonormalize))
        monkeypatch.setattr(_accel, "_lowest_eigpair", counted("eigpair", _accel._lowest_eigpair))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        _accel.kpos_scan(j4, 2, 2, k, starts_l, starts_u)
        if k == 1:
            # Two rows never stop, so all 12 sweeps run.
            assert calls == {"normalize": 1, "qr": 0, "eigpair": 24}
        else:
            assert calls["eigpair"] >= 4
            assert calls["qr"] == calls["normalize"] == calls["eigpair"]

    @pytest.mark.parametrize("dA, dB", [(2, 2), (2, 3), (3, 2)])
    def test_k1_best_factors_are_unit_and_give_their_value(self, dA, dB):
        # The k = 1 sweeps use each eigenvector as it comes: the closed form
        # on 2 (x) 2, eigh on the others.  The factors they return are unit
        # vectors whose product state gives the group's best value.
        herm, j4, _, starts_l, starts_u = self.random_stack(dA, dB, 1, 3, 8, seed=17)
        val, best_l, best_u, _, _ = _accel.kpos_scan(j4, dA, dB, 1, starts_l, 5 * starts_u)
        for best in (best_l, best_u):
            assert np.abs(np.linalg.norm(best[:, :, 0], axis=1) - 1).max() <= 1e-14
        for grp in range(3):
            psi = np.kron(best_l[grp, :, 0], best_u[grp, :, 0])
            assert choi_quadratic_form(herm[grp], psi) == pytest.approx(val[grp], rel=1e-12)

    @pytest.mark.parametrize("dA, dB, k", [(2, 2, 1), (2, 3, 1), (3, 3, 2)])
    def test_l_starts_are_never_read(self, dA, dB, k):
        # The first L-step overwrites every L, so the search starts from the
        # U starts alone.
        _, j4, starts_l, other_l, starts_u = self.random_stack(dA, dB, k, 2, 6, seed=23)
        first = _accel.kpos_scan(j4, dA, dB, k, starts_l, starts_u)
        second = _accel.kpos_scan(j4, dA, dB, k, other_l, starts_u)
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d, k", [(4, 1), (4, 2)])
    def test_best_of_single_restart_runs(self, d, k):
        # A random Hermitian J has several local minima; its restarts stop on
        # different sweeps and some exhaust the sweep budget.
        vals, converged = self.assert_best_of_single_restart_runs(d, k)
        assert len(np.unique(np.round(vals, 6))) > 1
        assert 0 < converged.sum() < len(vals)

    def test_closed_form_sweeps_best_of_single_restart_runs(self, monkeypatch):
        # On 2 (x) 2 at k = 1 every sweep takes the closed-form 2x2 eigenpair
        # and every restart of this J reaches one minimum; a budget of 8
        # sweeps still makes restarts stop on different sweeps.
        monkeypatch.setattr(_accel, "KPOS_ITERS", 8)
        _, converged = self.assert_best_of_single_restart_runs(2, 1)
        assert 0 < converged.sum() < len(converged)

    @pytest.mark.parametrize("iters", range(1, 13))
    def test_compacted_write_back_matches_single_restart_runs(self, monkeypatch, iters):
        # A batched scan writes a row back on the sweep where it stops and
        # the rows still active after its last sweep; a single-restart run
        # has nothing to compact.  With a budget of `iters` sweeps, rows
        # stop before the last sweep, on it (at every budget where a row of
        # this stack stops), or never.
        j4, starts_l, starts_u = self.staggered_qubit_stack()
        monkeypatch.setattr(_accel, "KPOS_ITERS", iters - 1)
        before = _accel.kpos_scan(j4, 2, 2, 1, starts_l, starts_u)[4]
        monkeypatch.setattr(_accel, "KPOS_ITERS", iters)
        _, converged = self.assert_groups_best_of_single_restart_runs(j4, 1, starts_l, starts_u)
        assert (~converged).any()
        assert not (before & ~converged).any()
        if iters in (4, 5, 7, 8, 9, 10, 11, 12):
            assert (converged & ~before).any()

    # (dA, dB) = (2, 3) is a qutrit-to-qubit map's Choi tensor, (4, 2) a
    # qubit-to-ququart one.  At k = 1 and on (4, 3) at k = 2 the restarts
    # stop on different sweeps.  At k = 2 on (2, 3) and (4, 2) the rank
    # bound is vacuous, and every restart stops on sweep 2.
    @pytest.mark.parametrize("dA, dB, k", [(2, 3, 1), (4, 2, 1), (2, 3, 2), (4, 2, 2), (4, 3, 2)])
    def test_rectangular_best_of_single_restart_runs(self, dA, dB, k):
        self.assert_best_of_single_restart_runs(dA, k, dB=dB)

    @pytest.mark.parametrize("k", [1, 2])
    def test_groups_match_their_calls_alone(self, monkeypatch, k):
        # The identity's restarts all stop on sweep 2, so its span of active
        # rows empties between the two random groups' spans.
        dA, dB, per_group = 4, 3, 6
        rng = np.random.default_rng(8)
        n = dA * dB
        g = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
        herm = (g + g.conj().swapaxes(1, 2)) / 2
        j4 = np.stack([herm[0], np.eye(n), herm[1]]).reshape(3, dA, dB, dA, dB)
        shape_l, shape_u = (3 * per_group, dA, k), (3 * per_group, dB, k)
        starts_l = rng.standard_normal(shape_l) + 1j * rng.standard_normal(shape_l)
        starts_u = rng.standard_normal(shape_u) + 1j * rng.standard_normal(shape_u)
        batch = _accel.kpos_scan(j4, dA, dB, k, starts_l, starts_u)
        with monkeypatch.context() as patch:
            patch.setattr(_accel, "KPOS_ITERS", 2)
            early = _accel.kpos_scan(j4, dA, dB, k, starts_l, starts_u)[4]
        assert early[1].all() and not early[0].any() and not early[2].any()
        for grp in range(3):
            rows = slice(grp * per_group, (grp + 1) * per_group)
            alone = _accel.kpos_scan(j4[grp:grp + 1], dA, dB, k, starts_l[rows], starts_u[rows])
            for out, out_alone in zip(batch, alone):
                assert np.array_equal(out[grp], out_alone[0])


class TestQuadraticForms:
    """The per-row matmul Hessians against the einsum contraction of J4 that
    the seesaw's half-steps used before."""

    @pytest.mark.parametrize("dA, dB, k", [(2, 2, 1), (2, 3, 1), (3, 2, 2), (4, 3, 2), (3, 3, 2)])
    def test_matches_einsum(self, dA, dB, k):
        rng = np.random.default_rng(21)
        n = dA * dB
        g = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        j4 = ((g + g.conj().swapaxes(1, 2)) / 2).reshape(3, dA, dB, dA, dB)
        jl, ju = _accel._half_step_matrices(j4)
        # Three groups whose spans hold 5, 0 and 2 rows.
        cut = [0, 5, 5, 7]
        zbuf = np.empty(7 * (k * max(dA, dB)) ** 2, dtype=np.complex128)
        hbuf = np.empty_like(zbuf)
        half_steps = [(dB, dA, jl, "rbi,abcd,rdj->raicj"), (dA, dB, ju, "rai,abcd,rcj->rbidj")]
        for fixed, free, jm, spec in half_steps:
            x = rng.standard_normal((7, fixed, k)) + 1j * rng.standard_normal((7, fixed, k))
            step = _accel._half_step(jm, cut, k, zbuf, hbuf)
            h, work = _accel._quadratic_forms(x, step)
            # The buffer left free for the Hermitian part is not the Hessians'.
            assert not np.shares_memory(h, work)
            oracle = np.concatenate([
                np.einsum(spec, x[lo:hi].conj(), j4[grp], x[lo:hi])
                for grp, (lo, hi) in enumerate(zip(cut[:-1], cut[1:]))
            ]).reshape(7, free * k, free * k)
            assert h.shape == oracle.shape
            assert np.abs(h - oracle).max() <= 1e-13 * np.abs(oracle).max()


class TestCheckPositiveInt:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.int32(2), np.uint8(5)])
    def test_accepts_integers(self, value):
        n = linalg.check_positive_int(value, "restarts")
        assert n == value
        assert type(n) is int

    @pytest.mark.parametrize("value", [
        0, -2, np.int64(0), 1.5, 2.0, np.float64(2.0), True, False, np.True_, "3", None])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match="restarts must be a positive integer"):
            linalg.check_positive_int(value, "restarts")


def hermitian_2x2_edge_cases():
    """2x2 Hermitian stacks on which the closed form must match eigh."""
    rng = np.random.default_rng(11)
    g = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    edges = [
        np.diag([3.0, -1.0]), np.diag([-1.0, 3.0]), np.diag([2.0, 2.0]),
        np.zeros((2, 2)), np.array([[1.0, 2j], [-2j, 1.0]]),
        np.array([[0.5, -3j], [3j, -0.25]]), np.array([[1.0, 1 + 1j], [1 - 1j, -1.0]]),
    ]
    cases = list((g + g.conj().swapaxes(1, 2)) / 2) + edges
    # Squares of entries at these scales overflow or lose bits as subnormals.
    for scale in (1e160, 1e-160):
        cases += [scale * c for c in cases[:8] + edges]
    return np.array(cases, dtype=np.complex128)


class TestLowestEigpair:
    """The closed-form 2x2 eigenpair against np.linalg.eigh."""

    def test_matches_eigh(self):
        h = hermitian_2x2_edge_cases()
        lam, v = _accel._lowest_eigpair(h)
        eps = np.finfo(float).eps
        scale = np.linalg.norm(h, ord=2, axis=(1, 2))
        assert np.all(np.abs(lam - np.linalg.eigvalsh(h)[:, 0]) <= 4 * eps * scale)
        residual = np.einsum("rij,rj->ri", h, v) - lam[:, None] * v
        assert np.all(np.linalg.norm(residual, axis=1) <= 8 * eps * scale)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1) <= 4 * eps)

    def test_multiple_of_identity_gives_e1(self):
        h = np.array([np.zeros((2, 2)), 2 * np.eye(2)], dtype=np.complex128)
        lam, v = _accel._lowest_eigpair(h)
        assert np.array_equal(lam, [0.0, 2.0])
        assert np.array_equal(v, [[1, 0], [1, 0]])

    def test_reads_the_hermitian_part(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((8, 2, 2)) + 1j * rng.standard_normal((8, 2, 2))
        herm = (h + h.conj().swapaxes(1, 2)) / 2
        lam, v = _accel._lowest_eigpair(h)
        lam_h, v_h = _accel._lowest_eigpair(herm)
        assert np.array_equal(lam, lam_h)
        assert np.array_equal(v, v_h)

    def test_other_sizes_take_eigh(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        w, u = np.linalg.eigh((g + g.conj().swapaxes(1, 2)) / 2)
        lam, v = _accel._lowest_eigpair(g)
        assert np.array_equal(lam, w[:, 0])
        assert np.array_equal(v, u[:, :, 0])


def certificate_bits(c):
    return (float(c.min_value).hex(), c.witness.tobytes(), c.restarts_used,
            c.restarts_converged, float(c.spread).hex(), c.verdict)


def library_family(name):
    m = dynamics.model(name)
    if isinstance(m, dynamics.TotalSystemModel):
        return dynamics.reduce(m, dynamics.time_grid(2, 7))
    return dynamics.propagate(m, dynamics.time_grid(2, 7))


def counting_kpos_scan(monkeypatch):
    """Replace _accel.kpos_scan by a wrapper; returns the list of the row
    counts of its calls."""
    rows = []
    scan = _accel.kpos_scan

    def counted(*args, **kwargs):
        rows.append(args[4].shape[0])
        return scan(*args, **kwargs)

    monkeypatch.setattr(_accel, "kpos_scan", counted)
    return rows


class TestKPositivityMany:
    """``k_positivity`` of a family, one stacked search over its maps,
    against one search per map."""

    @pytest.mark.parametrize("name", sorted(dynamics.MODELS))
    def test_matches_one_map_at_a_time(self, name):
        dm = library_family(name)
        vs = family_of([dynamics.intermediate(dm, j + 1, j) for j in range(len(dm) - 1)])
        seeds = [np.random.SeedSequence(entropy=9, spawn_key=(j, 1)) for j in range(len(dm) - 1)]
        batch = k_positivity(vs, 1, 16, seeds)
        alone = [k_positivity(v, 1, 16, s) for v, s in zip(vs, seeds)]
        assert [certificate_bits(c) for c in batch] == [certificate_bits(c) for c in alone]

    def test_exact_path_per_map(self):
        ms = [maps.random_cptp(2, 2, 40), transposition_map(2)]
        batch = k_positivity(family_of(ms), 2, 4, [0, 1])
        assert [certificate_bits(c) for c in batch] == [
            certificate_bits(k_positivity(m, 2, 4, s)) for m, s in zip(ms, [0, 1])]

    def test_empty_family(self):
        # The steps of a one-point grid: no map, no certificate, on the
        # search path (k = 1) and on the exact path (k = 2).
        empty = QuantumMap(2, 2, np.zeros((0, 4, 4)))
        assert k_positivity(empty, 1, 8, []) == k_positivity(empty, 2, 8, []) == []

    def test_one_seed_per_map(self):
        with pytest.raises(ValueError, match="one seed per map"):
            k_positivity(family_of([identity_map(2)] * 2), 1, 8, [0])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k must be"):
            k_positivity(family_of([identity_map(2)]), 3, 8, [0])

    def test_qubit_report_is_one_call_per_searched_k(self, monkeypatch):
        # k = 2 takes the exact path on qubits, so only k = 1 searches.
        rows = counting_kpos_scan(monkeypatch)
        dm = library_family("eternal")
        dynamics.divisibility_report(dm, ks=[1, 2], restarts=40, seed=0)
        assert rows == [6 * 40]

    def test_split_report_is_identical(self, monkeypatch):
        dm = library_family("eternal")
        whole = dynamics.divisibility_report(dm, ks=[1, 2], restarts=40, seed=0)
        rows = counting_kpos_scan(monkeypatch)
        # Two steps of 40 restarts of 2x2 Hessians fill one call.
        monkeypatch.setattr(_accel, "KPOS_STACK_ENTRIES", 2 * 40 * 2**2)
        split = dynamics.divisibility_report(dm, ks=[1, 2], restarts=40, seed=0)
        assert rows == [80, 80, 80]
        assert json.dumps(split.to_jsonable()) == json.dumps(whole.to_jsonable())


class TestCompositionAssociativity:
    def test_random_triples(self):
        for seed in range(5):
            f = maps.random_cptp(2, 2, seed)
            g = maps.random_cptp(2, 2, seed + 100)
            h = maps.random_cptp(2, 2, seed + 200)
            lhs = compose(compose(f, g), h).superop
            rhs = compose(f, compose(g, h)).superop
            assert np.abs(lhs - rhs).max() < 1e-10


class TestJson:
    def test_superop_round_trip(self):
        m = maps.random_cptp(2, 2, 30)
        back = QuantumMap.from_json(m.to_json())
        assert np.array_equal(back.superop, m.superop)

    def test_family_round_trip(self):
        fam = dynamics.reduce(dynamics.model("jaynes_cummings_toy"), dynamics.time_grid(2, 5)).maps
        back = QuantumMap.from_json(fam.to_json())
        assert back.superop.tobytes() == fam.superop.tobytes()
        assert back.hermitian_choi.tobytes() == fam.hermitian_choi.tobytes()
        assert back.to_json() == fam.to_json()

    @pytest.mark.parametrize("dims", [(2.5, 2.7), (2.0, 2), (2, "2"), (0, 2)])
    def test_rejects_non_integer_dimensions(self, dims):
        doc = json.loads(maps.random_cptp(2, 2, 30).to_json())
        doc["dimIn"], doc["dimOut"] = dims
        with pytest.raises(ValueError, match="positive integer"):
            QuantumMap.from_json(json.dumps(doc))


class TestDimensions:
    @pytest.mark.parametrize("dims", [(2.0, 2), (2, np.float64(2.0)), (True, 1)])
    def test_map_rejects_non_integer_dimensions(self, dims):
        with pytest.raises(ValueError, match="positive integer"):
            QuantumMap(*dims, np.eye(4))

    def test_map_stores_python_ints(self):
        m = QuantumMap(np.int64(2), np.int32(2), np.eye(4))
        assert type(m.dimIn) is int and type(m.dimOut) is int

    @pytest.mark.parametrize("dim, rank", [(0, 1), (2, 0), (2.0, 1), (2, 1.5)])
    def test_random_cptp_rejects_bad_sizes(self, dim, rank):
        with pytest.raises(ValueError, match="positive integer"):
            maps.random_cptp(dim, rank, 0)


class TestReplacer:
    def test_constant_output(self):
        target = states.random_density(2, 1, 31)
        m = replacer(target.matrix)
        rho = states.random_density(2, 2, 32).matrix
        assert np.abs(m.apply(rho) - target.matrix).max() < 1e-12
        rep = is_cptp(m)
        assert rep["cp"] and rep["tp"]
