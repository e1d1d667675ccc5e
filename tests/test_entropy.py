import logging
import math
import warnings

import numpy as np
import pytest

from nonmarkov import entropy, linalg, maps, sdp, states
from nonmarkov.entropy import (
    conditional_entropy,
    conditional_renyi,
    fidelity,
    h_max,
    h_min,
    q_corr,
    q_decpl,
    relative_entropy,
    renyi_divergence,
    renyi_entropy,
    sandwiched_divergence,
    von_neumann_entropy,
)
from nonmarkov.states import (
    BipartiteState,
    DensityOperator,
    basis_state,
    make_cq,
    max_entangled,
    maximally_mixed,
    pure_state,
    random_density,
    tensor,
)

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = pure_state(np.array([1.0, 1.0]))


def full_rank_pair(seed, dim=2):
    return random_density(dim, dim, seed), random_density(dim, dim, seed + 1000)


class TestRelativeEntropy:
    def test_self_zero(self):
        rho = random_density(3, 3, 1)
        assert abs(float(relative_entropy(rho, rho))) < 1e-10

    def test_orthogonal_supports_infinite(self):
        assert math.isinf(relative_entropy(KET0, KET1))

    def test_diagonal_value(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        expect = 0.75 * np.log2(1.5) + 0.25 * np.log2(0.5)
        assert float(relative_entropy(rho, maximally_mixed(2))) == pytest.approx(
            expect, abs=1e-12
        )
        assert expect == pytest.approx(0.18872, abs=1e-5)

    def test_nonnegative(self):
        for seed in range(10):
            r, s = full_rank_pair(seed)
            assert float(relative_entropy(r, s)) >= -1e-10

    def test_unnormalized_second_argument(self):
        # D(rho || c sigma) = D(rho || sigma) - log2 c
        r, s = full_rank_pair(3)
        base = float(relative_entropy(r, s))
        scaled = float(relative_entropy(r, 2.0 * s.matrix))
        assert scaled == pytest.approx(base - 1.0, abs=1e-10)


class TestRenyiDivergence:
    def test_commuting_alpha2(self):
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        expect = np.log2((p**2 / q).sum())
        got = renyi_divergence(DensityOperator(np.diag(p)), DensityOperator(np.diag(q)), 2.0)
        assert float(got) == pytest.approx(expect, abs=1e-12)

    def test_alpha_one_equals_relative(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        d1 = float(renyi_divergence(rho, maximally_mixed(2), 1.0))
        assert d1 == pytest.approx(float(relative_entropy(rho, maximally_mixed(2))), abs=1e-9)

    def test_alpha_one_extrapolation(self):
        # numeric cross-check of the closed limit formula
        r, s = full_rank_pair(7)
        mid = 0.5 * (
            float(renyi_divergence(r, s, 1.0 + 1e-4)) + float(renyi_divergence(r, s, 1.0 - 1e-4))
        )
        assert mid == pytest.approx(float(relative_entropy(r, s)), abs=1e-7)

    def test_self_zero_all_alpha(self):
        rho = random_density(2, 2, 9)
        for a in (0.0, 0.5, 0.9, 1.0, 1.5, 2.0):
            assert abs(float(renyi_divergence(rho, rho, a))) < 1e-9

    def test_alpha_zero(self):
        rho = basis_state(2, 0)
        sigma = DensityOperator(np.diag([0.3, 0.7]))
        assert float(renyi_divergence(rho, sigma, 0.0)) == pytest.approx(-np.log2(0.3), abs=1e-10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            renyi_divergence(KET0, KET1, -0.5)

    def test_support_rule_alpha_above_one(self):
        assert math.isinf(renyi_divergence(PLUS, KET0, 2.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda r, s: renyi_divergence(r, s, math.inf),
        lambda r, s: renyi_divergence(r, s, math.nan),
        lambda r, s: renyi_entropy(r, math.nan),
        lambda r, s: sandwiched_divergence(r, s, math.nan),
        lambda r, s: conditional_renyi(max_entangled(2), math.nan),
    ],
    ids=["petz-inf", "petz-nan", "renyi-entropy-nan", "sandwiched-nan",
         "conditional-nan"],
)
def test_bad_parameter_rejected(call):
    r, s = full_rank_pair(3)
    with pytest.raises(ValueError, match="alpha"):
        call(r, s)


class TestRenyiEntropy:
    def test_maximally_mixed(self):
        for a in (0.0, 0.5, 1.0, 2.0, 5.0, math.inf):
            assert renyi_entropy(maximally_mixed(2), a) == pytest.approx(1.0, abs=1e-12)

    def test_pure(self):
        for a in (0.5, 1.0, 2.0):
            assert abs(renyi_entropy(KET0, a)) < 1e-9

    def test_quarter_three_quarter(self):
        rho = DensityOperator(np.diag([0.75, 0.25]))
        assert renyi_entropy(rho, 2.0) == pytest.approx(np.log2(8 / 5), abs=1e-12)
        assert np.log2(8 / 5) == pytest.approx(0.67807, abs=1e-5)

    def test_duality_with_divergence(self):
        # D_a(rho || I/d) = -S_a(rho) + log d
        rho = random_density(3, 3, 11)
        for a in (0.5, 2.0, 3.0):
            lhs = float(renyi_divergence(rho, maximally_mixed(3), a))
            assert lhs == pytest.approx(-renyi_entropy(rho, a) + np.log2(3), abs=1e-9)


class TestSandwiched:
    def test_half_alpha_fidelity_identity(self):
        got = float(sandwiched_divergence(KET0, PLUS, 0.5))
        assert got == pytest.approx(1.0, abs=1e-10)  # -2 log2(1/sqrt2)

    def test_commuting_equals_petz(self):
        p = DensityOperator(np.diag([0.6, 0.4]))
        q = DensityOperator(np.diag([0.2, 0.8]))
        for a in (0.5, 2.0, 3.0):
            assert float(sandwiched_divergence(p, q, a)) == pytest.approx(
                float(renyi_divergence(p, q, a)), abs=1e-9
            )

    def test_self_zero(self):
        rho = random_density(3, 3, 13)
        for a in (0.5, 0.9, 1.0, 1.5, 3.0, 10.0):
            assert abs(float(sandwiched_divergence(rho, rho, a))) < 1e-9

    def test_alpha_one_is_relative(self):
        r, s = full_rank_pair(15)
        assert float(sandwiched_divergence(r, s, 1.0)) == pytest.approx(
            float(relative_entropy(r, s)), abs=1e-12
        )

    def test_ordering_vs_petz(self):
        for seed in range(10):
            r, s = full_rank_pair(seed + 20)
            for a in (1.5, 2.0, 3.0):
                assert float(sandwiched_divergence(r, s, a)) <= float(
                    renyi_divergence(r, s, a)
                ) + 1e-9

    def test_fidelity_identity_random(self):
        for seed in range(20):
            r, s = full_rank_pair(seed + 40)
            lhs = float(sandwiched_divergence(r, s, 0.5))
            assert lhs == pytest.approx(-2 * np.log2(fidelity(r, s)), abs=1e-9)

    def test_support_rule(self):
        assert math.isinf(sandwiched_divergence(PLUS, KET0, 2.0))
        # orthogonal pair at alpha < 1 is infinite as well
        assert math.isinf(sandwiched_divergence(KET0, KET1, 0.5))

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            sandwiched_divergence(KET0, KET1, 0.0)


class TestFidelity:
    def test_self(self):
        rho = random_density(3, 3, 21)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self):
        assert fidelity(KET0, KET1) < 1e-12

    def test_pure_overlap(self):
        assert fidelity(KET0, PLUS) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        r, s = full_rank_pair(23)
        assert fidelity(r, s) == pytest.approx(fidelity(s, r), abs=1e-12)

    def test_fuchs_van_de_graaf(self):
        for seed in range(50):
            r, s = full_rank_pair(seed + 60)
            f = fidelity(r, s)
            td = 0.5 * linalg.trace_norm(r.matrix - s.matrix)
            assert 1 - f <= td + 1e-9
            assert td <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


class TestConditionalEntropy:
    def test_product_additivity(self):
        a = random_density(2, 2, 25)
        b = random_density(3, 3, 26)
        s = tensor(a, b)
        assert conditional_entropy(s) == pytest.approx(von_neumann_entropy(a), abs=1e-10)

    def test_max_entangled(self):
        assert conditional_entropy(max_entangled(2)) == pytest.approx(-1.0, abs=1e-10)

    def test_classically_correlated(self):
        cq = make_cq([0.5, 0.5], [KET0, KET1])
        assert conditional_entropy(cq) == pytest.approx(0.0, abs=1e-10)

    def test_variational_form(self):
        # H(A|B) = -min_sigma D(rho_AB || I (x) sigma); optimum at sigma = rho_B
        rho = BipartiteState(2, 2, random_density(4, 4, 27))
        rho_b = states.partial_trace(rho, "A")
        h = conditional_entropy(rho)
        at_opt = float(relative_entropy(rho.matrix, np.kron(np.eye(2), rho_b.matrix)))
        assert -at_opt == pytest.approx(h, abs=1e-10)
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = g @ g.conj().T
            sig = m / np.trace(m).real
            val = float(relative_entropy(rho.matrix, np.kron(np.eye(2), sig)))
            assert val >= at_opt - 1e-10


class TestConditionalRenyi:
    def test_product_with_maximally_mixed_a(self):
        sig = random_density(2, 2, 29)
        rho = tensor(maximally_mixed(2), sig)
        for a in (0.5, 1.5, 3.0):
            assert float(conditional_renyi(rho, a)) == pytest.approx(1.0, abs=1e-5)

    def test_pure_product_zero(self):
        rho = tensor(KET0, KET1)
        assert float(conditional_renyi(rho, 2.0)) == pytest.approx(0.0, abs=1e-5)

    def test_max_entangled_large_alpha(self):
        val = float(conditional_renyi(max_entangled(2), 200.0))
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_large_alpha_stays_finite(self):
        # The objective raises M / max eig(M) to the power alpha, so its
        # powers stay in [0, 1]; M^50 itself overflows on this pure state.
        # The search runs on supp rho_B, where the optimal sigma_B is
        # invertible, so it reaches the pure-state value -H_{a/(2a-1)}(rho_A).
        rho = BipartiteState(2, 3, random_density(6, 1, 0))
        rho_a = states.partial_trace(rho, "B")
        for a in (2.0, 5.0, 50.0, 0.75):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = float(conditional_renyi(rho, a))
            assert val == pytest.approx(-renyi_entropy(rho_a, a / (2 * a - 1)), abs=1e-9)

    def test_alpha_infinity_is_h_min(self):
        rho = BipartiteState(2, 2, random_density(4, 4, 31))
        assert float(conditional_renyi(rho, math.inf)) == pytest.approx(h_min(rho), abs=1e-9)

    def test_monotone_in_alpha(self):
        rho = BipartiteState(2, 2, random_density(4, 4, 33))
        vals = [float(conditional_renyi(rho, a)) for a in (0.5, 1.0, 2.0, 5.0)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-5

    def test_half_matches_h_max(self):
        rho = BipartiteState(2, 2, random_density(4, 3, 35))
        assert float(conditional_renyi(rho, 0.5)) == pytest.approx(h_max(rho), abs=1e-4)

    @pytest.mark.parametrize("dims,rank,seed", [((3, 2), 3, 1), ((2, 2), 2, 0), ((2, 3), 6, 2)])
    def test_sdp_brackets_hold_the_solver_points(self, dims, rank, seed):
        # H~ = max_sigma -D~(rho || I (x) sigma), so the value at any state
        # sigma_B is a lower bound that the bracket's upper end must not miss;
        # the points are rho_B and random states.
        dA, dB = dims
        rho = BipartiteState(dA, dB, random_density(dA * dB, rank, seed))
        sigmas = [states.partial_trace(rho, "A").matrix] + [
            random_density(dB, dB, seed + i).matrix for i in (1, 2, 3)]
        for alpha in (0.5, 0.75, 1.5, 3.0, math.inf):
            bracket = conditional_renyi(rho, alpha)
            assert bracket.lower <= bracket.upper
            for sigma in sigmas:
                point = -float(sandwiched_divergence(rho, np.kron(np.eye(dA), sigma), alpha))
                assert point <= bracket.upper + 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (2, 4)])
    def test_descent_brackets_are_narrow(self, dims):
        # Away from alpha in {1/2, 1, inf} the bracket is the descent's final
        # gap: at most OPT_TOL, or the floor where the step underflows, which
        # is widest at large alpha.
        dA, dB = dims
        n = dA * dB
        for rank in (1, 2, n):
            rho = BipartiteState(dA, dB, random_density(n, rank, 1000 * dA + 100 * dB + 10 * rank))
            for alpha in (0.75, 1.5, 5.0, 200.0):
                bracket = conditional_renyi(rho, alpha)
                assert 0.0 <= bracket.upper - bracket.lower <= 1.5e-6

    @pytest.mark.parametrize("rho", [
        max_entangled(2),
        max_entangled(3),
        BipartiteState(2, 2, random_density(4, 2, 1)),
        BipartiteState(3, 3, random_density(9, 5, 2)),
    ], ids=["phi2", "phi3", "2x2-rank2", "3x3-rank5"])
    def test_sdp_brackets_not_inverted(self, rho):
        # The X end is the value at an explicitly feasible X, so the bracket
        # holds even where the primal value sits on the wrong side of the
        # dual one; unscaled, the alpha = 1/2 bracket inverts on both
        # maximally entangled states by about 1e-12.
        for alpha in (0.5, math.inf):
            bracket = conditional_renyi(rho, alpha)
            assert bracket.lower <= bracket.upper <= bracket.lower + 1e-7

    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            conditional_renyi(max_entangled(2), 0.4)

    def test_logs_route_steps_and_gap(self, caplog):
        rho = BipartiteState(2, 2, random_density(4, 4, 33))
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.entropy"):
            bracket = conditional_renyi(rho, 0.75)
        (record,) = caplog.records
        message = record.getMessage()
        assert "duality, descent at beta=1.5, steps=" in message
        gap = float(message.rpartition("gap=")[2])
        assert gap == pytest.approx(bracket.upper - bracket.lower, rel=1e-2)
        assert 0.0 <= gap <= entropy.OPT_TOL


class TestHMin:
    def test_max_entangled(self):
        for d in (2, 3):
            assert h_min(max_entangled(d)) == pytest.approx(-np.log2(d), abs=1e-6)

    def test_product_with_maximally_mixed_a(self):
        rho = tensor(maximally_mixed(2), random_density(2, 2, 37))
        assert h_min(rho) == pytest.approx(1.0, abs=1e-6)

    def test_cq_guessing_identity(self):
        # h_min of a two-state cq ensemble = -log2 of the optimal guess
        r1, r2 = full_rank_pair(39)
        p = 0.35
        cq = make_cq([p, 1 - p], [r1, r2])
        helstrom = 0.5 * (1 + linalg.trace_norm(p * r1.matrix - (1 - p) * r2.matrix))
        assert h_min(cq) == pytest.approx(-np.log2(helstrom), abs=1e-5)


def test_values_are_program_primal_values():
    rho = BipartiteState(2, 3, random_density(6, 4, 5))
    program = entropy.min_entropy_program
    assert h_min(rho) == -math.log2(sdp.solve(program(rho)).primal_value)
    ac = states.purify(rho).marginal_ac()
    assert h_max(rho) == math.log2(sdp.solve(program(ac)).primal_value)


class TestHMax:
    def test_pure_product_zero(self):
        rho = tensor(KET0, KET1)
        assert h_max(rho) == pytest.approx(0.0, abs=1e-5)

    def test_max_entangled_duality_with_trivial_reference(self):
        # For the maximally entangled state: Hmin(A|B) = -1 and the dual
        # Hmax evaluated against a trivial reference system is +1.
        assert h_min(max_entangled(2)) == pytest.approx(-1.0, abs=1e-6)
        rho_ac = BipartiteState(2, 1, maximally_mixed(2))
        assert h_max(rho_ac) == pytest.approx(1.0, abs=1e-5)

    def test_maximally_mixed_pair(self):
        rho = tensor(maximally_mixed(2), maximally_mixed(2))
        assert h_max(rho) == pytest.approx(1.0, abs=1e-5)

    def test_full_rank_qutrit_isotropic(self):
        # (id (x) depolarizing(0.3))(Phi+) has eigenvalues l1 once and l2 eight
        # times; its purification's A:C marginal is one block of 27, m = 81.
        iso = maps.amplify(maps.depolarizing(0.3, 3), 3).apply(max_entangled(3).matrix)
        rho = BipartiteState(3, 3, states.DensityOperator(iso))
        prob = entropy.min_entropy_program(states.purify(rho).marginal_ac())
        assert (prob.blocks, prob.m) == ([27], 81)
        l2, l1 = np.linalg.eigvalsh(iso)[[0, -1]]
        expect = (math.sqrt(l1) + 8 * math.sqrt(l2)) ** 2 / 3
        assert 2 ** h_max(rho) == pytest.approx(expect, abs=sdp.GUARANTEE * (1 + expect))

    def test_duality_on_random_pure_tripartite(self):
        for seed in range(8):
            v = states.random_pure_vector(8, seed)
            tri = states.TripartiteState(2, 2, 2, pure_state(v))
            hmin = h_min(tri.marginal_ab())
            hmax = h_max(tri.marginal_ac())
            assert hmin + hmax == pytest.approx(0.0, abs=1e-5)


def q_corr_channel_route(rho: BipartiteState) -> float:
    """max Tr[J conj(rho)] over Choi matrices of channels B -> A: the channel
    optimization behind 2^(-Hmin), solved directly as an oracle for
    ``q_corr``."""
    dA, dB = rho.dimA, rho.dimB
    h = sdp.hermitian_basis(dB)
    a = np.kron(np.eye(dA, dtype=complex), h)  # I_A (x) h for every h
    c = rho.matrix.conj()
    prob = sdp.SdpProblem(C=[c], A=[a], b=np.trace(h, axis1=1, axis2=2).real)
    sol = sdp.solve(prob)
    assert sol.optimal, sol.status
    return float(sol.primal_value)


class TestOperationalQuantities:
    def test_q_corr_max_entangled(self):
        assert q_corr(max_entangled(2)) == pytest.approx(2.0, abs=1e-5)

    def test_q_corr_cq_ensemble(self):
        cq = make_cq([0.5, 0.5], [KET0, PLUS])
        expect = 0.5 * (1 + 1 / np.sqrt(2))
        assert q_corr(cq) == pytest.approx(expect, abs=1e-5)

    def test_q_corr_product(self):
        rho = tensor(maximally_mixed(2), random_density(2, 2, 43))
        assert q_corr(rho) == pytest.approx(0.5, abs=1e-5)

    def test_q_corr_channel_route_agrees(self):
        for seed in range(5):
            rho = BipartiteState(2, 2, random_density(4, 4, seed + 50))
            direct = q_corr(rho)
            via_channel = q_corr_channel_route(rho)
            assert via_channel == pytest.approx(direct, abs=1e-3)
            assert via_channel <= direct + 1e-6

    def test_q_decpl_product(self):
        rho = tensor(maximally_mixed(2), random_density(2, 2, 45))
        assert q_decpl(rho) == pytest.approx(2.0, abs=1e-5)

    def test_q_decpl_pure_product(self):
        rho = tensor(KET0, KET1)
        assert q_decpl(rho) == pytest.approx(1.0, abs=1e-5)

    def test_q_decpl_equals_two_to_hmax(self):
        for seed in range(5):
            rho = BipartiteState(2, 2, random_density(4, 4, seed + 60))
            assert q_decpl(rho) == pytest.approx(2.0 ** h_max(rho), abs=1e-5)

    def test_q_decpl_max_entangled(self):
        # duality forces 2^Hmax = 1/2 here (the A marginal is maximally
        # mixed but fully correlated with B)
        assert q_decpl(max_entangled(2)) == pytest.approx(0.5, abs=1e-5)


class TestDataProcessing:
    def test_cptp_dpi_small_sample(self):
        for seed in range(10):
            r, s = full_rank_pair(seed + 70)
            phi = maps.random_cptp(2, 2, seed + 200)
            fr = DensityOperator(phi.apply(r.matrix))
            fs = DensityOperator(phi.apply(s.matrix))
            assert float(relative_entropy(fr, fs)) <= float(relative_entropy(r, s)) + 1e-8
            for a in (0.5, 2.0):
                assert float(renyi_divergence(fr, fs, a)) <= float(
                    renyi_divergence(r, s, a)
                ) + 1e-8
            for a in (0.5, 1.5, 3.0):
                assert float(sandwiched_divergence(fr, fs, a)) <= float(
                    sandwiched_divergence(r, s, a)
                ) + 1e-8

    def test_conditional_renyi_dpi_on_b(self):
        rho = BipartiteState(2, 2, random_density(4, 4, 81))
        e = maps.random_cptp(2, 2, 83)
        out = apply_on_b(rho, e)
        for a in (0.5, 1.5, 3.0):
            lhs = float(conditional_renyi(rho, a))
            rhs = float(conditional_renyi(out, a))
            assert lhs <= rhs + 1e-5


def apply_on_b(rho: BipartiteState, e: maps.QuantumMap) -> BipartiteState:
    big = maps.amplify(e, rho.dimA)
    return BipartiteState(rho.dimA, e.dimOut, DensityOperator(big.apply(rho.matrix)))
