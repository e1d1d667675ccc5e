"""Property tests of the inequalities the paper rests on.

Every matrix comes from a seeded constructor (``random_density``,
``random_cptp``); hypothesis draws only the seeds and scalar weights, and
runs derandomized, so a failure reproduces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import discrimination as disc
from nonmarkov import dynamics, entropy, maps, sdp
from nonmarkov.states import (
    BipartiteState,
    DensityOperator,
    StateEnsemble,
    max_entangled_vector,
    partial_trace,
    purify,
    random_density,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
PROPERTY = settings(max_examples=15, derandomize=True, deadline=None)


def _apply(channel, rho):
    return DensityOperator(channel.apply(rho.matrix))


# Consecutive-step maps of the eternal model: positive and trace-preserving,
# certified not completely positive from step 1 on.
ETERNAL = dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(2, 11))


@PROPERTY
@given(d=st.sampled_from([2, 3]), s1=SEEDS, s2=SEEDS, p=st.floats(0.05, 0.95))
def test_p_guess_two_states_is_helstrom(d, s1, s2, p):
    r1, r2 = random_density(d, d, s1), random_density(d, d, s2)
    res = disc.p_guess(StateEnsemble(np.array([p, 1.0 - p]), [r1, r2]))
    assert abs(res.value - disc.helstrom_guess(p, r1, r2)) <= 1e-7


@PROPERTY
@given(alpha=st.sampled_from([0.5, 2.0, np.inf]), d=st.sampled_from([2, 3]),
       s_rho=SEEDS, s_sigma=SEEDS, s_map=SEEDS, rank=st.integers(1, 3))
def test_sandwiched_renyi_data_processing(alpha, d, s_rho, s_sigma, s_map, rank):
    rho, sigma = random_density(d, d, s_rho), random_density(d, d, s_sigma)
    channel = maps.random_cptp(d, rank, s_map)
    before = float(entropy.sandwiched_divergence(rho, sigma, alpha))
    after = float(entropy.sandwiched_divergence(_apply(channel, rho), _apply(channel, sigma), alpha))
    assert after <= before + 1e-9


@PROPERTY
@given(seed=SEEDS, rank=st.integers(1, 4))
def test_h_min_at_most_h_max(seed, rank):
    rho = BipartiteState(2, 2, random_density(4, rank, seed))
    assert entropy.h_min(rho) <= entropy.h_max(rho) + 1e-7


@PROPERTY
@given(s1=SEEDS, s2=SEEDS, p=st.floats(0.0, 1.0))
def test_diamond_norm_bounds_channel_distance(s1, s2, p):
    e1, e2 = maps.random_cptp(2, 2, s1), maps.random_cptp(2, 2, s2)
    dist = disc.channel_distance(e1, e2, p, k=2, restarts=8, seed=s1)
    assert disc.diamond_norm(maps.weighted_difference(e1, e2, 1.0 - p, p)) >= dist - 1e-7


@PROPERTY
@given(n=st.sampled_from([2, 3]), ranks=st.lists(st.integers(1, 4), min_size=3, max_size=3),
       seed=SEEDS)
def test_channel_guessing_at_least_fixed_input(n, ranks, seed):
    # The tester program maximizes over inputs on C^2 (x) C^2 and measurements,
    # so it is at least the guess at any one input: a bound without duality.
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(n))
    chans = [maps.random_cptp(2, r, seed + i) for i, r in enumerate(ranks[:n])]
    val = sdp.solve(disc.channel_guessing_program(probs, chans)).primal_value
    rho = random_density(4, 1, seed)
    outs = StateEnsemble(probs, [_apply(maps.amplify(e, 2), rho) for e in chans])
    assert val >= disc.p_guess(outs).value - 1e-8
    if n == 2:
        for k in (1, 2):
            dist = disc.channel_distance(chans[0], chans[1], probs[1], k, restarts=8, seed=seed)
            assert val >= (1.0 + dist) / 2.0 - 1e-7


@PROPERTY
@given(case=st.sampled_from([(da, db, r) for da, db in [(2, 2), (2, 3), (3, 2)]
                             for r in (1, 2, da * db)]),
       seed=SEEDS)
def test_min_max_entropy_duality(case, seed):
    # H_min(A|B) = -H_max(A|C) and H_max(A|B) = -H_min(A|C) on a pure ABC
    d_a, d_b, rank = case
    psi = purify(BipartiteState(d_a, d_b, random_density(d_a * d_b, rank, seed)))
    ab, ac = psi.marginal_ab(), psi.marginal_ac()
    assert abs(entropy.h_min(ab) + entropy.h_max(ac)) <= 1e-7
    assert abs(entropy.h_max(ab) + entropy.h_min(ac)) <= 1e-7


@PROPERTY
@given(rank=st.integers(1, 4), seed=SEEDS)
def test_h_max_bell_diagonal_closed_form(rank, seed):
    # sum_i lam_i |Phi_i><Phi_i| over the Bell basis (I (x) P)|Phi+>, P a
    # Pauli matrix: H_max(A|B) = log2((sum_i sqrt(lam_i))^2 / 2)
    lam = np.zeros(4)
    lam[:rank] = np.random.default_rng(seed).dirichlet(np.ones(rank))
    phi = max_entangled_vector(2)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    bell = [np.kron(np.eye(2), p) @ phi for p in paulis]
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip(lam, bell))
    exact = np.log2(np.sqrt(lam).sum() ** 2 / 2.0)
    assert abs(entropy.h_max(BipartiteState(2, 2, DensityOperator(rho))) - exact) <= 1e-7


@PROPERTY
@given(case=st.sampled_from([(2, 2), (2, 3), (3, 2)]), rank=st.integers(1, 6), seed=SEEDS)
def test_h_max_at_least_fidelity_at_any_sigma(case, rank, seed):
    # H_max(A|B) = max_sigma 2 log2 F(rho_AB, I_A (x) sigma_B): the closed-form
    # fidelity at any state sigma_B lies below it
    d_a, d_b = case
    rho = BipartiteState(d_a, d_b, random_density(d_a * d_b, min(rank, d_a * d_b), seed))
    h = entropy.h_max(rho)
    for sigma in [partial_trace(rho, "A")] + [random_density(d_b, d_b, seed + i) for i in (1, 2)]:
        f = entropy.fidelity(rho.matrix, np.kron(np.eye(d_a), sigma.matrix))
        assert 2.0 * np.log2(f) <= h + 1e-9


@PROPERTY
@given(case=st.sampled_from([(2, 2), (2, 3), (3, 2)]), rank=st.integers(1, 6),
       alpha=st.sampled_from([0.5, np.inf]), seed=SEEDS)
def test_sdp_entropy_brackets_not_inverted(case, alpha, rank, seed):
    # The X end of these brackets is the value at an explicitly feasible X,
    # so it never crosses the dual end, whatever the solver's last bits.
    d_a, d_b = case
    rho = BipartiteState(d_a, d_b, random_density(d_a * d_b, min(rank, d_a * d_b), seed))
    bracket = entropy.conditional_renyi(rho, alpha)
    assert bracket.lower <= bracket.upper <= bracket.lower + 1e-7


@PROPERTY
@given(step=st.integers(1, 9), s1=SEEDS, s2=SEEDS)
def test_divergences_contract_under_positive_non_cp_maps(step, s1, s2):
    # Relative entropy and the sandwiched divergences of order alpha >= 1
    # contract under positive trace-preserving maps (Mueller-Hermes & Reeb,
    # Ann. Henri Poincare 18, 1777, 2017), completely positive or not.
    v = dynamics.intermediate(ETERNAL, step + 1, step)
    assert maps.k_positivity(v, 2).certified_negative
    rho, sigma = random_density(2, 2, s1), random_density(2, 2, s2)

    def divergences(a, b):
        return np.array([float(entropy.relative_entropy(a, b))] + [
            float(entropy.sandwiched_divergence(a, b, alpha)) for alpha in (1.5, 2.0, np.inf)])

    before = divergences(rho, sigma)
    assert np.all(divergences(_apply(v, rho), _apply(v, sigma)) <= before + 1e-9)


@PROPERTY
@given(k=st.sampled_from([1, 2]), seeds=st.lists(SEEDS, min_size=1, max_size=4),
       rank=st.integers(1, 3))
def test_k_positivity_many_matches_one_map_at_a_time(k, seeds, rank):
    # The stacked search gives every map bit for bit its own certificate.
    ms = [maps.random_cptp(3, rank, s) for s in seeds]

    def bits(c):
        return (float(c.min_value).hex(), c.witness.tobytes(), c.restarts_converged,
                float(c.spread).hex(), c.verdict)

    batch = maps.k_positivity(
        maps.QuantumMap(3, 3, np.stack([m.superop for m in ms])), k, 8, seeds)
    assert [bits(c) for c in batch] == [bits(maps.k_positivity(m, k, 8, s))
                                        for m, s in zip(ms, seeds)]


@PROPERTY
@given(case=st.sampled_from([(d_b, r) for d_b in (2, 3) for r in range(1, 2 * d_b + 1)]),
       alpha=st.sampled_from([0.6, 0.75, 1.5, 3.0]), seed=SEEDS)
def test_conditional_renyi_bracket_holds(case, alpha, seed):
    # H~_a(A|B) = sup over sigma_B of -D~_a(rho_AB || I_A (x) sigma_B), so no
    # sigma_B, evaluated by the divergence itself, beats the bracket's upper end.
    d_b, rank = case
    rho = BipartiteState(2, d_b, random_density(2 * d_b, rank, seed))
    bracket = entropy.conditional_renyi(rho, alpha)
    assert bracket.lower <= bracket.upper <= bracket.lower + 1e-5
    sigmas = [partial_trace(rho, "A").matrix] + [
        random_density(d_b, d_b, seed + i).matrix for i in range(1, 4)]
    for sigma in sigmas:
        d = float(entropy.sandwiched_divergence(rho, np.kron(np.eye(2), sigma), alpha))
        assert -d <= bracket.upper + 1e-10


@PROPERTY
@given(case=st.sampled_from([(d_b, r) for d_b in (2, 3) for r in range(1, 2 * d_b + 1)]),
       kraus_rank=st.integers(1, 3), alpha=st.sampled_from([0.5, 2.0, np.inf]),
       s_rho=SEEDS, s_map=SEEDS)
def test_conditional_renyi_does_not_fall_under_channel_on_b(case, kraus_rank, alpha, s_rho, s_map):
    # Data processing on the conditioning system: for every CPTP map on B,
    # H~_a(A|B) after the map is at least H~_a(A|B) before it.
    d_b, rank = case
    rho = BipartiteState(2, d_b, random_density(2 * d_b, rank, s_rho))
    channel = maps.amplify(maps.random_cptp(d_b, kraus_rank, s_map), 2)
    after = BipartiteState(2, d_b, _apply(channel, rho))
    before = entropy.conditional_renyi(rho, alpha)
    assert entropy.conditional_renyi(after, alpha).upper >= before.lower - 1e-9
