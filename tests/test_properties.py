"""Property tests of the inequalities the paper rests on.

Every matrix comes from a seeded constructor (``random_density``,
``random_cptp``); hypothesis draws only the seeds and scalar weights, and
runs derandomized, so a failure reproduces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import discrimination as disc
from nonmarkov import entropy, maps
from nonmarkov.states import BipartiteState, DensityOperator, StateEnsemble, random_density

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
PROPERTY = settings(max_examples=15, derandomize=True, deadline=None)


def _apply(channel, rho):
    return DensityOperator(channel.apply(rho.matrix))


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
