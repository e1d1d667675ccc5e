import dataclasses
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from nonmarkov import dynamics, linalg, maps, states
from nonmarkov.dynamics import (
    DynamicalMap,
    GkslGenerator,
    PropagationError,
    divisibility_report,
    intermediate,
    model,
    propagate,
    rate_constant,
    rate_from_spec,
    rate_neg_tanh,
    rate_piecewise_linear,
    rate_sinusoid,
    reduce,
    time_grid,
)

SX, SY, SZ = dynamics.SIGMA_X, dynamics.SIGMA_Y, dynamics.SIGMA_Z
SIGMA_MINUS = dynamics.SIGMA_MINUS


def family_of(ms) -> maps.QuantumMap:
    """The family QuantumMap of the single maps ``ms``, all of one shape."""
    return maps.QuantumMap(ms[0].dimIn, ms[0].dimOut, np.stack([m.superop for m in ms]))


def rk4_family(gen: GkslGenerator, grid) -> DynamicalMap:
    """The family propagate's RK4/Richardson integrator gives, for any
    generator, looping the interval integrator as propagate does: the
    reference for the exact path, and the input of the pins recorded
    before commuting generators took it."""
    g = np.asarray(grid, dtype=np.float64)
    d = gen.dim
    out = [np.eye(d * d, dtype=np.complex128)]
    for j in range(1, g.size):
        out.append(dynamics._integrate_interval(gen, out[-1], g[j - 1], g[j]))
    return DynamicalMap(grid=g, maps=maps.QuantumMap(d, d, np.stack(out)),
                        provenance={"kind": "gksl", "integrator": "rk4"})


def counting_superop(monkeypatch) -> list:
    """Record the time of every GkslGenerator.superop call."""
    times = []
    superop = GkslGenerator.superop

    def counted(self, t):
        times.append(t)
        return superop(self, t)

    monkeypatch.setattr(GkslGenerator, "superop", counted)
    return times


# Time-varying generators whose parts commute, so that propagate takes the
# exact path; every one is CPTP on [0, 2].
PIECEWISE = [(0.5, 1.0), (1.0, -0.5), (1.5, 0.3)]
COMMUTING = {
    "eternal": ("eternal", {}),
    "pauli-sinusoid": ("pauli", {"gamma1": {"form": "sinusoid", "a": 0.5, "omega": 2.0,
                                            "phi": 1.0}}),
    "pauli-neg_tanh": ("pauli", {"gamma1": 1.5, "gamma2": 1.5, "gamma3": {"form": "neg_tanh"}}),
    "pauli-piecewise": ("pauli", {"gamma2": {"form": "piecewise_linear", "knots": PIECEWISE}}),
    "dephasing-sinusoid": ("dephasing", {"gamma": {"form": "sinusoid", "a": 1.0, "omega": 1.0}}),
    "dephasing-piecewise": ("dephasing", {"gamma": {"form": "piecewise_linear",
                                                    "knots": PIECEWISE}}),
}


def driven_dephasing():
    """H = sigma_x with time-varying dephasing: [L_c, D] != 0."""
    return GkslGenerator(2, SX, [SZ / np.sqrt(2)], [rate_sinusoid(1.0, 1.0)])


def pauli_eigenvalue(m: maps.QuantumMap, sigma) -> float:
    """lambda with m(sigma) = lambda * sigma for qubit Pauli maps."""
    out = m.apply(sigma)
    return float(np.trace(sigma @ out).real / 2)


class TestRateForms:
    def test_constant(self):
        assert rate_constant(2.5)(13.0) == 2.5
        assert rate_constant(2.5).constant

    def test_sinusoid(self):
        r = rate_sinusoid(2.0, 3.0, 0.5)
        assert r(1.2) == pytest.approx(2.0 * np.sin(3.0 * 1.2 + 0.5))

    def test_neg_tanh(self):
        assert rate_neg_tanh()(0.7) == pytest.approx(-np.tanh(0.7))

    def test_piecewise_linear(self):
        r = rate_piecewise_linear([(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)])
        assert r(0.5) == pytest.approx(1.0)
        assert r(1.5) == pytest.approx(1.0)
        assert r(5.0) == pytest.approx(0.0)

    def test_from_spec(self):
        assert rate_from_spec(1.5)(0.0) == 1.5
        r = rate_from_spec({"form": "sinusoid", "a": 1.0, "omega": 1.0})
        assert r(np.pi / 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("c", [np.int64(2), np.float32(0.5)])
    def test_from_spec_numpy_scalar(self, c):
        # A numpy scalar is a bare number, not a {"form": ...} spec.
        assert rate_from_spec(c) == rate_constant(float(c))
        assert model("dephasing", {"gamma": c}).rates == [rate_constant(float(c))]

    @pytest.mark.parametrize("spec, key", [
        ({"form": "sinusoid", "a": 1}, "omega"),
        ({"a": 1}, "form"),
        ({"form": "constant"}, "c"),
        ({"form": "piecewise_linear"}, "knots"),
    ])
    def test_from_spec_missing_key(self, spec, key):
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            rate_from_spec(spec)

    @pytest.mark.parametrize("knots", [[], [(0.0, np.nan)], [(0.0, 1.0), (np.inf, 2.0)],
                                       [(0.0, 1.0), (1.0, -np.inf)]])
    def test_piecewise_rejects_empty_and_nonfinite_knots(self, knots):
        with pytest.raises(ValueError):
            rate_piecewise_linear(knots)

    @pytest.mark.parametrize("rate, ts", [
        (rate_constant(-0.7), [0.0, 0.3, 5.0]),
        (rate_sinusoid(1.3, 2.0, 0.4), [0.0, 0.1, 1.7, 9.0]),
        (rate_sinusoid(1.3, 0.0, 0.4), [0.5, 3.0]),
        (rate_sinusoid(-0.9, 1e-9, 1.1), [1e-3, 2.0]),
        (rate_sinusoid(0.6, 1e-300, 0.5), [2.0]),
        (rate_neg_tanh(), [0.0, 0.2, 3.0, 30.0, 800.0]),
        (rate_piecewise_linear(PIECEWISE), [0.0, 0.3, 0.5, 0.75, 1.0, 1.2, 2.0]),
        (rate_piecewise_linear([(-1.0, 2.0), (0.5, -1.0), (3.0, 0.5)]), [0.25, 1.0, 4.0]),
        (rate_piecewise_linear([(0.7, 1.5)]), [0.3, 2.0]),
    ], ids=["constant", "sinusoid", "sinusoid-omega0", "sinusoid-small-omega-t",
            "sinusoid-subnormal-omega", "neg_tanh", "piecewise-inside", "piecewise-across-0",
            "piecewise-one-knot"])
    def test_integral_matches_quad(self, rate, ts):
        knots = [k[0] for k in rate.params[0]] if rate.form == "piecewise_linear" else []
        for t in ts:
            inside = [k for k in knots if 0 < k < t]
            ref, _ = quad(rate, 0.0, t, points=inside or None, limit=200,
                          epsabs=1e-13, epsrel=1e-13)
            assert rate.integral(t) == pytest.approx(ref, rel=1e-12, abs=1e-13)


class TestGenerator:
    def test_trace_annihilating_on_basis(self, rng):
        gen = model("pauli", {"gamma1": 0.3, "gamma2": 0.7, "gamma3": 0.1})
        l = gen.superop(0.0)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                out = maps.unvec(l @ maps.vec(e), 2)
                assert abs(np.trace(out)) < 1e-10

    def test_nonfinite_rate_raises(self):
        gen = GkslGenerator(
            dim=2,
            h_eff=np.zeros((2, 2)),
            jumps=[SZ],
            rates=[lambda t: np.inf],
        )
        with pytest.raises(PropagationError):
            gen.superop(0.0)


    @pytest.mark.parametrize("dim", [2.0, np.float64(2.0), 0, True])
    def test_rejects_non_integer_dim(self, dim):
        with pytest.raises(ValueError, match="positive integer"):
            GkslGenerator(dim, np.zeros((2, 2)), [], [])


class TestPropagate:
    def test_zero_generator_identity(self):
        gen = GkslGenerator(2, np.zeros((2, 2)), [], [])
        dm = propagate(gen, time_grid(1.0, 5))
        for m in dm.maps:
            assert np.abs(m.superop - np.eye(4)).max() < 1e-12

    def test_pure_hamiltonian_isospectral(self):
        gen = GkslGenerator(2, SZ, [], [])
        dm = propagate(gen, time_grid(2.0, 9))
        ref = np.sort(np.linalg.eigvalsh(maps.choi(dm.maps[0])))
        for m in dm.maps[1:]:
            w = np.sort(np.linalg.eigvalsh(maps.choi(m)))
            assert np.abs(w - ref).max() < 1e-9

    def test_amplitude_damping_population_decay(self):
        gamma = 1.3
        dm = propagate(model("amplitude_damping", {"gamma": gamma}), time_grid(1.0, 11))
        rho = states.basis_state(2, 1).matrix  # excited
        for t, m in zip(dm.grid, dm.maps):
            pop = m.apply(rho)[1, 1].real
            assert abs(pop - np.exp(-gamma * t)) < 1e-7

    def test_maps_are_cptp(self):
        dm = propagate(model("eternal"), time_grid(3.0, 31))
        for m in dm.maps:
            rep = maps.is_cptp(m)
            assert rep["cp"] and rep["tp"]

    def test_trace_preservation_budget(self):
        dm = propagate(
            model("dephasing", {"gamma": {"form": "sinusoid", "a": 1.0, "omega": 1.0}}),
            time_grid(4.0, 41),
        )
        for m in dm.maps:
            assert maps.is_cptp(m)["tp_residual"] < 1e-8

    def test_semigroup_property(self):
        gen = model("amplitude_damping", {"gamma": 0.8})
        dm = propagate(gen, np.array([0.0, 0.4, 0.6, 1.0]))
        lhs = maps.compose(dm.maps[1], dm.maps[2]).superop  # 0.4 then 0.6
        assert np.abs(lhs - dm.maps[3].superop).max() < 1e-7

    def test_eternal_closed_form_eigenvalues(self):
        dm = rk4_family(model("eternal"), time_grid(3.0, 25))
        for t, m in zip(dm.grid, dm.maps):
            l1 = pauli_eigenvalue(m, SX)
            l2 = pauli_eigenvalue(m, SY)
            l3 = pauli_eigenvalue(m, SZ)
            assert abs(l1 - np.exp(-t) * np.cosh(t)) < 1e-7
            assert abs(l2 - np.exp(-t) * np.cosh(t)) < 1e-7
            assert abs(l3 - np.exp(-2 * t)) < 1e-7

    def test_dephasing_closed_form(self):
        # single decoherence rate: off-diagonal factor exp(-Gamma), Gamma = 1 - cos t
        dm = propagate(
            model("dephasing", {"gamma": {"form": "sinusoid", "a": 1.0, "omega": 1.0}}),
            time_grid(4.0, 17),
        )
        for t, m in zip(dm.grid, dm.maps):
            lam = pauli_eigenvalue(m, SX)
            assert abs(lam - np.exp(-(1 - np.cos(t)))) < 1e-7

    def test_amplitude_damping_fixed_point(self):
        dm = propagate(model("amplitude_damping", {"gamma": 1.0}), np.array([0.0, 20.0]))
        rho = states.maximally_mixed(2).matrix
        out = dm.maps[-1].apply(rho)
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-6

    @pytest.mark.parametrize("steps", [7, 21, 201])
    def test_constant_rate_uniform_grid_matches_expm(self, steps):
        # Every map of a constant-rate generator is expm(L t), on uniform
        # and on non-uniform grids alike.
        gen = model("pauli", {"gamma1": 0.3, "gamma2": 0.7, "gamma3": 0.1})
        l = gen.superop(0.0)
        uniform = time_grid(2.0, steps)
        jittered = uniform.copy()
        jittered[1::2] += 1e-3
        for grid in (uniform, jittered):
            dm = propagate(gen, grid)
            err = max(np.abs(m.superop - expm(l * t)).max() for m, t in zip(dm.maps, grid))
            assert err <= 1e-12

    def test_rk4_evaluates_generator_once_per_time_point(self, monkeypatch):
        # Each step starts from the generator its predecessor ended with;
        # re-evaluating it there took 1902 calls on this grid.
        times = counting_superop(monkeypatch)
        rk4_family(model("eternal"), time_grid(2, 7))
        assert len(times) == 1274

    def test_eternal_superoperator_pinned(self):
        # The RK4 map; the exact path's differs from it in the last bits.
        s = rk4_family(model("eternal"), time_grid(2, 7)).maps[-1].superop
        a, b, c = (float.fromhex(x) for x in (
            "0x1.04b0556e07755p-1", "0x1.04b0556e08538p-1", "0x1.f69f5523f1153p-2"))
        expected = np.array([[a, 0, 0, c], [0, b, 0, 0], [0, 0, b, 0], [c, 0, 0, a]])
        assert np.array_equal(s, expected)

    def test_eternal_exact_eigenvalues(self):
        dm = propagate(model("eternal"), time_grid(3.0, 25))
        assert dm.provenance["integrator"] == "expm"
        for t, m in zip(dm.grid, dm.maps):
            assert abs(pauli_eigenvalue(m, SX) - np.exp(-t) * np.cosh(t)) < 1e-13
            assert abs(pauli_eigenvalue(m, SY) - np.exp(-t) * np.cosh(t)) < 1e-13
            assert abs(pauli_eigenvalue(m, SZ) - np.exp(-2 * t)) < 1e-13

    @pytest.mark.parametrize("name", sorted(COMMUTING))
    def test_exact_path_matches_rk4(self, name, monkeypatch):
        gen = model(*COMMUTING[name])
        grid = time_grid(2.0, 9)
        ref = rk4_family(gen, grid)
        times = counting_superop(monkeypatch)
        dm = propagate(gen, grid)
        assert dm.provenance["integrator"] == "expm"
        assert times == []
        err = max(np.abs(m.superop - r.superop).max() for m, r in zip(dm.maps, ref.maps))
        assert err <= 1e-9

    @pytest.mark.parametrize("gen", [
        driven_dephasing(),
        GkslGenerator(2, np.zeros((2, 2)), [SZ / np.sqrt(2)], [lambda t: 1 - np.cos(t)]),
    ], ids=["driven-dephasing", "plain-callable"])
    def test_other_generators_take_rk4(self, gen, monkeypatch):
        grid = time_grid(1.0, 4)
        ref = rk4_family(gen, grid)
        times = counting_superop(monkeypatch)
        dm = propagate(gen, grid)
        assert dm.provenance["integrator"] == "rk4"
        assert len(times) > 0
        assert all(np.array_equal(m.superop, r.superop) for m, r in zip(dm.maps, ref.maps))

    @pytest.mark.parametrize("gen", [
        model("amplitude_damping", {"gamma": 1.3}),
        model("pauli", {"gamma1": 0.3, "gamma2": 0.7, "gamma3": 0.1}),
        GkslGenerator(2, SX, [SZ / np.sqrt(2), SIGMA_MINUS],
                      [rate_constant(0.4), rate_constant(0.9)]),
    ], ids=["amplitude_damping", "pauli", "driven"])
    def test_constant_rate_maps_are_expm_bit_for_bit(self, gen):
        # propagate takes one batched _expm over the grid; each map must be
        # _expm of its own generator taken alone.  The grid mixes points that
        # need no squaring with points that need one or more.
        grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5, 10.0])
        dm = propagate(gen, grid)
        assert dm.provenance["integrator"] == "expm"
        l = gen.superop(0.0)
        for m, t in zip(dm.maps[1:], grid[1:]):
            assert np.array_equal(m.superop, dynamics._expm((l * t)[None])[0])

    def test_amplitude_damping_closed_form(self):
        # rho_11 decays as e^{-gamma t}, into rho_00, and the coherences as
        # e^{-gamma t / 2}; the superoperator acts on column-stacked rho.
        gamma = 1.3
        grid = np.array([0.0, 0.01, 0.5, 2.0, 7.0, 40.0])
        dm = propagate(model("amplitude_damping", {"gamma": gamma}), grid)
        for m, t in zip(dm.maps, grid):
            e = np.exp(-gamma * t)
            c = np.exp(-gamma * t / 2)
            expected = np.array([[1, 0, 0, 1 - e], [0, c, 0, 0], [0, 0, c, 0], [0, 0, 0, e]])
            assert np.abs(m.superop - expected).max() <= 1e-14

    def test_single_point_grid_gives_the_identity(self):
        dm = propagate(model("eternal"), [0.0])
        assert dm.provenance["integrator"] == "expm"
        assert dm.maps.superop.shape == (1, 4, 4)
        assert np.array_equal(dm.maps[0].superop, np.eye(4))

    def test_overflowing_generator_integral_raises(self):
        with pytest.raises(PropagationError, match="non-finite"):
            propagate(model("dephasing", {"gamma": 1e308}), time_grid(10.0, 3))

    @pytest.mark.parametrize("rate", [
        rate_sinusoid(1e308, 1.0, 0.5),
        rate_piecewise_linear([(0.0, 1e308), (1.0, 1e308)]),
    ], ids=["sinusoid", "piecewise_linear"])
    def test_nonfinite_rate_integral_raises(self, rate):
        gen = GkslGenerator(2, np.zeros((2, 2)), [SZ / np.sqrt(2)], [rate])
        with pytest.raises(PropagationError, match="non-finite"):
            propagate(gen, time_grid(2.0, 3))

    def test_negative_constant_rate_breaks_the_cptp_budget(self):
        with pytest.raises(PropagationError, match="violates the CPTP budget"):
            propagate(model("dephasing", {"gamma": -1.0}), time_grid(1.0, 3))

    def test_rk4_step_underflow_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_SUBDIVISIONS", 1)
        with pytest.raises(PropagationError, match="step underflow"):
            propagate(driven_dephasing(), time_grid(1.0, 3))

    def test_integrator_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="nonmarkov.dynamics"):
            propagate(model("eternal"), time_grid(2, 7))
            propagate(driven_dephasing(), time_grid(1.0, 3))
        assert [r.getMessage() for r in caplog.records] == [
            "propagate: expm on 7 grid points, dim 2",
            "propagate: rk4 on 3 grid points, dim 2",
        ]

    def test_time_grid_rejects_fractional_steps(self):
        # A fractional count is an error, not a grid of int(steps) points.
        with pytest.raises(ValueError, match="steps"):
            time_grid(2.0, 7.9)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            propagate(model("eternal"), np.array([0.5, 1.0]))

    @pytest.mark.parametrize("make", [
        lambda: time_grid(np.nan, 3),
        lambda: time_grid(np.inf, 3),
        lambda: propagate(model("eternal"), np.array([0.0, 1.0, np.inf])),
        lambda: propagate(model("eternal"), np.array([0.0, np.nan, 1.0])),
    ], ids=["time_grid-nan", "time_grid-inf", "propagate-inf", "propagate-nan"])
    def test_non_finite_times_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


def cptp_residuals_per_map(m):
    """The reference for maps.is_cptp of a family: one map's smallest Choi
    eigenvalue and TP residual, from its own eigvalsh and svd."""
    j = maps.choi(m)
    tr_out = linalg.trace_out(j, (m.dimOut, m.dimIn), 0)
    return linalg.min_eig(j), linalg.operator_norm(tr_out - np.eye(m.dimIn))


def enforce_cptp_per_map(family, grid, budget):
    """The reference for dynamics._enforce_cptp: the maps in turn, raising at
    the first one outside the budget."""
    for t, m in zip(grid, family):
        min_eig, tp_residual = cptp_residuals_per_map(m)
        if min_eig < -budget or tp_residual > budget:
            raise PropagationError(
                f"map at t={t} violates the CPTP budget: "
                f"min Choi eigenvalue {min_eig:.3e}, TP residual {tp_residual:.3e}"
            )


def cptp_error(check, family, grid, budget):
    try:
        check(family, grid, budget)
    except PropagationError as exc:
        return str(exc)
    return None


# Choi-eigenvalue and TP defects on either side of both CPTP budgets.
NEAR_BUDGET = (5e-10, 2e-9, 5e-8, 2e-7)


def cptp_families():
    """(name, family, grid) triples, each family one QuantumMap: every
    library model on time_grid(2, 7), the negative-rate dephasing family,
    and the prefixes and the reversal of a qubit family whose maps break CP
    or TP by each of ``NEAR_BUDGET``."""
    grid = time_grid(2.0, 7)
    out = []
    for name in sorted(dynamics.MODELS):
        m = model(name)
        dm = propagate(m, grid) if isinstance(m, GkslGenerator) else reduce(m, grid)
        out.append((name, dm.maps, dm.grid))
    lneg = model("dephasing", {"gamma": -1.0}).superop(0.0)
    out.append(("dephasing-negative", maps.QuantumMap(2, 2, np.concatenate(
        [np.eye(4)[None], dynamics._expm(grid[1:, None, None] * lneg)])), grid))
    ident = maps.identity_map(2)
    transpose = maps.map_from_action(2, 2, lambda x: x.T)
    near = [ident]
    for eps in NEAR_BUDGET:
        near.append(maps.mix([ident, transpose], [1.0 - eps, eps]))  # min Choi eigenvalue -eps
        near.append(maps.mix([ident], [1.0 + eps]))  # TP residual eps
    times = np.arange(len(near)) / 4
    for k in range(1, len(near) + 1):
        out.append((f"near-budget[:{k}]", family_of(near[:k]), times[:k]))
    out.append(("near-budget-reversed", family_of(near[::-1]), times))
    return out


def test_stacked_cptp_residuals_match_per_map():
    kraus = np.random.default_rng(5).standard_normal((3, 3, 2)) / 2
    rect = family_of([maps.from_kraus([k]) for k in kraus])  # 2 -> 3 maps, not TP
    for name, family, _ in cptp_families() + [("rectangular", rect, None)]:
        stacked = maps.is_cptp(family)
        min_eig, tp_residual = stacked["min_choi_eig"], stacked["tp_residual"]
        for m, e, r in zip(family, min_eig, tp_residual):
            assert (e, r) == cptp_residuals_per_map(m), name
            rep = maps.is_cptp(m)
            assert (rep["min_choi_eig"], rep["tp_residual"]) == (e, r), name


@pytest.mark.parametrize("budget", [dynamics.CPTP_BUDGET, dynamics.REDUCE_BUDGET])
def test_stacked_cptp_check_matches_per_map(budget):
    raised = set()
    for name, family, grid in cptp_families():
        expected = cptp_error(enforce_cptp_per_map, family, grid, budget)
        assert cptp_error(dynamics._enforce_cptp, family, grid, budget) == expected, name
        if expected is not None:
            raised.add(name)
    assert not raised & set(dynamics.MODELS)
    assert {"dephasing-negative", "near-budget-reversed"} <= raised
    within = 1 + 2 * sum(eps <= budget for eps in NEAR_BUDGET)
    assert {n for n in raised if n.startswith("near-budget[")} == {
        f"near-budget[:{k}]" for k in range(within + 1, 2 * len(NEAR_BUDGET) + 2)}


def close_to(e, ref) -> bool:
    """||e - ref||_1 <= 1e-14 max(1, ||ref||_1)."""
    return np.linalg.norm(e - ref, 1) <= 1e-14 * max(1.0, np.linalg.norm(ref, 1))


class TestExpm:
    """dynamics._expm against scipy.linalg.expm, which only the tests load."""

    # every library GKSL model at its defaults, and the rate forms on them
    EXACT = {**{n: (n, {}) for n in dynamics.MODELS if isinstance(model(n), GkslGenerator)},
             **COMMUTING}

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_library_models_match_scipy(self, name):
        gen = model(*self.EXACT[name])
        grid = time_grid(40.0, 81)
        dm = propagate(gen, grid)
        assert dm.provenance["integrator"] == "expm"
        l_c, varying = gen._commuting_split()
        for m, t in zip(dm.maps, grid):
            a = l_c * t + sum(rate.integral(t) * dk for rate, dk in varying)
            assert close_to(m.superop, expm(a))

    @pytest.mark.parametrize("n", [4, 9, 16])
    def test_random_stack_matches_scipy(self, n):
        # 1-norms on both sides of theta_13: no squaring below, s >= 1 above.
        rng = np.random.default_rng(n)
        theta = dynamics._THETA13
        stack = []
        for norm in (0.01, 1.0, theta / 2, theta, 2 * theta, 30.0):
            for _ in range(3):
                x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                stack.append(x * (norm / np.linalg.norm(x, 1)))
        out = dynamics._expm(np.array(stack))
        for x, e in zip(stack, out):
            assert close_to(e, expm(x))
            assert np.array_equal(e, dynamics._expm(x[None])[0])


def reduce_per_time(tm, grid) -> list:
    """The maps of ``reduce``, one ``maps.map_from_action`` per grid time
    over the product for one time and one matrix unit: the per-map
    reference of its stacked products."""
    dec = linalg.eigh(tm.h_total)
    w, u = dec.eigenvalues, dec.eigenvectors
    rho_e = tm.env_state.matrix
    out = []
    for t in np.asarray(grid, dtype=np.float64):
        ut = (u * np.exp(-1j * w * t)) @ u.conj().T

        def act(x, ut=ut):
            joint = np.kron(x, rho_e)
            return linalg.trace_out(ut @ joint @ ut.conj().T, (tm.dimS, tm.dimE), 1)

        out.append(maps.map_from_action(tm.dimS, tm.dimS, act))
    return out


def random_total_model(dS, dE, seed) -> dynamics.TotalSystemModel:
    rng = np.random.default_rng(seed)
    n = dS * dE
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return dynamics.TotalSystemModel(dS, dE, a + a.conj().T, states.random_density(dE, dE, seed))


class TestReduce:
    @pytest.mark.parametrize("tm", [model("jaynes_cummings_toy"), random_total_model(2, 3, 17)],
                             ids=["jaynes_cummings_toy", "random-2x3"])
    def test_stacked_products_match_per_time_oracle(self, tm):
        grid = time_grid(2.0, 9)
        dm = reduce(tm, grid)
        oracle = reduce_per_time(tm, grid)
        assert [m.superop.tobytes() for m in dm.maps] == [m.superop.tobytes() for m in oracle]

    def test_decoupled_hamiltonian_is_unitary_family(self):
        h = np.kron(SZ, np.eye(2))
        tm = dynamics.TotalSystemModel(2, 2, h, states.maximally_mixed(2))
        dm = reduce(tm, time_grid(1.0, 5))
        for t, m in zip(dm.grid, dm.maps):
            u = maps.unitary_map(np.cos(t) * np.eye(2) - 1j * np.sin(t) * SZ)
            assert np.abs(m.superop - u.superop).max() < 1e-9

    def test_identity_at_zero(self):
        dm = reduce(model("jaynes_cummings_toy"), time_grid(1.0, 3))
        assert np.abs(dm.maps[0].superop - np.eye(4)).max() < 1e-12

    def test_exchange_model_periodic_and_cptp(self):
        dm = reduce(model("jaynes_cummings_toy", {"g": 1.0}), time_grid(2 * np.pi, 9))
        for m in dm.maps:
            rep = maps.is_cptp(m)
            assert rep["cp"] and rep["tp"]
        # period 2*pi/g for the excitation exchange
        assert np.abs(dm.maps[-1].superop - np.eye(4)).max() < 1e-8

    @pytest.mark.parametrize("dims", [(2.0, 2), (2, 2.0), (0, 2)])
    def test_rejects_non_integer_dimensions(self, dims):
        with pytest.raises(ValueError, match="positive integer"):
            dynamics.TotalSystemModel(*dims, np.zeros((4, 4)), states.maximally_mixed(2))

    def test_dimension_overflow(self):
        h = np.zeros((128, 128))
        tm = dynamics.TotalSystemModel(16, 8, h, states.maximally_mixed(8))
        with pytest.raises(ValueError):
            reduce(tm, time_grid(1.0, 3))


class TestIntermediate:
    @pytest.mark.parametrize("family", ["eternal", "jaynes_cummings_toy"])
    def test_matches_compose_with_inverse(self, family):
        tm = model(family)
        grid = time_grid(1.4, 6)
        dm = reduce(tm, grid) if family == "jaynes_cummings_toy" else propagate(tm, grid)
        # Consecutive pairs, then pairs further apart.
        for t, s in [(1, 0), (3, 2), (5, 4), (3, 1), (5, 0), (4, 1)]:
            v = intermediate(dm, t, s)
            oracle = maps.compose(dm.maps[t], maps.inverse(dm.maps[s]))
            assert v.superop.tobytes() == oracle.superop.tobytes()

    def test_same_index_identity(self):
        dm = propagate(model("eternal"), time_grid(1.0, 5))
        v = intermediate(dm, 2, 2)
        assert np.abs(v.superop - np.eye(4)).max() < 1e-12

    def test_unitary_family(self):
        gen = GkslGenerator(2, SX, [], [])
        dm = propagate(gen, time_grid(1.0, 5))
        v = intermediate(dm, 3, 1)
        rep = maps.is_cptp(v)
        assert rep["cp"] and rep["tp"]

    def test_composition_residual(self):
        dm = propagate(model("eternal"), time_grid(2.0, 9))
        for j in (1, 4, 7):
            v = intermediate(dm, j, j - 1)
            recomposed = maps.compose(v, dm.maps[j - 1])
            assert np.abs(recomposed.superop - dm.maps[j].superop).max() < 1e-7
            assert maps.is_cptp(v)["tp_residual"] < 1e-8

    def test_order_check(self):
        dm = propagate(model("eternal"), time_grid(1.0, 3))
        with pytest.raises(ValueError):
            intermediate(dm, 0, 1)

    @pytest.mark.parametrize("t_idx, s_idx", [(3, -1), (9, 1)])
    def test_index_outside_grid_rejected(self, t_idx, s_idx):
        # unchecked, -1 wrapped to the last map and 9 raised IndexError
        dm = propagate(model("eternal"), time_grid(1.0, 5))
        with pytest.raises(ValueError, match="s_idx <= t_idx < 5"):
            intermediate(dm, t_idx, s_idx)


class TestDivisibilityReport:
    def test_amplitude_damping_cp_divisible(self):
        dm = propagate(model("amplitude_damping", {"gamma": 1.0}), time_grid(2.0, 21))
        rep = divisibility_report(dm, ks=[1, 2], restarts=16, seed=3)
        assert rep.verdicts[2] == "k-divisible on grid"
        assert rep.verdicts[1] == "k-divisible on grid"
        for s in rep.steps:
            assert s.certificates[2].min_value >= -1e-8

    def test_eternal_k1_clean_k2_negative(self):
        dm = propagate(model("eternal"), time_grid(2.0, 21))
        rep = divisibility_report(dm, ks=[1, 2], restarts=16, seed=4)
        assert rep.verdicts[1] == "k-divisible on grid"
        assert rep.verdicts[2] == "not k-divisible on grid"
        # every step after t=0 carries a genuine negative certificate
        for s in rep.steps[1:]:
            assert s.certificates[2].certified_negative
            assert s.certificates[2].min_value < -1e-6

    def test_unitary_family_all_k(self):
        gen = GkslGenerator(2, SZ, [], [])
        dm = propagate(gen, time_grid(1.0, 6))
        rep = divisibility_report(dm, ks=[1, 2], restarts=8, seed=5)
        assert all(v == "k-divisible on grid" for v in rep.verdicts.values())

    def test_eternal_p_divisibility_rate_criterion(self):
        # pairwise rate sums stay nonnegative for t >= 0
        for t in np.linspace(0, 5, 50):
            g = [1.0, 1.0, -np.tanh(t)]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert g[i] + g[j] >= 0

    def test_eternal_intermediate_pauli_ratios(self):
        dm = propagate(model("eternal"), time_grid(3.0, 31))
        for j in range(len(dm) - 1):
            v = intermediate(dm, j + 1, j)
            for sigma in (SX, SY, SZ):
                ratio = pauli_eigenvalue(v, sigma)
                assert 0 < ratio <= 1 + 1e-12

    def test_singular_map_raises_with_its_singular_values(self):
        # The excitation of the Jaynes-Cummings toy leaves the system
        # entirely at t = pi/2, where the map is not invertible.
        dm = reduce(model("jaynes_cummings_toy"), [0.0, 0.5, np.pi / 2, 2.0])
        with pytest.raises(maps.NonInvertibleMapError) as report_exc:
            divisibility_report(dm, ks=[1, 2], restarts=4)
        with pytest.raises(maps.NonInvertibleMapError) as inverse_exc:
            maps.inverse(dm.maps[2])
        assert report_exc.value.sigma_min == inverse_exc.value.sigma_min
        assert report_exc.value.sigma_max == inverse_exc.value.sigma_max
        assert report_exc.value.sigma_min < 1e-30
        assert report_exc.value.sigma_max == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_one_point_grid_has_no_steps(self):
        dm = reduce(model("jaynes_cummings_toy"), [0.0])
        rep = divisibility_report(dm, ks=[1, 2], restarts=4)
        assert rep.steps == []
        assert rep.verdicts == {1: "k-divisible on grid", 2: "k-divisible on grid"}

    def test_seeds_built_only_for_searched_ks(self, monkeypatch):
        # At k = 2 a qubit report takes the exact eigenvalue path, which
        # reads no seed: only k = 1 builds one per step.
        built = []

        class Spy(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["spawn_key"])
                super().__init__(*args, **kwargs)

        dm = propagate(model("eternal"), time_grid(1.0, 4))
        before = divisibility_report(dm, ks=[1, 2], restarts=4, seed=6).to_jsonable()
        monkeypatch.setattr(np.random, "SeedSequence", Spy)
        rep = divisibility_report(dm, ks=[1, 2], restarts=4, seed=6)
        assert built == [(j, 1) for j in range(3)]
        assert rep.to_jsonable() == before
        built.clear()
        divisibility_report(dm, ks=[2], restarts=4, seed=6)
        assert built == []

    def test_jsonable(self):
        dm = propagate(model("eternal"), time_grid(1.0, 4))
        rep = divisibility_report(dm, ks=[2], restarts=4, seed=6)
        doc = rep.to_jsonable()
        assert doc["verdicts"]["2"] == "not k-divisible on grid"
        assert len(doc["steps"]) == 3

    def test_jsonable_search_statistics(self):
        dm = propagate(model("eternal"), time_grid(1.0, 3))
        rep = divisibility_report(dm, ks=[1], restarts=4, seed=6)
        cert = rep.steps[0].certificates[1]
        doc = rep.to_jsonable()["steps"][0]["certificates"]["1"]
        assert doc["restarts_converged"] == cert.restarts_converged
        assert doc["spread"] == cert.spread
        # every certificate field, the witness in {re, im} form
        assert set(doc) == {f.name for f in dataclasses.fields(maps.PositivityCertificate)}
        assert np.array_equal(linalg.from_jsonable(doc["witness"]), cert.witness)

    @pytest.mark.parametrize("name", ["eternal", "jaynes_cummings_toy"])
    def test_builds_no_map_per_grid_point(self, name, monkeypatch):
        # propagate or reduce and a report each build their families whole:
        # the QuantumMaps constructed do not grow with the grid.
        built = []
        post_init = maps.QuantumMap.__post_init__

        def counted(self):
            built.append(self.superop.shape)
            post_init(self)

        monkeypatch.setattr(maps.QuantumMap, "__post_init__", counted)
        counts = []
        for steps in (3, 11):
            built.clear()
            m = model(name)
            grid = time_grid(2.0, steps)
            dm = propagate(m, grid) if isinstance(m, GkslGenerator) else reduce(m, grid)
            divisibility_report(dm, ks=[1, 2], restarts=4)
            counts.append(len(built))
        assert counts[0] == counts[1], counts

    @pytest.mark.parametrize("ks", [[1.5], [2.9], [True], [1, 2.0]])
    def test_rejects_non_integer_k(self, ks):
        # A fractional k is not truncated, nor a bool read as k = 1.
        dm = propagate(model("eternal"), time_grid(1.0, 3))
        with pytest.raises(ValueError, match="k must be a positive integer"):
            divisibility_report(dm, ks=ks, restarts=4)

    def test_rejects_empty_ks(self):
        dm = propagate(model("eternal"), time_grid(1.0, 3))
        with pytest.raises(ValueError, match="at least one k"):
            divisibility_report(dm, ks=[], restarts=4)


def test_report_logs_search_statistics(caplog):
    dm = propagate(model("eternal"), time_grid(2, 7))
    with caplog.at_level(logging.DEBUG, logger="nonmarkov"):
        rep = divisibility_report(dm, ks=[1, 2], restarts=40, seed=0)
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0] == "k=1: 1 stacked kpos_scan call(s), rows per call [240]"
    assert messages[7] == "k=2: exact minimum eigenvalues, no kpos_scan call"
    for k, first in ((1, 1), (2, 8)):
        for j, s in enumerate(rep.steps):
            c = s.certificates[k]
            assert messages[first + j] == (
                f"k={k} step {j}: restarts_converged={c.restarts_converged} of "
                f"{c.restarts_used}, spread={c.spread:.3g}")
    assert len(messages) == 14


class TestModelLibrary:
    def test_unknown_model(self):
        with pytest.raises(ValueError):
            model("elephant")

    def test_unknown_params(self):
        with pytest.raises(ValueError):
            model("eternal", {"gamma": 2.0})

    def test_amplitude_damping_needs_positive_rate(self):
        with pytest.raises(ValueError):
            model("amplitude_damping", {"gamma": -1.0})

    @pytest.mark.parametrize("name", sorted(dynamics.MODELS))
    def test_every_entry_builds_at_its_defaults(self, name):
        m = model(name)
        assert dynamics.MODELS[name].__doc__.strip()
        with pytest.raises(ValueError, match="unexpected parameters"):
            model(name, {"no_such_parameter": 1.0})
        if isinstance(m, GkslGenerator):
            # the module docstring's claim for every library GKSL model
            assert propagate(m, time_grid(2, 7)).provenance["integrator"] == "expm"
        else:
            assert reduce(m, time_grid(2, 7)).provenance["kind"] == "total"


def test_package_never_loads_scipy():
    # scipy.linalg costs about 0.15 s and 20 MB per importing process; the
    # package, propagate's exact path included, runs on numpy alone.
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = textwrap.dedent("""
        import sys
        import nonmarkov
        from nonmarkov import _accel, discrimination, dynamics, entropy, linalg, maps, sdp, states
        assert 'scipy' not in sys.modules, 'import'

        e0, e1 = maps.random_cptp(2, 2, 1), maps.depolarizing(0.3)
        entropy.h_min(states.max_entangled(2))
        discrimination.p_guess(states.StateEnsemble(
            [0.5, 0.5], [states.basis_state(2, 0), states.maximally_mixed(2)]))
        discrimination.diamond_norm(maps.subtract(e0, e1))
        discrimination.channel_distance(e0, e1, 0.5, 1, restarts=4)
        discrimination.p_guess_channels([0.5, 0.5], [e0, e1], 1, restarts=4)
        dm = dynamics.reduce(dynamics.model("jaynes_cummings_toy"), dynamics.time_grid(1.0, 3))
        dynamics.divisibility_report(dm, ks=[1, 2], restarts=4)
        assert 'scipy' not in sys.modules, 'numpy-only calls'

        specs = [{"form": "constant", "c": 1.0}, {"form": "sinusoid", "a": 1.0, "omega": 1.0},
                 {"form": "neg_tanh"}, {"form": "piecewise_linear", "knots": [(0.0, 1.0)]}]
        assert {dynamics.rate_from_spec(s).form for s in specs} == set(dynamics.RATE_FORMS)
        for name in dynamics.MODELS:
            m = dynamics.model(name)
            if isinstance(m, dynamics.GkslGenerator):
                dm = dynamics.propagate(m, dynamics.time_grid(2.0, 7))
                assert dm.provenance["integrator"] == "expm", name
        assert 'scipy' not in sys.modules, 'models, rates and propagate'

        # the witness workload's set-up: the eternal trajectory, its Choi
        # states and the differences of consecutive maps
        dm = dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(2, 11))
        phi2 = states.max_entangled(2).matrix
        for j in range(1, len(dm)):
            states.BipartiteState(2, 2, states.DensityOperator(
                maps.amplify(dm.maps[j], 2).apply(phi2)))
            maps.subtract(dm.maps[j], dm.maps[j - 1])
        assert 'scipy' not in sys.modules, 'witness set-up'
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
