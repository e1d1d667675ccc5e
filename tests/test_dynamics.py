import logging

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from nonmarkov import dynamics, maps, states
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


def rk4_family(gen: GkslGenerator, grid) -> DynamicalMap:
    """The family propagate's RK4/Richardson integrator gives, for any
    generator, looping the interval integrator as propagate does: the
    reference for the exact path, and the input of the pins recorded
    before commuting generators took it."""
    g = np.asarray(grid, dtype=np.float64)
    d = gen.dim
    phi = np.eye(d * d, dtype=np.complex128)
    out = [maps.identity_map(d)]
    for j in range(1, g.size):
        phi = dynamics._integrate_interval(gen, phi, g[j - 1], g[j])
        out.append(maps.QuantumMap(d, d, phi))
    return DynamicalMap(grid=g, maps=out, provenance={"kind": "gksl", "integrator": "rk4"})


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
        grid = np.array([0.0, 0.1, 0.35, 1.0, 2.5])
        dm = propagate(gen, grid)
        assert dm.provenance["integrator"] == "expm"
        l = gen.superop(0.0)
        for m, t in zip(dm.maps[1:], grid[1:]):
            assert np.array_equal(m.superop, expm(l * t))

    @pytest.mark.parametrize("rate", [
        rate_sinusoid(1e308, 1.0, 0.5),
        rate_piecewise_linear([(0.0, 1e308), (1.0, 1e308)]),
    ], ids=["sinusoid", "piecewise_linear"])
    def test_nonfinite_rate_integral_raises(self, rate):
        gen = GkslGenerator(2, np.zeros((2, 2)), [SZ / np.sqrt(2)], [rate])
        with pytest.raises(PropagationError, match="non-finite"):
            propagate(gen, time_grid(2.0, 3))

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


class TestReduce:
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
