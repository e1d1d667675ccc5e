"""Time-dependent dynamical maps: GKSL propagation, exact reduction from a
total Hamiltonian, intermediate maps, divisibility certification, and the
named model library.

``propagate`` writes a generator as L_t = L_c + sum_{k in V} r_k(t) D_k,
with L_c the Hamiltonian part plus every constant-rate dissipator and V the
time-varying rates.  When every r_k in V is a ``RateForm`` and L_c and the
D_k in V commute pairwise (||[A, B]||_F <= 1e-12 ||A||_F ||B||_F), L_t
commutes with itself at all times and the map is exactly
expm(L_c t + sum_k R_k(t) D_k), with R_k(t) = ``r_k.integral(t)``; every
library GKSL model is of this kind.  Any other generator (a plain-callable
rate, or a Hamiltonian that does not commute with a time-varying
dissipator) is integrated with RK4 and Richardson step halving.

Multi-rate qubit models use the dissipator normalization

    L(rho) = -i [H, rho] + (1/2) sum_k gamma_k(t) (s_k rho s_k - rho)

for Pauli jumps s_k, i.e. jump operators s_k / sqrt(2) with rates
gamma_k(t).  All closed-form oracles in the tests assume this convention;
changing it only rescales time.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import linalg, maps, states
from .maps import QuantumMap

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |0><1|

# Largest admissible CPTP residual of a propagated/reduced map
# (integration-error budget).
CPTP_BUDGET = 1e-7
REDUCE_BUDGET = 1e-9

MAX_SUBDIVISIONS = 20  # per grid interval; beyond this the step underflowed

# Local error per unit time that RK4 step halving must reach.
RK4_TOL = 1e-10

# Generator parts A, B count as commuting when ||[A, B]||_F is at most this
# times ||A||_F ||B||_F; on the library models no commutator entry exceeds
# 2.5e-32, and H = sigma_x with dephasing gives a ratio of order 1.
COMMUTE_RTOL = 1e-12

_log = logging.getLogger(__name__)


class PropagationError(RuntimeError):
    """Integration failed: non-finite rates, step underflow, or CP loss."""


@dataclass(frozen=True)
class RateForm:
    """Named time-dependent rate: constant, sinusoid, neg_tanh, piecewise_linear."""

    form: str
    params: tuple = ()

    def __call__(self, t: float) -> float:
        if self.form == "constant":
            return self.params[0]
        if self.form == "sinusoid":
            a, omega, phi = self.params
            return a * np.sin(omega * t + phi)
        if self.form == "neg_tanh":
            return -np.tanh(t)
        if self.form == "piecewise_linear":
            knots = self.params[0]
            ts = np.array([k[0] for k in knots])
            vs = np.array([k[1] for k in knots])
            return float(np.interp(t, ts, vs))
        raise ValueError(f"unknown rate form {self.form!r}")

    def integral(self, t: float) -> float:
        """R(t) = integral of the rate over [0, t], in closed form.

        sinusoid: (2a/omega) sin(phi + omega t/2) sin(omega t/2), evaluated
        as a t sin(phi + h) sin(h)/h with h = omega t/2, which needs no
        division by omega and is a t sin(phi) at omega = 0.  neg_tanh:
        -log cosh t = -(|t| + log1p(exp(-2|t|)) - log 2), which cannot
        overflow.  piecewise_linear: the trapezoid rule over 0, t and the
        knots between them, exact for ``np.interp``'s linear pieces and
        constant extrapolation.
        """
        t = float(t)
        if self.form == "constant":
            return self.params[0] * t
        if self.form == "sinusoid":
            a, omega, phi = self.params
            h = omega * t / 2
            sinc = math.sin(h) / h if h != 0 else 1.0
            return a * t * math.sin(phi + h) * sinc
        if self.form == "neg_tanh":
            u = abs(t)
            return -(u + math.log1p(math.exp(-2 * u)) - math.log(2))
        if self.form == "piecewise_linear":
            knots = self.params[0]
            ts = np.array([k[0] for k in knots])
            vs = np.array([k[1] for k in knots])
            pts = np.concatenate(([0.0], ts[(ts > 0) & (ts < t)], [t]))
            # Overflow shows as a non-finite integral, which propagate rejects.
            with np.errstate(over="ignore", invalid="ignore"):
                return float(np.trapezoid(np.interp(pts, ts, vs), pts))
        raise ValueError(f"unknown rate form {self.form!r}")

    @property
    def constant(self) -> bool:
        return self.form == "constant"


def rate_constant(c: float) -> RateForm:
    return RateForm("constant", (float(c),))


def rate_sinusoid(a: float, omega: float, phi: float = 0.0) -> RateForm:
    return RateForm("sinusoid", (float(a), float(omega), float(phi)))


def rate_neg_tanh() -> RateForm:
    return RateForm("neg_tanh")


def rate_piecewise_linear(knots) -> RateForm:
    ks = tuple((float(t), float(v)) for t, v in knots)
    if not ks:
        raise ValueError("piecewise_linear needs at least one knot")
    if not all(math.isfinite(t) and math.isfinite(v) for t, v in ks):
        raise ValueError("piecewise_linear knots must be finite")
    if any(ks[i + 1][0] <= ks[i][0] for i in range(len(ks) - 1)):
        raise ValueError("piecewise_linear knots must have increasing times")
    return RateForm("piecewise_linear", (ks,))


def rate_from_spec(spec) -> RateForm:
    """Accept a bare number (constant) or a {"form": ...} descriptor."""
    if isinstance(spec, RateForm):
        return spec
    if isinstance(spec, (int, float)):
        return rate_constant(spec)

    def need(key):
        if key not in spec:
            raise ValueError(f"rate spec {spec!r} lacks the key {key!r}")
        return spec[key]

    form = need("form")
    if form == "constant":
        return rate_constant(need("c"))
    if form == "sinusoid":
        return rate_sinusoid(need("a"), need("omega"), spec.get("phi", 0.0))
    if form == "neg_tanh":
        return rate_neg_tanh()
    if form == "piecewise_linear":
        return rate_piecewise_linear(need("knots"))
    raise ValueError(f"unknown rate form {form!r}")


@dataclass(frozen=True)
class GkslGenerator:
    """Generator with effective Hamiltonian, jump operators and rates.

    Action: L_t(X) = -i[h_eff, X] + sum_i gamma_i(t) (V X V+ - {V+V, X}/2).
    """

    dim: int
    h_eff: np.ndarray
    jumps: list
    rates: list

    def __post_init__(self):
        object.__setattr__(self, "dim", linalg.check_positive_int(self.dim, "dim"))
        h = linalg.hermitize(self.h_eff)
        if h.shape != (self.dim, self.dim):
            raise ValueError("h_eff dimension mismatch")
        object.__setattr__(self, "h_eff", h)
        vs = [linalg.as_matrix(v) for v in self.jumps]
        if any(v.shape != (self.dim, self.dim) for v in vs):
            raise ValueError("jump operator dimension mismatch")
        if len(vs) != len(self.rates):
            raise ValueError("need one rate function per jump operator")
        object.__setattr__(self, "jumps", vs)
        eye = np.eye(self.dim)
        ham = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        diss = []
        for v in vs:
            vv = v.conj().T @ v
            diss.append(
                np.kron(v.conj(), v) - 0.5 * (np.kron(eye, vv) + np.kron(vv.T, eye))
            )
        object.__setattr__(self, "_ham_part", ham)
        object.__setattr__(self, "_diss_parts", diss)

    @property
    def constant(self) -> bool:
        return all(getattr(r, "constant", False) for r in self.rates)

    def superop(self, t: float) -> np.ndarray:
        return self._sum(zip(self.rates, self._diss_parts), t)

    def _sum(self, pairs, t):
        """Hamiltonian part plus rate(t) * D over the (rate, D) pairs."""
        l = self._ham_part.copy()
        for rate, d in pairs:
            g = float(rate(t))
            if not np.isfinite(g):
                raise PropagationError(f"rate evaluated non-finite at t={t}")
            l += g * d
        return l

    def _commuting_split(self):
        """(L_c, [(r_k, D_k) for time-varying k]) when the map is exactly
        the exponential of the integrated generator, else None.

        L_c is the Hamiltonian part plus every constant-rate dissipator,
        summed as ``superop`` sums them, so that it is ``superop(0.0)``
        bit for bit when no rate varies.
        """
        const, varying = [], []
        for rate, d in zip(self.rates, self._diss_parts):
            if isinstance(rate, RateForm) and rate.constant:
                const.append((rate, d))
            elif isinstance(rate, RateForm):
                varying.append((rate, d))
            else:
                return None
        l_c = self._sum(const, 0.0)
        mats = [l_c] + [d for _, d in varying]
        for a, b in itertools.combinations(mats, 2):
            comm = np.linalg.norm(a @ b - b @ a)
            if comm > COMMUTE_RTOL * np.linalg.norm(a) * np.linalg.norm(b):
                return None
        return l_c, varying


@dataclass(frozen=True)
class TotalSystemModel:
    """System+environment Hamiltonian with a fixed environment state."""

    dimS: int
    dimE: int
    h_total: np.ndarray
    env_state: states.DensityOperator

    def __post_init__(self):
        for name in ("dimS", "dimE"):
            object.__setattr__(self, name, linalg.check_positive_int(getattr(self, name), name))
        h = linalg.hermitize(self.h_total)
        if h.shape != (self.dimS * self.dimE, self.dimS * self.dimE):
            raise ValueError("h_total dimension mismatch")
        if self.env_state.dim != self.dimE:
            raise ValueError("environment state dimension mismatch")
        object.__setattr__(self, "h_total", h)


@dataclass(frozen=True)
class DynamicalMap:
    """Time grid with the propagated family of maps (maps[0] = identity)."""

    grid: np.ndarray
    maps: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        g = _check_grid(self.grid)
        if len(self.maps) != g.size:
            raise ValueError("need one map per grid time")
        d = self.maps[0].dimIn
        if float(np.abs(self.maps[0].superop - np.eye(d * d)).max()) > 1e-10:
            raise ValueError("the map at t=0 must be the identity")
        object.__setattr__(self, "grid", g)
        g.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.maps[0].dimIn

    def __len__(self) -> int:
        return self.grid.size


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=np.float64)
    if (g.ndim != 1 or g.size < 1 or g[0] != 0.0 or not np.all(np.isfinite(g))
            or np.any(np.diff(g) <= 0)):
        raise ValueError("grid must be a 1-D array of finite times from 0, increasing strictly")
    return g


def time_grid(t_max: float, steps: int) -> np.ndarray:
    steps = linalg.check_positive_int(steps, "steps")
    if steps < 2 or not 0.0 < t_max < math.inf:
        raise ValueError("need steps >= 2 and a finite t_max > 0")
    return np.linspace(0.0, float(t_max), steps)


def _rk4_step(gen: GkslGenerator, phi: np.ndarray, t: float, h: float, l_start):
    """One RK4 step from t, given the generator at t; returns the new phi and
    the generator at t + h, which starts the next step."""
    mid = gen.superop(t + h / 2)
    l_end = gen.superop(t + h)
    k1 = l_start @ phi
    k2 = mid @ (phi + (h / 2) * k1)
    k3 = mid @ (phi + (h / 2) * k2)
    k4 = l_end @ (phi + h * k3)
    return phi + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4), l_end


def _rk4_pass(gen, phi, t0, h, n, l0):
    """n RK4 steps of size h from t0, where the generator at t0 is l0."""
    t, l = t0, l0
    for _ in range(n):
        phi, l = _rk4_step(gen, phi, t, h, l)
        t += h
    return phi


def _integrate_interval(gen, phi, t0, t1):
    """Advance phi over [t0, t1] with Richardson step halving to a local
    error of ``RK4_TOL`` per unit time.

    Every pass starts from the generator at t0, and each step hands the
    generator at its end point to the next step, so each time point of a
    pass costs one ``superop`` evaluation.
    """
    h = t1 - t0
    l0 = gen.superop(t0)
    n = 1
    coarse = None
    for _ in range(MAX_SUBDIVISIONS):
        fine = _rk4_pass(gen, phi, t0, h / (2 * n), 2 * n, l0)
        if coarse is None:
            coarse = _rk4_pass(gen, phi, t0, h, 1, l0)
        err = float(np.abs(fine - coarse).max()) / 15.0
        if err <= RK4_TOL * h:
            return fine + (fine - coarse) / 15.0
        coarse = fine
        n *= 2
    raise PropagationError(
        f"step underflow integrating [{t0}, {t1}]: tolerance {RK4_TOL} not met "
        f"after {MAX_SUBDIVISIONS} halvings"
    )


def propagate(gen: GkslGenerator, grid) -> DynamicalMap:
    """Propagate the superoperator equation of motion along the grid.

    When every time-varying rate is a ``RateForm`` and the constant part
    L_c of the generator and the time-varying dissipators D_k commute
    pairwise (see the module docstring), each grid point costs one scipy
    ``expm(L_c t + sum_k R_k(t) D_k)``, exact up to rounding; a constant-rate
    generator gives ``expm(superop(0.0) * t)`` bit for bit.  Any other
    generator is integrated with a classical 4th-order method and
    Richardson step halving, which keeps the local error below ``RK4_TOL``
    per unit time.  ``provenance["integrator"]`` names the path taken
    ("expm" or "rk4"), which is also logged at DEBUG.  A non-finite rate or rate
    integral raises ``PropagationError``.  Every output map must pass the
    CPTP residual budget (1e-7), which also catches rate functions that do
    not generate a legitimate dynamical family.
    """
    g = _check_grid(grid)
    d = gen.dim
    out = [maps.identity_map(d)]
    split = gen._commuting_split()
    if split is not None:
        l_c, varying = split
        for t in g[1:]:
            a = l_c * t
            for rate, dk in varying:
                r = rate.integral(t)
                if not np.isfinite(r):
                    raise PropagationError(f"rate integral non-finite at t={t}")
                a += r * dk
            out.append(QuantumMap(d, d, expm(a)))
    else:
        phi = np.eye(d * d, dtype=np.complex128)
        for j in range(1, g.size):
            phi = _integrate_interval(gen, phi, g[j - 1], g[j])
            out.append(QuantumMap(d, d, phi))
    integrator = "rk4" if split is None else "expm"
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("propagate: %s on %d grid points, dim %d", integrator, g.size, d)
    _enforce_cptp(out, g, CPTP_BUDGET)
    prov = {"kind": "gksl", "dim": d, "constant": gen.constant, "integrator": integrator}
    return DynamicalMap(grid=g, maps=out, provenance=prov)


def _enforce_cptp(family, grid, budget):
    for t, m in zip(grid, family):
        rep = maps.is_cptp(m)
        if rep["min_choi_eig"] < -budget or rep["tp_residual"] > budget:
            raise PropagationError(
                f"map at t={t} violates the CPTP budget: "
                f"min Choi eigenvalue {rep['min_choi_eig']:.3e}, "
                f"TP residual {rep['tp_residual']:.3e}"
            )


def reduce(model: TotalSystemModel, grid) -> DynamicalMap:
    """Exact open-system family: trace the environment out of the joint
    unitary orbit of rho (x) env_state."""
    g = _check_grid(grid)
    dS, dE = model.dimS, model.dimE
    if dS * dE > 64:
        raise ValueError("total dimension above desk scale (dimS*dimE <= 64)")
    dec = linalg.eigh(model.h_total)
    w, u = dec.eigenvalues, dec.eigenvectors
    rho_e = model.env_state.matrix
    out = []
    for t in g:
        ut = (u * np.exp(-1j * w * t)) @ u.conj().T

        def act(x, ut=ut):
            joint = np.kron(x, rho_e)
            return linalg.trace_out(ut @ joint @ ut.conj().T, (dS, dE), 1)

        out.append(maps.map_from_action(dS, dS, act))
    _enforce_cptp(out, g, REDUCE_BUDGET)
    prov = {"kind": "total", "dimS": dS, "dimE": dE}
    return DynamicalMap(grid=g, maps=out, provenance=prov)


def intermediate(dm: DynamicalMap, t_idx: int, s_idx: int) -> QuantumMap:
    """V with map(t) = V o map(s); requires the map at s to be invertible."""
    if not 0 <= s_idx <= t_idx < len(dm):
        raise ValueError(f"need 0 <= s_idx <= t_idx < {len(dm)}, got s_idx={s_idx}, t_idx={t_idx}")
    if t_idx == s_idx:
        return maps.identity_map(dm.dim)
    return maps.compose(dm.maps[t_idx], maps.inverse(dm.maps[s_idx]))


@dataclass(frozen=True)
class StepReport:
    """Certificates for one consecutive-grid intermediate map."""

    index: int
    t_from: float
    t_to: float
    tp_residual: float
    certificates: dict  # k -> PositivityCertificate


@dataclass(frozen=True)
class DivisibilityReport:
    grid: np.ndarray
    ks: list
    steps: list
    verdicts: dict  # k -> "k-divisible on grid" | "not k-divisible on grid"

    def to_jsonable(self) -> dict:
        return {
            "ks": [int(k) for k in self.ks],
            "grid": [float(t) for t in self.grid],
            "verdicts": {str(k): v for k, v in self.verdicts.items()},
            "steps": [
                {
                    "index": s.index,
                    "t_from": s.t_from,
                    "t_to": s.t_to,
                    "tp_residual": s.tp_residual,
                    "certificates": {
                        str(k): {
                            "k": c.k,
                            "min_value": c.min_value,
                            "verdict": c.verdict,
                            "restarts_used": c.restarts_used,
                            "restarts_converged": c.restarts_converged,
                            "spread": c.spread,
                            "witness": linalg.to_jsonable(c.witness),
                        }
                        for k, c in s.certificates.items()
                    },
                }
                for s in self.steps
            ],
        }


def divisibility_report(
    dm: DynamicalMap, ks, restarts: int = 64, seed: int = 0
) -> DivisibilityReport:
    """k-positivity certificates for every consecutive intermediate map.

    The verdict is grid-level: "k-divisible on grid" iff no step is
    certified negative.  Refining the grid refines the claim; nothing is
    asserted between grid points.

    Every intermediate map is built first; then each k runs one stacked
    search over all steps (``maps.k_positivity_many``), step j drawing its
    starts from ``SeedSequence(entropy=seed, spawn_key=(j, k))``.  Logs at
    DEBUG, per k, each step's restarts_converged and spread, after the call
    plan that ``k_positivity_many`` logs on ``nonmarkov.maps``.
    """
    ks = sorted({linalg.check_positive_int(k, "k") for k in ks})
    if not ks:
        raise ValueError("ks must name at least one k")
    if ks[-1] > dm.dim:
        raise ValueError(f"each k must lie in [1, {dm.dim}]")
    restarts = linalg.check_positive_int(restarts, "restarts")
    n = len(dm) - 1
    vs = [intermediate(dm, j + 1, j) for j in range(n)]
    certs = {}
    for k in ks:
        seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(j, k)) for j in range(n)]
        certs[k] = maps.k_positivity_many(vs, k, restarts, seeds) if n else []
        if _log.isEnabledFor(logging.DEBUG):
            for j, c in enumerate(certs[k]):
                _log.debug("k=%d step %d: restarts_converged=%d of %d, spread=%.3g",
                           k, j, c.restarts_converged, c.restarts_used, c.spread)
    steps = [
        StepReport(
            index=j,
            t_from=float(dm.grid[j]),
            t_to=float(dm.grid[j + 1]),
            tp_residual=float(maps.is_cptp(v)["tp_residual"]),
            certificates={k: certs[k][j] for k in ks},
        )
        for j, v in enumerate(vs)
    ]
    verdicts = {}
    for k in ks:
        bad = [s for s in steps if s.certificates[k].certified_negative]
        verdicts[k] = "k-divisible on grid" if not bad else "not k-divisible on grid"
    return DivisibilityReport(grid=dm.grid, ks=ks, steps=steps, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Model library
# ---------------------------------------------------------------------------


def model(name: str, params: dict | None = None):
    """Named test models returning a GkslGenerator or TotalSystemModel."""
    params = dict(params or {})
    if name == "amplitude_damping":
        gamma = float(params.pop("gamma", 1.0))
        if gamma <= 0:
            raise ValueError("amplitude_damping needs gamma > 0")
        _no_extra(name, params)
        return GkslGenerator(
            dim=2,
            h_eff=np.zeros((2, 2)),
            jumps=[SIGMA_MINUS],
            rates=[rate_constant(gamma)],
        )
    if name == "dephasing":
        gamma = rate_from_spec(params.pop("gamma", 1.0))
        _no_extra(name, params)
        return GkslGenerator(
            dim=2,
            h_eff=np.zeros((2, 2)),
            jumps=[SIGMA_Z / np.sqrt(2)],
            rates=[gamma],
        )
    if name == "pauli":
        g1 = rate_from_spec(params.pop("gamma1", 1.0))
        g2 = rate_from_spec(params.pop("gamma2", 1.0))
        g3 = rate_from_spec(params.pop("gamma3", 1.0))
        _no_extra(name, params)
        return GkslGenerator(
            dim=2,
            h_eff=np.zeros((2, 2)),
            jumps=[s / np.sqrt(2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
            rates=[g1, g2, g3],
        )
    if name == "eternal":
        _no_extra(name, params)
        return GkslGenerator(
            dim=2,
            h_eff=np.zeros((2, 2)),
            jumps=[s / np.sqrt(2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)],
            rates=[rate_constant(1.0), rate_constant(1.0), rate_neg_tanh()],
        )
    if name == "jaynes_cummings_toy":
        g = float(params.pop("g", 1.0))
        _no_extra(name, params)
        sp = SIGMA_MINUS.conj().T
        h = g * (np.kron(sp, SIGMA_MINUS) + np.kron(SIGMA_MINUS, sp))
        return TotalSystemModel(
            dimS=2, dimE=2, h_total=h, env_state=states.basis_state(2, 0)
        )
    raise ValueError(f"unknown model {name!r}")


def _no_extra(name, params):
    if params:
        raise ValueError(f"unexpected parameters for model {name!r}: {sorted(params)}")


MODEL_DESCRIPTIONS = {
    "amplitude_damping": "qubit decay to the ground state; params: gamma > 0 (constant rate)",
    "dephasing": "qubit phase damping; params: gamma (number or rate form)",
    "pauli": "qubit with all three Pauli dissipation channels; params: gamma1, gamma2, gamma3",
    "eternal": "qubit Pauli model with gamma1 = gamma2 = 1, gamma3(t) = -tanh(t); "
    "P-divisible at all times but never CP-divisible for t > 0",
    "jaynes_cummings_toy": "qubit exchanging an excitation with a qubit environment; params: g",
}
