"""Time-dependent dynamical maps: GKSL propagation, exact reduction from a
total Hamiltonian, intermediate maps, divisibility certification, and the
named model library.

A ``DynamicalMap`` holds its time family as one family ``maps.QuantumMap``,
one (N, d^2, d^2) superoperator stack indexed by grid time: ``propagate``
and ``reduce`` each build and check it once, and the divisibility pass
slices, inverts and composes it as a whole.

``propagate`` writes a generator as L_t = L_c + sum_{k in V} r_k(t) D_k,
with L_c the Hamiltonian part plus every constant-rate dissipator and V the
time-varying rates.  When every r_k in V is a ``RateForm`` and L_c and the
D_k in V commute pairwise (||[A, B]||_F <= 1e-12 ||A||_F ||B||_F), L_t
commutes with itself at all times and the map is exactly
expm(L_c t + sum_k R_k(t) D_k), with R_k(t) = ``r_k.integral(t)``; every
library GKSL model is of this kind.  Any other generator (a plain-callable
rate, or a Hamiltonian that does not commute with a time-varying
dissipator) is integrated with RK4 and Richardson step halving.
The exponentials of all grid points come from one batched numpy Pade-13
scaling and squaring, ``_expm``; the package never loads scipy.

The model library and the rate forms are two tables from a name to a
builder, ``MODELS`` and ``RATE_FORMS``.  A builder's keyword parameters,
with their defaults, are the entry's parameters, and a model builder's
docstring is the model's description.  ``model(name, params)`` and
``rate_from_spec({"form": name, **params})`` read both tables by one
keyword rule: an unknown name, a missing parameter without a default, or
a key the builder does not take raises ``ValueError``.

Multi-rate qubit models use the dissipator normalization

    L(rho) = -i [H, rho] + (1/2) sum_k gamma_k(t) (s_k rho s_k - rho)

for Pauli jumps s_k, i.e. jump operators s_k / sqrt(2) with rates
gamma_k(t).  All closed-form oracles in the tests assume this convention;
changing it only rescales time.
"""

from __future__ import annotations

import inspect
import itertools
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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
    """Named time-dependent rate, one of the forms in ``RATE_FORMS``."""

    form: str
    params: tuple = ()

    def __post_init__(self):
        if self.form not in RATE_FORMS:
            raise ValueError(f"unknown rate form {self.form!r}")

    def __call__(self, t: float) -> float:
        if self.form == "constant":
            return self.params[0]
        if self.form == "sinusoid":
            a, omega, phi = self.params
            return a * np.sin(omega * t + phi)
        if self.form == "neg_tanh":
            return -np.tanh(t)
        knots = self.params[0]  # piecewise_linear
        ts = np.array([k[0] for k in knots])
        vs = np.array([k[1] for k in knots])
        return float(np.interp(t, ts, vs))

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
        knots = self.params[0]  # piecewise_linear
        ts = np.array([k[0] for k in knots])
        vs = np.array([k[1] for k in knots])
        pts = np.concatenate(([0.0], ts[(ts > 0) & (ts < t)], [t]))
        # Overflow shows as a non-finite integral, which propagate rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.trapezoid(np.interp(pts, ts, vs), pts))

    @property
    def constant(self) -> bool:
        return self.form == "constant"


def _finite(x, name: str) -> float:
    """``x`` as a finite float; a bool is not read as 0 or 1."""
    if isinstance(x, (bool, np.bool_)) or not math.isfinite(float(x)):
        raise ValueError(f"parameter {name} must be a finite number, got {x!r}")
    return float(x)


def rate_constant(c: float) -> RateForm:
    return RateForm("constant", (_finite(c, "c"),))


def rate_sinusoid(a: float, omega: float, phi: float = 0.0) -> RateForm:
    return RateForm("sinusoid", (_finite(a, "a"), _finite(omega, "omega"), _finite(phi, "phi")))


def rate_neg_tanh() -> RateForm:
    return RateForm("neg_tanh")


def rate_piecewise_linear(knots) -> RateForm:
    ks = tuple((_finite(t, "knot time"), _finite(v, "knot value")) for t, v in knots)
    if not ks:
        raise ValueError("piecewise_linear needs at least one knot")
    if any(ks[i + 1][0] <= ks[i][0] for i in range(len(ks) - 1)):
        raise ValueError("piecewise_linear knots must have increasing times")
    return RateForm("piecewise_linear", (ks,))


RATE_FORMS = {
    "constant": rate_constant,
    "sinusoid": rate_sinusoid,
    "neg_tanh": rate_neg_tanh,
    "piecewise_linear": rate_piecewise_linear,
}


def _build(table: dict, name, params: dict, what: str):
    """``table[name](**params)`` if ``params`` names every parameter of the
    builder that has no default and nothing else; otherwise ``ValueError``."""
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    sig = inspect.signature(table[name]).parameters
    extra = sorted(set(params) - set(sig))
    if extra:
        raise ValueError(f"unexpected parameters for {what} {name!r}: {extra}")
    for key, p in sig.items():
        if p.default is p.empty and key not in params:
            raise ValueError(f"{what} {name!r} lacks the key {key!r}")
    return table[name](**params)


def rate_from_spec(spec) -> RateForm:
    """A ``RateForm`` as it is, a bare real number (a numpy scalar too, but
    not a bool) as a constant rate, or a {"form": name, **params} spec
    built by ``RATE_FORMS[name]``."""
    if isinstance(spec, RateForm):
        return spec
    if isinstance(spec, (numbers.Real, np.bool_)):
        return rate_constant(spec)
    if "form" not in spec:
        raise ValueError(f"rate spec {spec!r} lacks the key 'form'")
    params = dict(spec)
    return _build(RATE_FORMS, params.pop("form"), params, "rate form")


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
        if (not np.iterable(self.rates) or len(vs) != len(self.rates)
                or not all(callable(r) for r in self.rates)):
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
    """Time grid with the propagated family of maps: ``maps`` is one family
    ``QuantumMap`` of square maps, checked once at its construction, with
    ``maps[j]`` the map at ``grid[j]`` and ``maps[0]`` the identity."""

    grid: np.ndarray
    maps: QuantumMap
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        g = _check_grid(self.grid)
        s, d = self.maps.superop, self.maps.dimIn
        if s.ndim != 3 or len(s) != g.size or self.maps.dimOut != d:
            raise ValueError(f"need a family of square maps, one map per grid time ({g.size})")
        if float(np.abs(s[0] - np.eye(d * d)).max()) > 1e-10:
            raise ValueError("the map at t=0 must be the identity")
        object.__setattr__(self, "grid", g)
        g.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.maps.dimIn

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


# Pade-13 numerator coefficients b_0..b_13 and the largest 1-norm theta_13 at
# which the degree-13 approximant needs no scaling (Higham, SIAM J. Matrix
# Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of the finite (N, n, n) stack ``a``, by Pade-13
    scaling and squaring (Higham 2005).

    Matrix i is scaled by 2^-s_i, with s_i >= 0 the least power that brings
    its 1-norm to theta_13 or below, and its approximant is squared s_i
    times.  Every step acts on each matrix alone, so an entry of the result
    does not depend on the rest of the stack.
    """
    b = _PADE13
    norm = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(norm / _THETA13, 1.0))).astype(np.int64)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: rounding then spares the
    # identity part, which on a trace-preserving generator is what the
    # squarings amplify.
    r = eye + 2 * np.linalg.solve(v - u, u)
    for k in range(s.max(initial=0)):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def propagate(gen: GkslGenerator, grid) -> DynamicalMap:
    """Propagate the superoperator equation of motion along the grid.

    When every time-varying rate is a ``RateForm`` and the constant part
    L_c of the generator and the time-varying dissipators D_k commute
    pairwise (see the module docstring), the map at t is
    expm(L_c t + sum_k R_k(t) D_k), exact up to rounding, and one ``_expm``
    call takes the whole stack of grid points at once.  Each entry is
    ``_expm`` of that one matrix alone, so a constant-rate generator gives
    ``_expm(superop(0.0) * t)`` bit for bit.  Any other generator is
    integrated with a classical 4th-order method and Richardson step
    halving, which keeps the local error below ``RK4_TOL`` per unit time.
    ``provenance["integrator"]`` names the path taken ("expm" or "rk4"),
    which is also logged at DEBUG.  A non-finite rate, rate integral or
    integrated generator raises ``PropagationError``.  Every output map must
    pass the CPTP residual budget (1e-7), which also catches rate functions
    that do not generate a legitimate dynamical family.
    """
    g = _check_grid(grid)
    d = gen.dim
    out = [np.eye(d * d, dtype=np.complex128)]
    split = gen._commuting_split()
    if split is not None:
        l_c, varying = split
        ts = g[1:]
        # Overflow shows as a non-finite entry, which the check below rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            a = ts[:, None, None] * l_c
            for rate, dk in varying:
                a += np.array([rate.integral(t) for t in ts])[:, None, None] * dk
        bad = ~np.isfinite(a).all(axis=(1, 2))
        if bad.any():
            raise PropagationError(f"integrated generator non-finite at t={ts[bad][0]}")
        out.extend(_expm(a))
    else:
        for j in range(1, g.size):
            out.append(_integrate_interval(gen, out[-1], g[j - 1], g[j]))
    integrator = "rk4" if split is None else "expm"
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("propagate: %s on %d grid points, dim %d", integrator, g.size, d)
    family = QuantumMap(d, d, np.stack(out))
    _enforce_cptp(family, g, CPTP_BUDGET)
    prov = {"kind": "gksl", "dim": d, "constant": gen.constant, "integrator": integrator}
    return DynamicalMap(grid=g, maps=family, provenance=prov)


def _enforce_cptp(family: QuantumMap, grid, budget):
    """``PropagationError`` at the first map of the family whose smallest
    Choi eigenvalue or TP residual, from one ``maps.is_cptp`` call on the
    family, breaks ``budget``."""
    rep = maps.is_cptp(family)
    min_eig, tp_residual = rep["min_choi_eig"], rep["tp_residual"]
    bad = np.flatnonzero((min_eig < -budget) | (tp_residual > budget))
    if bad.size:
        k = bad[0]
        raise PropagationError(
            f"map at t={grid[k]} violates the CPTP budget: "
            f"min Choi eigenvalue {min_eig[k]:.3e}, "
            f"TP residual {tp_residual[k]:.3e}"
        )


def reduce(model: TotalSystemModel, grid) -> DynamicalMap:
    """Exact open-system family: trace the environment out of the joint
    unitary orbit of rho (x) env_state.

    The map at t sends each matrix unit E_ij of the system to
    Tr_E[U_t (E_ij (x) env_state) U_t^dag], which is column i + j*dimS of
    its superoperator.  U_t = V exp(-i w t) V^dag, from one eigendecomposition
    of the total Hamiltonian, is built for every grid time as one stack,
    and so are the joint states of the dimS^2 matrix units; one stacked
    product then takes every (time, unit) pair.  It runs per slice the
    GEMMs of the product for one time and one unit, so each map is bit for
    bit the one ``maps.map_from_action`` assembles from that product.  The
    product holds grid points x dimS^2 x (dimS*dimE)^2 entries.
    """
    g = _check_grid(grid)
    dS, dE = model.dimS, model.dimE
    if dS * dE > 64:
        raise ValueError("total dimension above desk scale (dimS*dimE <= 64)")
    dec = linalg.eigh(model.h_total)
    w, u = dec.eigenvalues, dec.eigenvectors
    ut = (u * np.exp(-1j * w * g[:, None])[:, None, :]) @ u.conj().T
    # units[i + j*dS] = E_ij, and joint[i + j*dS] = E_ij (x) env_state.
    units = np.eye(dS * dS, dtype=np.complex128).reshape(dS * dS, dS, dS).swapaxes(1, 2)
    rho_e = model.env_state.matrix
    joint = (units[:, :, None, :, None] * rho_e[:, None, :]).reshape(dS * dS, dS * dE, dS * dE)
    orbit = ut[:, None] @ joint @ ut.conj().swapaxes(1, 2)[:, None]
    out = linalg.trace_out(orbit, (dS, dE), 1)
    # Column i + j*dS of the superoperator is vec(out[:, i + j*dS]).
    family = QuantumMap(dS, dS, out.transpose(0, 3, 2, 1).reshape(g.size, dS * dS, dS * dS))
    _enforce_cptp(family, g, REDUCE_BUDGET)
    prov = {"kind": "total", "dimS": dS, "dimE": dE}
    return DynamicalMap(grid=g, maps=family, provenance=prov)


def intermediate(dm: DynamicalMap, t_idx: int, s_idx: int) -> QuantumMap:
    """V with map(t) = V o map(s): ``maps.compose`` of the map at t with
    the ``maps.inverse`` of the map at s, which must be invertible.  The
    one-pair case of the step maps of ``divisibility_report``, bit for bit."""
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
        """The report as JSON-ready data, its fields walked by ``linalg.jsonable``."""
        return linalg.jsonable(self)


def divisibility_report(
    dm: DynamicalMap, ks, restarts: int = 64, seed: int = 0
) -> DivisibilityReport:
    """k-positivity certificates for every consecutive intermediate map.

    The verdict is grid-level: "k-divisible on grid" iff no step is
    certified negative.  Refining the grid refines the claim; nothing is
    asserted between grid points.

    The step maps V_j, with map(t_j+1) = V_j o map(t_j), are built first,
    as one family: ``maps.compose(dm.maps[1:], maps.inverse(dm.maps[:-1]))``,
    one stacked inverse of the maps at t_0..t_n-1 (the first one that is
    not invertible raises ``maps.NonInvertibleMapError`` with its singular
    values) and one stacked product.  One ``maps.is_cptp`` call on the
    family gives every step's TP residual; each step map is bit for bit
    ``intermediate(dm, j + 1, j)``.  A one-point grid has no steps (an
    empty family) and is k-divisible for every k.  Then each k runs one
    ``maps.k_positivity`` call on the family, one stacked search, step j
    drawing its starts from ``SeedSequence(entropy=seed, spawn_key=(j,
    k))``; at k = ``dm.dim`` the search is the exact eigenvalue path and no
    seed is built.  Logs at DEBUG, per k, each step's restarts_converged
    and spread, after the call plan that ``maps.k_positivity`` logs on
    ``nonmarkov.maps``.
    """
    ks = sorted({linalg.check_positive_int(k, "k") for k in ks})
    if not ks:
        raise ValueError("ks must name at least one k")
    if ks[-1] > dm.dim:
        raise ValueError(f"each k must lie in [1, {dm.dim}]")
    restarts = linalg.check_positive_int(restarts, "restarts")
    n = len(dm) - 1
    vs = maps.compose(dm.maps[1:], maps.inverse(dm.maps[:-1]))
    tp_residuals = maps.is_cptp(vs)["tp_residual"].tolist()
    certs = {}
    for k in ks:
        # At k = dm.dim (= min(dimIn, dimOut) of every step map)
        # k_positivity takes the exact path, which reads no seed.
        seeds = ([np.random.SeedSequence(entropy=seed, spawn_key=(j, k)) for j in range(n)]
                 if k < dm.dim else [None] * n)
        certs[k] = maps.k_positivity(vs, k, restarts, seeds)
        if _log.isEnabledFor(logging.DEBUG):
            for j, c in enumerate(certs[k]):
                _log.debug("k=%d step %d: restarts_converged=%d of %d, spread=%.3g",
                           k, j, c.restarts_converged, c.restarts_used, c.spread)
    steps = [
        StepReport(
            index=j,
            t_from=float(dm.grid[j]),
            t_to=float(dm.grid[j + 1]),
            tp_residual=tp_residuals[j],
            certificates={k: certs[k][j] for k in ks},
        )
        for j in range(n)
    ]
    verdicts = {}
    for k in ks:
        bad = [s for s in steps if s.certificates[k].certified_negative]
        verdicts[k] = "k-divisible on grid" if not bad else "not k-divisible on grid"
    return DivisibilityReport(grid=dm.grid, ks=ks, steps=steps, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Model library
# ---------------------------------------------------------------------------


def _amplitude_damping(gamma=1.0) -> GkslGenerator:
    """Qubit decay to the ground state at the constant rate gamma > 0."""
    rate = rate_constant(gamma)
    if rate.params[0] <= 0:
        raise ValueError("amplitude_damping needs gamma > 0")
    return GkslGenerator(2, np.zeros((2, 2)), [SIGMA_MINUS], [rate])


def _dephasing(gamma=1.0) -> GkslGenerator:
    """Qubit phase damping at rate gamma, a number or a rate spec."""
    return GkslGenerator(2, np.zeros((2, 2)), [SIGMA_Z / np.sqrt(2)], [rate_from_spec(gamma)])


def _pauli(gamma1=1.0, gamma2=1.0, gamma3=1.0) -> GkslGenerator:
    """Qubit with all three Pauli dissipation channels, jumps s_k / sqrt(2)
    at rates gamma_k; each rate is a number or a rate spec."""
    jumps = [s / np.sqrt(2) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    rates = [rate_from_spec(g) for g in (gamma1, gamma2, gamma3)]
    return GkslGenerator(2, np.zeros((2, 2)), jumps, rates)


def _eternal() -> GkslGenerator:
    """Qubit Pauli model with gamma1 = gamma2 = 1, gamma3(t) = -tanh(t);
    P-divisible at all times but never CP-divisible for t > 0."""
    return _pauli(gamma3=rate_neg_tanh())


def _jaynes_cummings_toy(g=1.0) -> TotalSystemModel:
    """Qubit exchanging an excitation with a qubit environment at coupling g."""
    sp = SIGMA_MINUS.conj().T
    h = _finite(g, "g") * (np.kron(sp, SIGMA_MINUS) + np.kron(SIGMA_MINUS, sp))
    return TotalSystemModel(dimS=2, dimE=2, h_total=h, env_state=states.basis_state(2, 0))


MODELS = {
    "amplitude_damping": _amplitude_damping,
    "dephasing": _dephasing,
    "pauli": _pauli,
    "eternal": _eternal,
    "jaynes_cummings_toy": _jaynes_cummings_toy,
}


def model(name: str, params: dict | None = None):
    """The ``MODELS`` entry ``name`` built from ``params`` under the keyword
    rule of ``_build``: a GkslGenerator or a TotalSystemModel."""
    return _build(MODELS, name, dict(params or {}), "model")
