"""Linear maps on operators: superoperator/Choi/Kraus views, map algebra,
and positivity certification (complete positivity exactly, k-positivity for
k < d by certified-negative / heuristically-nonnegative multistart search).

Vectorization is column-stacking: vec(X)[i + j*d] = X[i, j], so a map with
Kraus operators {K} has superoperator sum kron(conj(K), K).  The Choi matrix
puts the output factor first:

    J(Phi) = sum_ij Phi(|i><j|) (x) |i><j|

so J acts on H_out (x) H_in and Tr over the *output* factor of a
trace-preserving map gives the identity on H_in.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import linalg, _accel

# Hermiticity preservation required of every map at construction.
HERM_PRESERVE_TOL = 1e-9

# A superoperator counts as invertible iff smallest/largest singular value
# exceeds this ratio; divisibility checks multiply by inverses, so amplified
# noise must stay bounded.
INVERT_RTOL = 1e-10

# A k-positivity search value below this certifies a counterexample.
CERT_NEG_TOL = -1e-8

CPTP_TOL = 1e-9

_log = logging.getLogger(__name__)


class NonInvertibleMapError(ValueError):
    """Raised when a map's superoperator is singular beyond INVERT_RTOL."""

    def __init__(self, sigma_min: float, sigma_max: float):
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(
            f"superoperator is not invertible: smallest singular value "
            f"{sigma_min:.3e} vs largest {sigma_max:.3e}"
        )


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class QuantumMap:
    """Linear map B(H_in) -> B(H_out) stored as a superoperator matrix."""

    dimIn: int
    dimOut: int
    superop: np.ndarray

    def __post_init__(self):
        for name in ("dimIn", "dimOut"):
            object.__setattr__(self, name, linalg.check_positive_int(getattr(self, name), name))
        s = linalg.as_matrix(self.superop)
        if s.shape != (self.dimOut**2, self.dimIn**2):
            raise ValueError(
                f"superop shape {s.shape} does not match dims "
                f"({self.dimOut**2}, {self.dimIn**2})"
            )
        object.__setattr__(self, "superop", s)
        s.setflags(write=False)
        # A map preserves Hermiticity iff its Choi matrix is Hermitian.
        linalg.hermitize(choi(self), HERM_PRESERVE_TOL)

    def apply(self, x) -> np.ndarray:
        a = linalg.as_matrix(x)
        if a.shape != (self.dimIn, self.dimIn):
            raise ValueError(f"input shape {a.shape} does not match dimIn {self.dimIn}")
        return unvec(self.superop @ vec(a), self.dimOut)

    def as_tensor(self) -> np.ndarray:
        """T4[o1, o2, i1, i2] with Y[o1, o2] = sum T4[o1, o2, i1, i2] X[i1, i2]."""
        t = self.superop.reshape(self.dimOut, self.dimOut, self.dimIn, self.dimIn)
        return t.transpose(1, 0, 3, 2)

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimIn": self.dimIn,
                "dimOut": self.dimOut,
                "superop": linalg.to_jsonable(self.superop),
            }
        )

    @staticmethod
    def from_json(text: str) -> "QuantumMap":
        doc = json.loads(text)
        if "kraus" in doc:
            return from_kraus([linalg.from_jsonable(k) for k in doc["kraus"]])
        s = linalg.from_jsonable(doc["superop"])
        return QuantumMap(doc["dimIn"], doc["dimOut"], s)


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of a k-positivity search on a map's Choi matrix.

    min_value is the exact quadratic form of the Choi matrix at the witness
    (a unit vector of Schmidt rank <= k across the out:in cut).  The verdict
    "certified-negative" means the witness is a genuine counterexample; the
    complementary label remains heuristic and is never upgraded to a proof.

    restarts_converged counts the restarts whose stop test passed before the
    sweep budget ran out, and spread is the median of the restarts' final
    values minus the best one; both are 0 on the exact-eigenvalue path.
    """

    k: int
    min_value: float
    witness: np.ndarray
    restarts_used: int
    verdict: str
    restarts_converged: int
    spread: float

    @property
    def certified_negative(self) -> bool:
        return self.verdict == "certified-negative"


def map_from_action(dimIn: int, dimOut: int, action) -> QuantumMap:
    """Assemble the superoperator by applying ``action`` to matrix units."""
    s = np.zeros((dimOut**2, dimIn**2), dtype=np.complex128)
    for j in range(dimIn):
        for i in range(dimIn):
            e = np.zeros((dimIn, dimIn), dtype=np.complex128)
            e[i, j] = 1.0
            s[:, i + j * dimIn] = vec(np.asarray(action(e), dtype=np.complex128))
    return QuantumMap(dimIn, dimOut, s)


def from_kraus(ops) -> QuantumMap:
    """Map acting as X -> sum K X K^dag."""
    mats = [linalg.as_matrix(k) for k in ops]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    d_out, d_in = mats[0].shape
    s = np.zeros((d_out**2, d_in**2), dtype=np.complex128)
    for k in mats:
        if k.shape != (d_out, d_in):
            raise ValueError("Kraus operators have mixed shapes")
        s += np.kron(k.conj(), k)
    return QuantumMap(d_in, d_out, s)


def choi(m: QuantumMap) -> np.ndarray:
    """J(Phi) = sum_ij Phi(|i><j|) (x) |i><j|  (output factor first)."""
    t4 = m.as_tensor()  # [o1, o2, i, j] = Phi(E_ij)[o1, o2]
    j4 = t4.transpose(0, 2, 1, 3)  # [o1, i, o2, j]
    d = m.dimOut * m.dimIn
    return np.ascontiguousarray(j4.reshape(d, d))


def from_choi(j, dimIn: int, dimOut: int) -> QuantumMap:
    a = linalg.as_matrix(j)
    d = dimOut * dimIn
    if a.shape != (d, d):
        raise ValueError(f"Choi matrix shape {a.shape} does not match dims")
    t4 = a.reshape(dimOut, dimIn, dimOut, dimIn).transpose(0, 2, 1, 3)
    s = t4.transpose(1, 0, 3, 2).reshape(dimOut**2, dimIn**2)
    return QuantumMap(dimIn, dimOut, np.ascontiguousarray(s))


def compose(f: QuantumMap, g: QuantumMap) -> QuantumMap:
    """The map x -> f(g(x))."""
    if g.dimOut != f.dimIn:
        raise ValueError(f"cannot compose: g.dimOut {g.dimOut} != f.dimIn {f.dimIn}")
    return QuantumMap(g.dimIn, f.dimOut, f.superop @ g.superop)


def inverse(m: QuantumMap) -> QuantumMap:
    if m.dimIn != m.dimOut:
        raise ValueError("only square maps can be inverted")
    sv = np.linalg.svd(m.superop, compute_uv=False)
    if sv[-1] <= INVERT_RTOL * sv[0]:
        raise NonInvertibleMapError(float(sv[-1]), float(sv[0]))
    return QuantumMap(m.dimIn, m.dimOut, np.linalg.inv(m.superop))


def adjoint(m: QuantumMap) -> QuantumMap:
    """Heisenberg-picture dual w.r.t. the Hilbert-Schmidt inner product."""
    return QuantumMap(m.dimOut, m.dimIn, m.superop.conj().T)


def amplify(m: QuantumMap, k: int) -> QuantumMap:
    """id_k (x) m, the ancilla-extended map (ancilla is the first factor)."""
    k = linalg.check_positive_int(k, "ancilla dimension k")
    if k == 1:
        return m
    t4 = m.as_tensor()
    eye = np.eye(k)
    t8 = np.einsum("ab,cd,opiq->aocpbidq", eye, eye, t4)
    dO, dI = k * m.dimOut, k * m.dimIn
    t4a = t8.reshape(dO, dO, dI, dI)
    s = t4a.transpose(1, 0, 3, 2).reshape(dO**2, dI**2)
    return QuantumMap(dI, dO, np.ascontiguousarray(s))


def is_cptp(m: QuantumMap) -> dict:
    """Report {cp, tp, min_choi_eig, tp_residual} under the Choi criterion."""
    j = choi(m)
    min_choi_eig = linalg.min_eig(j)
    tr_out = linalg.trace_out(j, (m.dimOut, m.dimIn), 0)
    tp_residual = linalg.operator_norm(tr_out - np.eye(m.dimIn))
    return {
        "cp": bool(min_choi_eig >= -CPTP_TOL),
        "tp": bool(tp_residual <= CPTP_TOL),
        "min_choi_eig": float(min_choi_eig),
        "tp_residual": float(tp_residual),
    }


def choi_quadratic_form(j: np.ndarray, psi: np.ndarray) -> float:
    return float((psi.conj() @ j @ psi).real / (psi.conj() @ psi).real)


def k_positivity(m: QuantumMap, k: int, restarts: int = 64, seed: int = 0) -> PositivityCertificate:
    """Search min <psi|J(m)|psi> over unit vectors of Schmidt rank <= k.

    For k >= min(dimOut, dimIn) the Schmidt constraint is vacuous and the
    exact minimum Choi eigenvalue is returned.  Otherwise a multistart
    block-coordinate descent on the factor parameterization
    psi = sum_i L[:, i] (x) U[:, i] runs; each half-step solves its factor's
    minimum-eigenvector problem exactly, so the objective is monotone.
    Deterministic for a fixed seed (all start points derive from it).
    Runs as ``k_positivity_many([m], k, restarts, [seed])[0]``.
    """
    return k_positivity_many([m], k, restarts, [seed])[0]


def k_positivity_many(ms, k: int, restarts: int, seeds) -> list[PositivityCertificate]:
    """``k_positivity`` of every map in ``ms``, with ``restarts`` start points
    drawn from each map's own entry of ``seeds``.

    The maps must share dimensions.  On the exact-eigenvalue path each map
    gets its own eigendecomposition.  Otherwise the searches of all maps run
    as groups of one stacked ``_accel.kpos_scan`` call, split into several
    calls only where a call would hold more than
    ``_accel.KPOS_STACK_ENTRIES`` Hessian entries.  Every restart follows
    the iterates it follows alone, so each certificate is bit for bit the
    one ``k_positivity`` gives for that map and seed.  Logs this call plan
    at DEBUG on the ``nonmarkov.maps`` logger: the exact path, or the number
    of ``kpos_scan`` calls and the rows of each.
    """
    ms, seeds = list(ms), list(seeds)
    if not ms:
        raise ValueError("k_positivity_many needs at least one map")
    if len(seeds) != len(ms):
        raise ValueError(f"need one seed per map: {len(seeds)} seeds for {len(ms)} maps")
    dA, dB = ms[0].dimOut, ms[0].dimIn
    if any((m.dimOut, m.dimIn) != (dA, dB) for m in ms):
        raise ValueError("maps must share dimensions")
    k = linalg.check_positive_int(k, "k")
    restarts = linalg.check_positive_int(restarts, "restarts")
    if k > dB:
        raise ValueError(f"k must be in [1, {dB}], got {k}")
    js = []
    for m in ms:
        j = choi(m)
        js.append((j + j.conj().T) / 2)
    if k >= min(dA, dB):
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("k=%d: exact minimum eigenvalues, no kpos_scan call", k)
        return [_certificate(k, j, linalg.eigh(j).eigenvectors[:, 0], 0, 0, 0.0) for j in js]
    starts_l, starts_u = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        shape_l = (restarts, dA, k)
        shape_u = (restarts, dB, k)
        starts_l.append(rng.standard_normal(shape_l) + 1j * rng.standard_normal(shape_l))
        starts_u.append(rng.standard_normal(shape_u) + 1j * rng.standard_normal(shape_u))
    j4 = np.stack([j.reshape(dA, dB, dA, dB) for j in js])
    per_call = _kpos_maps_per_call(dA, dB, k, restarts)
    calls = [(lo, min(lo + per_call, len(ms))) for lo in range(0, len(ms), per_call)]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("k=%d: %d stacked kpos_scan call(s), rows per call %s",
                   k, len(calls), [restarts * (hi - lo) for lo, hi in calls])
    certs = []
    for lo, hi in calls:
        bests, best_l, best_u, vals, converged = _accel.kpos_scan(
            j4[lo:hi], dA, dB, k,
            np.concatenate(starts_l[lo:hi]), np.concatenate(starts_u[lo:hi]))
        for g in range(hi - lo):
            psi = np.einsum("ai,bi->ab", best_l[g], best_u[g]).reshape(dA * dB)
            psi = psi / np.linalg.norm(psi)
            spread = float(np.median(vals[g]) - bests[g])
            certs.append(_certificate(k, js[lo + g], psi, restarts,
                                      int(converged[g].sum()), spread))
    return certs


def _kpos_maps_per_call(dA: int, dB: int, k: int, restarts: int) -> int:
    """How many maps' searches one ``kpos_scan`` call stacks: as many as keep
    rows x (max(dA, dB) * k)^2 within ``_accel.KPOS_STACK_ENTRIES``, and at
    least one."""
    return max(1, _accel.KPOS_STACK_ENTRIES // (restarts * (max(dA, dB) * k) ** 2))


def _certificate(k, j, psi, restarts, converged, spread) -> PositivityCertificate:
    val = choi_quadratic_form(j, psi)
    verdict = "certified-negative" if val < CERT_NEG_TOL else "heuristically-nonnegative"
    return PositivityCertificate(k, val, psi, restarts, verdict, converged, spread)


# ---------------------------------------------------------------------------
# Stock maps
# ---------------------------------------------------------------------------


def identity_map(dim: int) -> QuantumMap:
    return QuantumMap(dim, dim, np.eye(dim**2, dtype=np.complex128))


def unitary_map(u) -> QuantumMap:
    a = linalg.as_matrix(u)
    return from_kraus([a])


def transposition_map(dim: int) -> QuantumMap:
    return map_from_action(dim, dim, lambda x: x.T)


def depolarizing(q: float, dim: int = 2) -> QuantumMap:
    """X -> (1-q) X + q Tr(X) I/dim."""
    eye = np.eye(dim)
    return map_from_action(dim, dim, lambda x: (1 - q) * x + q * np.trace(x) * eye / dim)


def replacer(state) -> QuantumMap:
    """X -> Tr(X) * state."""
    s = linalg.as_matrix(state)
    return map_from_action(s.shape[0], s.shape[0], lambda x: np.trace(x) * s)


def subtract(a: QuantumMap, b: QuantumMap) -> QuantumMap:
    """a - b, as ``mix([a, b], [1.0, -1.0])``."""
    return mix([a, b], [1.0, -1.0])


def weighted_difference(a: QuantumMap, b: QuantumMap, wa: float, wb: float) -> QuantumMap:
    """wa a - wb b, as ``mix([a, b], [wa, -wb])``."""
    return mix([a, b], [wa, -wb])


def mix(ms, probs) -> QuantumMap:
    """sum_i probs[i] ms[i]: one weight per map, all maps of one shape.
    ValueError for an empty list, a weight count that differs from the
    map count, or maps of differing dimensions."""
    if not ms or len(ms) != len(probs) or len({(mi.dimIn, mi.dimOut) for mi in ms}) > 1:
        raise ValueError("mix needs one weight per map, and the maps must share dimensions")
    p = np.asarray(probs, dtype=np.float64)
    s = sum(pi * mi.superop for pi, mi in zip(p, ms))
    return QuantumMap(ms[0].dimIn, ms[0].dimOut, s)


def random_cptp(dim: int, kraus_rank: int, seed: int) -> QuantumMap:
    """Haar-isometry-induced random channel, deterministic per seed."""
    dim = linalg.check_positive_int(dim, "dim")
    kraus_rank = linalg.check_positive_int(kraus_rank, "kraus_rank")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * kraus_rank, dim)) + 1j * rng.standard_normal(
        (dim * kraus_rank, dim)
    )
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    v = q * (d / np.abs(d))  # isometry dim*rank x dim, rows out-major
    ops = [v.reshape(dim, kraus_rank, dim)[:, e, :] for e in range(kraus_rank)]
    return from_kraus(ops)
