"""Linear maps on operators: superoperator/Choi/Kraus views, map algebra,
and positivity certification (complete positivity exactly, k-positivity for
k < d by certified-negative / heuristically-nonnegative multistart search).

Vectorization is column-stacking: vec(X)[i + j*d] = X[i, j], so a map with
Kraus operators {K} has superoperator sum kron(conj(K), K).  The Choi matrix
puts the output factor first:

    J(Phi) = sum_ij Phi(|i><j|) (x) |i><j|

so J acts on H_out (x) H_in and Tr over the *output* factor of a
trace-preserving map gives the identity on H_in.

A ``QuantumMap`` is one map or a family of N maps of one shape, held as one
(N, dOut^2, dIn^2) superoperator stack and checked once; ``family[j]`` is
its j-th map and ``family[a:b]`` a family again.  ``choi``, ``compose``,
``inverse``, ``adjoint``, ``is_cptp`` and ``k_positivity`` act on one map
or on each map of a family along numpy's leading axis, bit for bit as on
the map alone.  ``apply``, ``amplify`` and the lists of ``mix`` take single maps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
class QuantumMap(linalg.JsonForm):
    """Linear map B(H_in) -> B(H_out) stored as a superoperator matrix, or a
    family of such maps stored as one (N, dimOut^2, dimIn^2) stack.

    ``hermitian_choi`` is the read-only Hermitian part (J + J†)/2 of the
    Choi matrix (of each map of a family), kept from the construction-time
    check, one stacked ``linalg.hermitize``; ``choi`` returns J itself.
    Indexing a family gives its maps: an integer one map, a slice a family,
    possibly empty.  Its JSON (``linalg.JsonForm``) holds the other three
    fields.
    """

    dimIn: int
    dimOut: int
    superop: np.ndarray
    hermitian_choi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("dimIn", "dimOut"):
            object.__setattr__(self, name, linalg.check_positive_int(getattr(self, name), name))
        s = np.ascontiguousarray(self.superop, dtype=np.complex128)
        if s.ndim not in (2, 3) or s.shape[-2:] != (self.dimOut**2, self.dimIn**2):
            raise ValueError(
                f"superop shape {s.shape} does not match dims "
                f"({self.dimOut**2}, {self.dimIn**2}), nor a family of them"
            )
        object.__setattr__(self, "superop", s)
        s.setflags(write=False)
        # A map preserves Hermiticity iff its Choi matrix is Hermitian; the
        # check also rejects NaN and Inf entries.
        j = linalg.hermitize(choi(self), HERM_PRESERVE_TOL)
        j.setflags(write=False)
        object.__setattr__(self, "hermitian_choi", j)

    def __getitem__(self, idx) -> QuantumMap:
        if self.superop.ndim != 3:
            raise ValueError("only a family of maps can be indexed")
        return QuantumMap(self.dimIn, self.dimOut, self.superop[idx])

    def apply(self, x) -> np.ndarray:
        a = linalg.as_matrix(x)
        _one(self, "apply")
        if a.shape != (self.dimIn, self.dimIn):
            raise ValueError(f"input shape {a.shape} does not match dimIn {self.dimIn}")
        return unvec(self.superop @ vec(a), self.dimOut)

    def as_tensor(self) -> np.ndarray:
        """T4[..., o1, o2, i1, i2] with Y[o1, o2] = sum T4[o1, o2, i1, i2] X[i1, i2]."""
        t = self.superop.reshape(self.superop.shape[:-2] + (self.dimOut,) * 2 + (self.dimIn,) * 2)
        return t.swapaxes(-4, -3).swapaxes(-2, -1)


def _one(m: QuantumMap, caller: str) -> QuantumMap:
    """``m`` if it is one map; ValueError for a family."""
    if m.superop.ndim != 2:
        raise ValueError(f"{caller} takes one map, not a family of {len(m.superop)}")
    return m


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


def _family_shape(ms, caller: str) -> tuple[int, int]:
    """(dimIn, dimOut) of the maps ``ms``, the one rule for a user's list of
    maps: ValueError unless there is at least one map, all single maps of
    one shape."""
    shapes = {(_one(m, caller).dimIn, m.dimOut) for m in ms}
    if len(shapes) != 1:
        raise ValueError(f"{caller} needs at least one map, all of one shape; "
                         f"got (dimIn, dimOut) {sorted(shapes)}")
    return shapes.pop()


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
    """J(Phi) = sum_ij Phi(|i><j|) (x) |i><j|  (output factor first), of
    one map or of each map of a family."""
    t4 = m.as_tensor()  # [..., o1, o2, i, j] = Phi(E_ij)[o1, o2]
    j4 = t4.swapaxes(-3, -2)  # [..., o1, i, o2, j]
    d = m.dimOut * m.dimIn
    return np.ascontiguousarray(j4.reshape(t4.shape[:-4] + (d, d)))


def from_choi(j, dimIn: int, dimOut: int) -> QuantumMap:
    a = linalg.as_matrix(j)
    d = dimOut * dimIn
    if a.shape != (d, d):
        raise ValueError(f"Choi matrix shape {a.shape} does not match dims")
    t4 = a.reshape(dimOut, dimIn, dimOut, dimIn).transpose(0, 2, 1, 3)
    s = t4.transpose(1, 0, 3, 2).reshape(dimOut**2, dimIn**2)
    return QuantumMap(dimIn, dimOut, np.ascontiguousarray(s))


def compose(f: QuantumMap, g: QuantumMap) -> QuantumMap:
    """The map x -> f(g(x)); of families, map by map (or one map with
    each map of a family), by one stacked product."""
    if g.dimOut != f.dimIn:
        raise ValueError(f"cannot compose: g.dimOut {g.dimOut} != f.dimIn {f.dimIn}")
    return QuantumMap(g.dimIn, f.dimOut, f.superop @ g.superop)


def inverse(m: QuantumMap) -> QuantumMap:
    """The inverse map, of one map or of each map of a family, from one
    (stacked) ``svd`` and one (stacked) ``inv``; each inverse is bit for
    bit what the map alone gives.

    The map must be square.  A map counts as invertible iff its smallest
    singular value exceeds ``INVERT_RTOL`` times its largest; the first map
    of a family that is not raises ``NonInvertibleMapError`` with its own
    singular values.
    """
    if m.dimIn != m.dimOut:
        raise ValueError("only square maps can be inverted")
    sv = np.linalg.svd(m.superop, compute_uv=False).reshape(-1, m.dimIn**2)
    bad = np.flatnonzero(sv[:, -1] <= INVERT_RTOL * sv[:, 0])
    if bad.size:
        raise NonInvertibleMapError(float(sv[bad[0], -1]), float(sv[bad[0], 0]))
    return QuantumMap(m.dimIn, m.dimIn, np.linalg.inv(m.superop))


def adjoint(m: QuantumMap) -> QuantumMap:
    """Heisenberg-picture dual w.r.t. the Hilbert-Schmidt inner product."""
    return QuantumMap(m.dimOut, m.dimIn, m.superop.conj().swapaxes(-1, -2))


def amplify(m: QuantumMap, k: int) -> QuantumMap:
    """id_k (x) m, the ancilla-extended map (ancilla is the first factor)."""
    k = linalg.check_positive_int(k, "ancilla dimension k")
    _one(m, "amplify")
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
    """Report {cp, tp, min_choi_eig, tp_residual} under the Choi criterion:
    the smallest Choi eigenvalue, the TP residual ||Tr_out J - I||_inf, and
    whether each lies within ``CPTP_TOL``.  Python scalars for one map; for
    a family, one array per key from one stacked ``eigvalsh`` and one
    stacked ``svd``, each entry bit for bit what the map alone gives."""
    min_eig = np.linalg.eigvalsh(m.hermitian_choi)[..., 0]
    tr_out = linalg.trace_out(choi(m), (m.dimOut, m.dimIn), 0) - np.eye(m.dimIn)
    tp_residual = np.linalg.svd(tr_out, compute_uv=False).max(axis=-1)
    out = {"cp": min_eig >= -CPTP_TOL, "tp": tp_residual <= CPTP_TOL,
           "min_choi_eig": min_eig, "tp_residual": tp_residual}
    return out if m.superop.ndim == 3 else {key: v.item() for key, v in out.items()}


def choi_quadratic_form(j: np.ndarray, psi: np.ndarray) -> float:
    return float((psi.conj() @ j @ psi).real / (psi.conj() @ psi).real)


def k_positivity(m: QuantumMap, k: int, restarts: int = 64, seed=0):
    """Search min <psi|J(m)|psi> over unit vectors of Schmidt rank <= k.

    For k >= min(dimOut, dimIn) the Schmidt constraint is vacuous and the
    exact minimum Choi eigenvalue is returned.  Otherwise a multistart
    block-coordinate descent on the factor parameterization
    psi = sum_i L[:, i] (x) U[:, i] runs; each half-step solves its factor's
    minimum-eigenvector problem exactly, so the objective is monotone.
    Deterministic for a fixed seed (all start points derive from it).  Each
    restart draws an L and then a U start point, and the search starts from
    the U point: the first half-step overwrites L (see ``_accel.kpos_scan``),
    and the L draws only keep every U point where the seed puts it.

    One map gives one ``PositivityCertificate``.  A family gives one per
    map, with ``seed`` a sequence of one seed per map, each map drawing its
    ``restarts`` start points from its own seed; an empty family gives none.
    On the exact-eigenvalue path one stacked ``eigh`` takes every map's
    Choi matrix, each factored on its own.  Otherwise the searches of all
    maps run as groups of one stacked ``_accel.kpos_scan`` call, split into
    several calls only where a call would hold more than
    ``_accel.KPOS_STACK_ENTRIES`` Hessian entries, and each call's spreads
    take the medians of all its groups in one ``np.median`` over the
    restart axis.  Every restart follows the iterates it follows alone, so
    each certificate of a family is bit for bit the one its map alone gives
    with its seed.  Logs this call plan at DEBUG on the ``nonmarkov.maps``
    logger: the exact path, or the number of ``kpos_scan`` calls and the
    rows of each.
    """
    one, dB, dA = m.superop.ndim == 2, m.dimIn, m.dimOut
    js = m.hermitian_choi[None] if one else m.hermitian_choi
    n = len(js)
    seeds = [seed] if one else list(seed) if np.iterable(seed) else None
    if seeds is None or len(seeds) != n:
        raise ValueError(f"a family of {n} maps needs a sequence of one seed per map, "
                         f"got {seed!r}")
    k = linalg.check_positive_int(k, "k")
    restarts = linalg.check_positive_int(restarts, "restarts")
    if k > dB:
        raise ValueError(f"k must be in [1, {dB}], got {k}")
    if k >= min(dA, dB):
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("k=%d: exact minimum eigenvalues, no kpos_scan call", k)
        vecs = np.linalg.eigh(js).eigenvectors[:, :, 0]
        certs = [_certificate(k, j, psi, 0, 0, 0.0) for j, psi in zip(js, vecs)]
        return certs[0] if one else certs
    starts_l, starts_u = [], []
    shape_l, shape_u = (restarts, dA, k), (restarts, dB, k)
    # kpos_scan never reads the L starts; drawing them fixes the U starts.
    for s in seeds:
        rng = np.random.default_rng(s)
        starts_l.append(rng.standard_normal(shape_l) + 1j * rng.standard_normal(shape_l))
        starts_u.append(rng.standard_normal(shape_u) + 1j * rng.standard_normal(shape_u))
    j4 = js.reshape(n, dA, dB, dA, dB)
    per_call = _kpos_maps_per_call(dA, dB, k, restarts)
    calls = [(lo, min(lo + per_call, n)) for lo in range(0, n, per_call)]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("k=%d: %d stacked kpos_scan call(s), rows per call %s",
                   k, len(calls), [restarts * (hi - lo) for lo, hi in calls])
    certs = []
    for lo, hi in calls:
        bests, best_l, best_u, vals, converged = _accel.kpos_scan(
            j4[lo:hi], dA, dB, k,
            np.concatenate(starts_l[lo:hi]), np.concatenate(starts_u[lo:hi]))
        spreads = (np.median(vals, axis=1) - bests).tolist()
        for g in range(hi - lo):
            psi = np.einsum("ai,bi->ab", best_l[g], best_u[g]).reshape(dA * dB)
            psi = psi / np.linalg.norm(psi)
            certs.append(_certificate(k, js[lo + g], psi, restarts,
                                      int(converged[g].sum()), spreads[g]))
    return certs[0] if one else certs


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
    """sum_i probs[i] ms[i]: one weight per map, all single maps of one
    shape.  ValueError for an empty list, a weight count that differs from
    the map count, maps of differing dimensions or a family among them."""
    d_in, d_out = _family_shape(ms, "mix")
    if len(ms) != len(probs):
        raise ValueError(f"mix needs one weight per map: {len(probs)} weights for {len(ms)} maps")
    p = np.asarray(probs, dtype=np.float64)
    s = sum(pi * mi.superop for pi, mi in zip(p, ms))
    return QuantumMap(d_in, d_out, s)


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
