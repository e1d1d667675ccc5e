"""Quantum-state data model: density operators, multipartite structure,
canonical states, ensembles, POVMs, Schmidt analysis and seeded sampling.

Tensor ordering is A-major everywhere: the composite index of a product
A (x) B is ``a * dimB + b``, which is exactly ``numpy.kron`` ordering. Every
bipartite/tripartite helper in this package relies on that single convention,
and every partial trace under it is ``linalg.trace_out``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg

# Constructor tolerances for state-like objects.
STATE_HERM_TOL = 1e-10
STATE_TRACE_TOL = 1e-9
POVM_TOL = 1e-9
ENSEMBLE_PROB_TOL = 1e-12


def _check_density_matrix(m: np.ndarray) -> np.ndarray:
    h = linalg.hermitize(linalg.as_matrix(m), STATE_HERM_TOL)
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > STATE_TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} is not 1 within {STATE_TRACE_TOL}")
    return linalg.check_psd(h)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _check_density_matrix(self.matrix))
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def to_json(self) -> str:
        return dumps_state(self.matrix, [self.dim])

    @staticmethod
    def from_json(text: str) -> "DensityOperator":
        m, dims = loads_state(text)
        if len(dims) != 1:
            raise ValueError(f"expected a single-system state, got dims {dims}")
        return DensityOperator(m)


@dataclass(frozen=True)
class BipartiteState:
    """State on H_A (x) H_B with A-major index ordering."""

    dimA: int
    dimB: int
    state: DensityOperator

    def __post_init__(self):
        for name in ("dimA", "dimB"):
            object.__setattr__(self, name, linalg.check_positive_int(getattr(self, name), name))
        if self.state.dim != self.dimA * self.dimB:
            raise ValueError(
                f"state dim {self.state.dim} != dimA*dimB = {self.dimA * self.dimB}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    @property
    def dim(self) -> int:
        return self.state.dim

    def marginal(self, which: str) -> DensityOperator:
        if which not in ("A", "B"):
            raise ValueError(f"marginal must be 'A' or 'B', not {which!r}")
        return partial_trace(self, "B" if which == "A" else "A")

    def to_json(self) -> str:
        return dumps_state(self.matrix, [self.dimA, self.dimB])

    @staticmethod
    def from_json(text: str) -> "BipartiteState":
        m, dims = loads_state(text)
        if len(dims) != 2:
            raise ValueError(f"expected a bipartite state, got dims {dims}")
        return BipartiteState(dims[0], dims[1], DensityOperator(m))


@dataclass(frozen=True)
class TripartiteState:
    """State on H_A (x) H_B (x) H_C, used mainly as a purification carrier."""

    dimA: int
    dimB: int
    dimC: int
    state: DensityOperator

    def __post_init__(self):
        for name in ("dimA", "dimB", "dimC"):
            object.__setattr__(self, name, linalg.check_positive_int(getattr(self, name), name))
        if self.state.dim != self.dimA * self.dimB * self.dimC:
            raise ValueError("state dim does not match dimA*dimB*dimC")

    @property
    def matrix(self) -> np.ndarray:
        return self.state.matrix

    def marginal_ab(self) -> BipartiteState:
        m = linalg.trace_out(self.matrix, (self.dimA, self.dimB, self.dimC), 2)
        return BipartiteState(self.dimA, self.dimB, DensityOperator(m))

    def marginal_ac(self) -> BipartiteState:
        m = linalg.trace_out(self.matrix, (self.dimA, self.dimB, self.dimC), 1)
        return BipartiteState(self.dimA, self.dimC, DensityOperator(m))


def check_probs(probs, n: int) -> np.ndarray:
    """``probs`` as a float64 vector of n finite, nonnegative weights summing
    to 1 within ``ENSEMBLE_PROB_TOL``; ValueError otherwise."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1 or p.size != n:
        raise ValueError("probs and states must be equal-length, nonempty")
    if not np.all(np.isfinite(p)):
        raise ValueError("probs must be finite")
    if p.min(initial=0.0) < 0 or abs(p.sum() - 1.0) > ENSEMBLE_PROB_TOL:
        raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
    return p


@dataclass(frozen=True)
class StateEnsemble:
    """Preparation of states[i] with probability probs[i]."""

    probs: np.ndarray
    states: list = field(default_factory=list)

    def __post_init__(self):
        p = check_probs(self.probs, len(self.states))
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError(f"ensemble states have mixed dimensions {dims}")
        object.__setattr__(self, "probs", p)
        p.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


@dataclass(frozen=True)
class Povm:
    """Measurement: positive elements summing to the identity."""

    elements: list

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        elems = [linalg.check_psd(linalg.hermitize(linalg.as_matrix(e))) for e in self.elements]
        d = elems[0].shape[0]
        if any(e.shape[0] != d for e in elems):
            raise ValueError("POVM elements have mixed dimensions")
        if float(np.abs(sum(elems) - np.eye(d)).max()) > POVM_TOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-9")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


# ---------------------------------------------------------------------------
# Construction and structure operations
# ---------------------------------------------------------------------------


def basis_state(dim: int, i: int) -> DensityOperator:
    """|i><i| on C^dim; ValueError unless ``i`` is an integer in [0, dim)."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i < dim:
        raise ValueError(f"basis index must be an integer in [0, {dim}), got {i!r}")
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[i, i] = 1.0
    return DensityOperator(m)


def pure_state(vec) -> DensityOperator:
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    v = v / n
    return DensityOperator(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim)


def tensor(a: DensityOperator, b: DensityOperator) -> BipartiteState:
    """Kronecker product with A-major ordering."""
    return BipartiteState(a.dim, b.dim, DensityOperator(np.kron(a.matrix, b.matrix)))


def partial_trace(s: BipartiteState, which: str) -> DensityOperator:
    """Trace out subsystem ``which`` ("A" or "B")."""
    if which not in ("A", "B"):
        raise ValueError(f"which must be 'A' or 'B', got {which!r}")
    return DensityOperator(linalg.trace_out(s.matrix, (s.dimA, s.dimB), "AB".index(which)))


def max_entangled_vector(dA: int) -> np.ndarray:
    v = np.zeros(dA * dA, dtype=np.complex128)
    for i in range(dA):
        v[i * dA + i] = 1.0
    return v / np.sqrt(dA)


def max_entangled(dA: int) -> BipartiteState:
    """|psi+> = d^{-1/2} sum_i |ii> as a projector on H_A (x) H_A."""
    if dA < 2:
        raise ValueError("maximally entangled state needs dA >= 2")
    v = max_entangled_vector(dA)
    return BipartiteState(dA, dA, DensityOperator(np.outer(v, v.conj())))


def purify(s: BipartiteState) -> TripartiteState:
    """Append a reference system C of dimension rank(s) so A:B:C is pure."""
    w, v = linalg.support(s.matrix)
    # |psi> = sum_k sqrt(w_k) |v_k>_AB |k>_C, C last per the A-major rule
    psi = (v * np.sqrt(w)).reshape(-1)
    return TripartiteState(s.dimA, s.dimB, len(w), pure_state(psi))


def schmidt_rank(vec, dA: int, dB: int) -> int:
    """Schmidt rank of a vector on A (x) B (A-major), whatever its norm: the
    squared singular values of ``vec.reshape(dA, dB)``, as fractions of their
    sum, above ``linalg.support_cut``; 0 for the zero vector.
    """
    s2 = np.linalg.svd(np.asarray(vec).reshape(dA, dB), compute_uv=False) ** 2
    if not s2.any():
        return 0
    s2 /= s2.sum()
    return int(np.sum(s2 > linalg.support_cut(s2)))


def make_cq(probs, states) -> BipartiteState:
    """Classical-quantum state sum_i p_i |i><i| (x) rho_i."""
    ens = StateEnsemble(np.asarray(probs, dtype=np.float64), list(states))
    n, d = ens.size, ens.dim
    m = np.zeros((n * d, n * d), dtype=np.complex128)
    for i, (p, s) in enumerate(zip(ens.probs, ens.states)):
        m[i * d:(i + 1) * d, i * d:(i + 1) * d] = p * s.matrix
    return BipartiteState(n, d, DensityOperator(m))


# ---------------------------------------------------------------------------
# Seeded sampling (Ginibre-induced laws; the seed fully determines the output)
# ---------------------------------------------------------------------------


def random_density(dim: int, rank: int, seed: int) -> DensityOperator:
    """Rank-truncated Ginibre-induced random state, deterministic per seed."""
    dim = linalg.check_positive_int(dim, "dim")
    rank = linalg.check_positive_int(rank, "rank")
    if rank > dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure_vector(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar unitary via QR of a complex Ginibre matrix, phase-fixed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# JSON serialization: {"dims": [...]} plus the matrix in linalg.to_jsonable form
# ---------------------------------------------------------------------------


def _checked_dims(m: np.ndarray, dims) -> list:
    """``dims`` as positive ints whose product is the side of square ``m``."""
    dims = [linalg.check_positive_int(d, "dims entry") for d in dims]
    d = math.prod(dims)
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    return dims


def dumps_state(matrix: np.ndarray, dims) -> str:
    m = linalg.as_matrix(matrix)
    doc = {"dims": _checked_dims(m, dims)}
    doc.update(linalg.to_jsonable(m))
    return json.dumps(doc)


def loads_state(text: str):
    doc = json.loads(text)
    m = linalg.from_jsonable(doc)
    return m, _checked_dims(m, doc["dims"])
