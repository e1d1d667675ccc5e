"""Dense complex-Hermitian linear algebra: spectral decompositions, matrix
functions and the norms used throughout the toolkit.

All functions take plain ``numpy.ndarray`` (complex128) and are pure.
``hermitize`` is the one check of Hermitian input (states, Choi matrices of
maps, SDP data, the spectral helpers here), each caller with its tolerance:
asymmetry beyond it raises ``NotHermitianError`` rather than being silently
repaired.  ``check_psd`` is the one check of positive semidefiniteness
(states, POVM elements, the matrix arguments of divergences).

``support`` is the one place the support of a PSD matrix is chosen: the
divergences' pseudo-powers, logarithms and support rules, purifications and
the supports pinned in SDPs all take it.  Besides it, ``support_cut`` is read
only where a spectrum is clamped (the ``entropy.conditional_renyi`` descent)
or counted (``states.schmidt_rank``).

``trace_out`` is the one partial trace on an A-major (``numpy.kron``)
product, of a matrix or a stack: marginals, Tr_A in H_min and its descent
gradient, Tr_out J = I and the reduced dynamics' Tr_E all take it.

Only this module imports ``json``.  ``to_jsonable`` and ``from_jsonable``
are the one JSON form of a complex array, ``{"re", "im"}`` nested lists;
``jsonable`` is the one object walker and ``build_dataclass`` its strict
reader, the JSON of states, maps, SDP problems (all by ``JsonForm``) and
divisibility reports.
``check_positive_int`` is the one check of a count: dimensions, ranks,
restarts and grid steps.
"""

from __future__ import annotations

import json
import math
import operator
import typing
from dataclasses import fields, is_dataclass

import numpy as np

# Asymmetry beyond this (relative to the matrix scale) is an error, not noise.
HERM_TOL = 1e-8

# An eigenvalue below -PSD_TOL * max(1, lambda_max) makes a matrix non-PSD.
PSD_TOL = 1e-9

# An eigenvalue counts as "in the support" iff it exceeds
# SUPPORT_RTOL * max(1, lambda_max).  Scale-aware so the same cut applies to
# subnormalized operators.
SUPPORT_RTOL = 1e-10


class NotHermitianError(ValueError):
    """Raised by ``hermitize`` for a matrix asymmetric beyond its tolerance."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty complex128 2-D array (no NaN/Inf
    admitted)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def hermitize(m, tol: float = HERM_TOL) -> np.ndarray:
    """(a + a†)/2 of a square matrix, or of each matrix of a stack of shape
    (..., n, n) with n >= 1, after checking it: ValueError for a NaN or Inf
    entry, and ``NotHermitianError`` where the largest entry modulus of
    a - a† exceeds ``tol`` * max(1, largest entry modulus of a)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected a non-empty square matrix or a stack of them, "
                         f"got shape {a.shape}")
    ah = a.conj().swapaxes(-1, -2)
    # One row per matrix; the per-matrix maxima come back as Python floats,
    # which keeps the test on a single matrix as cheap as an inline one.
    rows = (math.prod(a.shape[:-2]), a.shape[-1] ** 2)
    scales = np.abs(a).reshape(rows).max(axis=1, initial=0.0).tolist()
    asyms = np.abs(a - ah).reshape(rows).max(axis=1, initial=0.0).tolist()
    for scale, asym in zip(scales, asyms):
        if not math.isfinite(scale):
            raise ValueError("matrix contains NaN or Inf entries")
        if asym > tol * max(1.0, scale):
            raise NotHermitianError(f"matrix is not Hermitian: asymmetry {asym:.3e} "
                                    f"exceeds {tol:g} x max(1, {scale:.3e})")
    # Halving the real and imaginary parts is exact for every finite entry
    # and, unlike division by the complex 2 + 0j, keeps the sign of a zero.
    out = a + ah
    out.real *= 0.5
    out.imag *= 0.5
    return out


def check_psd(h: np.ndarray) -> np.ndarray:
    """``h``, one Hermitian matrix as ``hermitize`` returns it, after
    checking that no eigenvalue lies below -``PSD_TOL`` * max(1, lambda_max);
    ValueError otherwise."""
    w = np.linalg.eigvalsh(h)
    if w[0] < -PSD_TOL * max(1.0, float(w[-1])):
        raise ValueError(f"matrix is not positive semidefinite (min eig {w[0]:.3e})")
    return h


def eigh(m):
    """Spectral decomposition of a Hermitian matrix (symmetrized internally):
    numpy's ``EighResult``, ascending ``eigenvalues`` and the unitary of
    column ``eigenvectors``."""
    return np.linalg.eigh(hermitize(as_matrix(m)))


def support_cut(eigenvalues: np.ndarray) -> float:
    """Threshold below which eigenvalues are treated as zero."""
    lam_max = float(eigenvalues.max(initial=0.0))
    return SUPPORT_RTOL * max(1.0, lam_max)


def support(m) -> tuple[np.ndarray, np.ndarray]:
    """(w, V): the eigenvalues of a Hermitian matrix above ``support_cut``,
    ascending, and the isometry whose columns are their eigenvectors, so
    that V diag(w) V† is the matrix restricted to its support."""
    w, u = eigh(m)
    keep = w > support_cut(w)
    return w[keep], u[:, keep]


def spectral_fn(m, f, support_only: bool = False) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    With ``support_only`` the function acts only on ``support(m)``; the
    kernel directions map to zero (pseudo-function convention, e.g.
    log/inverse powers on singular states).
    """
    w, u = support(m) if support_only else eigh(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.array([f(x) for x in w], dtype=np.float64)
    if not np.all(np.isfinite(fw)):
        raise ValueError(
            "scalar function produced a non-finite value on the spectrum; "
            "use support_only for functions undefined at zero"
        )
    out = (u * fw) @ u.conj().T
    return (out + out.conj().T) / 2


def trace_norm(m) -> float:
    """||m||_1 of a square matrix, the sum of singular values."""
    a = as_matrix(m)
    # Hermitian inputs get the cheaper and more accurate spectral route.
    try:
        h = hermitize(a)
    except NotHermitianError:
        return float(np.linalg.svd(a, compute_uv=False).sum())
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def operator_norm(m) -> float:
    """||m||_inf, the largest singular value."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError("operator norm defined here for square matrices only")
    return float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))


def min_eig(m) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(hermitize(as_matrix(m)))[0])


def trace_out(m, dims, axis: int) -> np.ndarray:
    """Tr over factor ``axis`` of a matrix on the A-major product of factors
    of sizes ``dims`` (a tuple), acting on the other factors in their order;
    of a stack (..., n, n), each matrix bit for bit as it is traced alone."""
    a = np.asarray(m)
    lead, n = a.shape[:-2], a.shape[-1] // dims[axis]
    axis1 = len(lead) + axis
    t = a.reshape(lead + dims * 2).trace(axis1=axis1, axis2=axis1 + len(dims))
    return t.reshape(lead + (n, n))


def to_jsonable(m: np.ndarray) -> dict:
    """``{"re": ..., "im": ...}``, an array's real and imaginary nested lists."""
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def from_jsonable(obj) -> np.ndarray:
    """The complex128 array of a ``to_jsonable`` document, bit for bit
    (signed zeros included); ValueError if ``re`` and ``im`` differ in shape."""
    re = np.array(obj["re"], dtype=np.float64)
    im = np.array(obj["im"], dtype=np.float64)
    if re.shape != im.shape:
        raise ValueError(f"re shape {re.shape} differs from im shape {im.shape}")
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def jsonable(x):
    """JSON-ready data: a dataclass as a dict of its init fields by name, dict
    keys as strings, lists item by item, a complex array in ``to_jsonable``
    form, a real array as nested lists and any other value as it is."""
    if is_dataclass(x):
        return {f.name: jsonable(getattr(x, f.name)) for f in fields(x) if f.init}
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, list):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return to_jsonable(x) if np.iscomplexobj(x) else x.tolist()
    return x


def build_dataclass(cls, doc):
    """``cls(**doc)`` for a dict ``doc`` that names exactly the init fields of
    dataclass ``cls`` (ValueError otherwise), a field typed as a dataclass
    read the same way and every other ``{"re", "im"}`` value, also in a
    list, as its array.  A value of a type the constructor cannot take
    raises ValueError too, naming the class and the field: a list or array
    field that holds neither a list nor a ``{"re", "im"}`` document, or else
    every field."""
    names = [f.name for f in fields(cls) if f.init]
    if not isinstance(doc, dict) or set(doc) != set(names):
        got = sorted(doc) if isinstance(doc, dict) else type(doc).__name__
        raise ValueError(f"a {cls.__name__} document has exactly the keys {names}, got {got}")
    hints = typing.get_type_hints(cls)
    values = {name: build_dataclass(hints[name], doc[name]) if is_dataclass(hints[name])
              else _arrays(doc[name]) for name in names}
    try:
        return cls(**values)
    except TypeError as exc:
        wrong = [name for name in names if hints[name] in (list, np.ndarray)
                 and not isinstance(values[name], (list, np.ndarray))]
        raise ValueError(f"a {cls.__name__} document holds a value of the wrong type "
                         f"in {wrong or names}: {exc}") from exc


def _arrays(x):
    if isinstance(x, dict) and set(x) == {"re", "im"}:
        return from_jsonable(x)
    if isinstance(x, list):
        return [_arrays(v) for v in x]
    return x


class JsonForm:
    """A dataclass's ``to_json`` and ``from_json``, by ``jsonable`` and ``build_dataclass``."""

    def to_json(self) -> str:
        return json.dumps(jsonable(self))

    @classmethod
    def from_json(cls, text: str):
        return build_dataclass(cls, json.loads(text))


def check_positive_int(value, name: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer >= 1.

    Dimensions, ranks, restart counts, Schmidt ranks k and grid steps go
    through this.  A float, even a whole one, and a bool raise
    ``ValueError`` rather than being rounded or read as 1.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n >= 1:
                return n
    raise ValueError(f"{name} must be a positive integer, got {value!r}")
