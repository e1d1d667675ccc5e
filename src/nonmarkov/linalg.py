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
product: marginals, Tr_A in H_min and its descent gradient, Tr_out J = I and
the reduced dynamics' Tr_E all take it.  ``to_jsonable`` and
``from_jsonable`` are the one JSON form of a complex array, ``{"re", "im"}``
nested lists, for states, maps, SDP problems and certificates.
``check_positive_int`` is the one check of a count: dimensions, ranks,
restarts and grid steps.
"""

from __future__ import annotations

import math
import operator

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
    """Coerce to a finite complex128 2-D array (no NaN/Inf admitted)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def hermitize(m, tol: float = HERM_TOL) -> np.ndarray:
    """(a + a†)/2 of a square matrix, or of each matrix of a stack of shape
    (..., n, n), after checking it: ValueError for a NaN or Inf entry, and
    ``NotHermitianError`` where the largest entry modulus of a - a† exceeds
    ``tol`` * max(1, largest entry modulus of a)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
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
    return (a + ah) / 2


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
    of sizes ``dims`` (a tuple), acting on the other factors in their order."""
    n = len(m) // dims[axis]
    t = np.asarray(m).reshape(dims * 2).trace(axis1=axis, axis2=axis + len(dims))
    return t.reshape(n, n)


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
