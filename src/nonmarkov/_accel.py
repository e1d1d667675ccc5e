"""Hot numeric kernels of the multistart searches.

The searches behind k-positivity certificates and input-optimized trace-norm
ascents run thousands of tiny eigendecompositions per grid.  Each kernel
here is one numpy implementation that runs every restart at once: a sweep
is a handful of stacked ``qr``/``eigh`` calls and batched ``einsum``s on
arrays with a leading restart axis, so the per-call overhead is paid once
per sweep instead of once per restart and sweep.  A restart stops on the
sweep where its own tolerance test passes and keeps the iterate it had
there; later sweeps run only on the restarts still active.  LAPACK factors
each matrix of a stack on its own and the batched contractions sum in the
same order as unbatched ones, so every restart follows bit for bit the
iterates it would follow alone.

Memory scales as restarts x one quadratic-form matrix: a ``kpos_scan``
sweep holds one stack of ``restarts`` Hessians of size (d*k)^2.  At d=16,
k=15 and 64 restarts one stack is 64 x 240^2 complex128 = 59 MB, and up to
four such stacks are alive at once (the Hessians, their Hermitian parts,
LAPACK's working copy and the eigenvectors): about 0.24 GB.

All kernels are deterministic: start points are generated by the caller
from explicit seeds.

Conventions: a bipartite vector on A (x) B is indexed a*dB + b; a Choi-like
matrix J enters reshaped as J4[a, b, a2, b2]; a superoperator enters as the
4-tensor T4[or, oc, ir, ic] with Y[or, oc] = sum T4[or, oc, ir, ic] X[ir, ic].
"""

from __future__ import annotations

import numpy as np

ACCEL = "numpy"


def _herm(h):
    """Hermitian part of each matrix in a stack."""
    return (h + h.conj().swapaxes(-1, -2)) / 2


def _stopped(new_val, val, tol):
    """Per-restart stop test |new - old| <= tol * max(1, |new|)."""
    return np.abs(new_val - val) <= tol * np.maximum(1.0, np.abs(new_val))


def kpos_scan(J4, dA, dB, k, starts_L, starts_U, iters=60, tol=1e-12):
    """k-positivity seesaw: minimize <psi|J|psi> over unit vectors of Schmidt
    rank <= k, parameterized psi = sum_i L[:, i] (x) U[:, i].

    Alternates exact minimum-eigenvector solves in the L and U factors
    (monotone per iteration) from every start pair at once.  Returns
    ``(value, L, U, values, converged)``: the best restart (the first one
    reaching the minimum), then every restart's final value and whether its
    tolerance test passed within ``iters`` sweeps.
    """
    J4 = np.ascontiguousarray(J4)
    L = np.array(starts_L, dtype=np.complex128)
    U = np.array(starts_U, dtype=np.complex128)
    n_starts = L.shape[0]
    val = np.full(n_starts, np.inf)
    converged = np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    for _ in range(iters):
        if active.size == 0:
            break
        # Re-parameterize: QR preserves the factor's span, so each exact
        # eigen-solve below searches a superset of the previous state.
        u, _ = np.linalg.qr(U[active])
        # L-step: quadratic form matrix over vec(L), U orthonormal
        h = np.einsum("rbi,abcd,rdj->raicj", u.conj(), J4, u).reshape(-1, dA * k, dA * k)
        _, v = np.linalg.eigh(_herm(h))
        l, _ = np.linalg.qr(v[:, :, 0].reshape(-1, dA, k))
        # U-step: quadratic form over vec(U), L orthonormal; afterwards
        # the pair (L, U) is exactly the state achieving new_val.
        h = np.einsum("rai,abcd,rcj->rbidj", l.conj(), J4, l).reshape(-1, dB * k, dB * k)
        w, v = np.linalg.eigh(_herm(h))
        new_val = w[:, 0]
        L[active] = l
        U[active] = v[:, :, 0].reshape(-1, dB, k)
        done = _stopped(new_val, val[active], tol)
        val[active] = new_val
        converged[active[done]] = True
        active = active[~done]
    best = int(np.argmin(val))
    return val[best], L[best], U[best], val, converged


def tracenorm_scan(T4, starts, iters=80, tol=1e-13):
    """Trace-norm ascent: maximize ||W(psi psi^dag)||_1 over unit psi for a
    Hermiticity-preserving superoperator W given as T4.

    Fixed-point iteration psi <- top eigenvector of W^#(sign(W(psi psi^dag)))
    (monotone ascent) from every start at once.  Returns
    ``(value, psi, values, converged)``: the best restart (the first one
    reaching the maximum), then every restart's final value and whether its
    tolerance test passed within ``iters`` sweeps.
    """
    # einsum on a transposed (non-contiguous) view rounds differently, so the
    # tensor is always made contiguous first.
    T4 = np.ascontiguousarray(T4)
    T4c = T4.conj()
    psi = np.array(starts, dtype=np.complex128)
    # The real dot products np.linalg.norm takes on one vector, per row, so a
    # restart starts from the same bits as it would alone.
    norms = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    psi /= norms[:, None]
    val = np.full(psi.shape[0], -np.inf)
    converged = np.zeros(psi.shape[0], dtype=bool)
    active = np.arange(psi.shape[0])
    for _ in range(iters):
        if active.size == 0:
            break
        p_act = psi[active]
        x = p_act[:, :, None] * p_act.conj()[:, None, :]
        y = np.einsum("opiq,riq->rop", T4, x)
        w, v = np.linalg.eigh(_herm(y))
        new_val = np.abs(w).sum(axis=1)
        p = (v * np.sign(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        g = np.einsum("opiq,rop->riq", T4c, p)
        _, vg = np.linalg.eigh(_herm(g))
        psi[active] = vg[:, :, -1]
        done = _stopped(new_val, val[active], tol)
        val[active] = new_val
        converged[active[done]] = True
        active = active[~done]
    best = int(np.argmax(val))
    return float(val[best]), psi[best], val, converged
