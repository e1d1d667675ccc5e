"""Hot numeric kernels of the multistart searches.

The searches behind k-positivity certificates and input-optimized trace-norm
ascents run thousands of tiny eigendecompositions per grid.  Each kernel
here is one numpy implementation that loops over the restarts and returns
the best one.  All kernels are deterministic: start points are generated by
the caller from explicit seeds.

Conventions: a bipartite vector on A (x) B is indexed a*dB + b; a Choi-like
matrix J enters reshaped as J4[a, b, a2, b2]; a superoperator enters as the
4-tensor T4[or, oc, ir, ic] with Y[or, oc] = sum T4[or, oc, ir, ic] X[ir, ic].
"""

from __future__ import annotations

import numpy as np

ACCEL = "numpy"


def kpos_scan(J4, dA, dB, k, starts_L, starts_U, iters=60, tol=1e-12):
    """k-positivity seesaw: minimize <psi|J|psi> over unit vectors of Schmidt
    rank <= k, parameterized psi = sum_i L[:, i] (x) U[:, i].

    Alternates exact minimum-eigenvector solves in the L and U factors
    (monotone per iteration) from each start pair; returns the best
    (value, L, U) over all restarts.
    """
    J4 = np.ascontiguousarray(J4)
    starts_L = np.ascontiguousarray(starts_L)
    starts_U = np.ascontiguousarray(starts_U)
    best_val = np.inf
    best_L = starts_L[0].copy()
    best_U = starts_U[0].copy()
    for r in range(starts_L.shape[0]):
        L = starts_L[r].copy()
        U = starts_U[r].copy()
        val = np.inf
        for _ in range(iters):
            # Re-parameterize: QR preserves the factor's span, so each exact
            # eigen-solve below searches a superset of the previous state.
            U, _ = np.linalg.qr(U)
            # L-step: quadratic form matrix over vec(L), U orthonormal
            h = np.einsum("bi,abcd,dj->aicj", U.conj(), J4, U).reshape(dA * k, dA * k)
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            L = v[:, 0].reshape(dA, k)
            L, _ = np.linalg.qr(L)
            # U-step: quadratic form over vec(U), L orthonormal; afterwards
            # the pair (L, U) is exactly the state achieving new_val.
            h = np.einsum("ai,abcd,cj->bidj", L.conj(), J4, L).reshape(dB * k, dB * k)
            h = (h + h.conj().T) / 2
            w, v = np.linalg.eigh(h)
            new_val = w[0]
            U = v[:, 0].reshape(dB, k)
            if abs(new_val - val) <= tol * max(1.0, abs(new_val)):
                val = new_val
                break
            val = new_val
        if val < best_val:
            best_val = val
            best_L = L
            best_U = U
    return best_val, best_L, best_U


def tracenorm_scan(T4, starts, iters=80, tol=1e-13):
    """Trace-norm ascent: maximize ||W(psi psi^dag)||_1 over unit psi for a
    Hermiticity-preserving superoperator W given as T4.

    Fixed-point iteration psi <- top eigenvector of W^#(sign(W(psi psi^dag)))
    (monotone ascent) from each start; returns the best (value, psi) over
    all restarts.
    """
    # einsum on a transposed (non-contiguous) view rounds differently, so the
    # tensor is always made contiguous first.
    T4 = np.ascontiguousarray(T4)
    starts = np.ascontiguousarray(starts)
    best_val = -np.inf
    best_psi = starts[0].copy()
    for r in range(starts.shape[0]):
        psi = starts[r].copy()
        psi = psi / np.linalg.norm(psi)
        val = -np.inf
        for _ in range(iters):
            x = np.outer(psi, psi.conj())
            y = np.einsum("opiq,iq->op", T4, x)
            y = (y + y.conj().T) / 2
            w, v = np.linalg.eigh(y)
            new_val = float(np.abs(w).sum())
            p = (v * np.sign(w)) @ v.conj().T
            g = np.einsum("opiq,op->iq", T4.conj(), p)
            g = (g + g.conj().T) / 2
            wg, vg = np.linalg.eigh(g)
            psi = vg[:, -1]
            if abs(new_val - val) <= tol * max(1.0, abs(new_val)):
                val = new_val
                break
            val = new_val
        if val > best_val:
            best_val = val
            best_psi = psi
    return best_val, best_psi
