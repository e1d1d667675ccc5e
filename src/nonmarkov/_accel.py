"""Hot numeric kernels of the multistart searches.

The searches behind k-positivity certificates and input-optimized trace-norm
ascents run thousands of tiny eigendecompositions per grid.  Each kernel
here is one numpy implementation that runs every restart at once: a sweep
is a handful of stacked ``qr``/``eigh`` calls and batched contractions on
arrays with a leading restart axis, so the per-call overhead is paid once
per sweep instead of once per restart and sweep.  A restart stops on the
sweep where its own tolerance test passes and keeps the iterate it had
there; later sweeps run only on the restarts still active.  LAPACK factors
each matrix of a stack on its own, and the batched contractions sum in the
same order as unbatched ones: ``tracenorm_scan``'s ``einsum``s, and
``kpos_scan``'s Hessians, which a 3-D @ 2-D ``matmul`` builds with one
BLAS product per row (a single GEMM over all rows would round a row
differently by the number of rows).  So every restart follows bit for bit
the iterates it would follow alone.

Two pieces of a ``kpos_scan`` sweep skip LAPACK where a closed form exists.
At k = 1 a factor has one column, and its orthonormal basis is the column
divided by its norm.  A 2x2 Hessian (a qubit factor at k = 1) takes its
lowest eigenpair from the 2x2 formula instead of a stacked ``eigh``, whose
cost at that size is almost all per-matrix overhead.  Both work row by row
with elementwise operations, so the bit-for-bit guarantee above still holds.

A ``kpos_scan`` call searches a stack of Choi matrices at once, one group
of restarts each.  ``maps.k_positivity_many`` stacks every step of a
divisibility report this way, so the rows of a call are steps x restarts
and a sweep pays its fixed cost once per report instead of once per step.

Memory scales as rows x one quadratic-form matrix: a ``kpos_scan`` sweep
holds one stack of Hessians of size (d*k)^2, one per row, and up to four
such stacks are alive at once (the Hessians, their Hermitian parts,
LAPACK's working copy and the eigenvectors; the 2x2 closed form needs only
the Hessians).  Building the Hessians holds the matmul's output, its
transposed copy and one more stack, the outer products of the fixed
factor: rows x (k*e)^2 entries, where e is that factor's dimension, at
most max(dA, dB), so never more than the largest Hessian stack; all but
the copy are freed before the eigenpairs.  ``k_positivity_many`` puts
whole steps into one call only while rows x (max(dA, dB)*k)^2 stays within
``KPOS_STACK_ENTRIES``, the size of one search of 64 restarts at d=16 and
k=15: one stack is 64 x 240^2 complex128 = 59 MB, about 0.24 GB in all.
A single step above the cap still runs, alone in its call.
A ``tracenorm_scan`` call holds the un-amplified tensor of W, d_out^2 d_in^2
entries, and per restart a few iterates of size k^2 d^2 (the input and
output operators on the ancilla-extended space, their eigenvectors and
their block layouts); at k = d_in = 6 with 2 restarts it peaks at about
0.5 MB, where the amplified tensor of id_k (x) W alone is k^4 d_out^2 d_in^2
entries (27 MB there, and 69 GB at d = k = 16).

``tracenorm_scan`` splits its restarts into contiguous chunks, runs chunk 0
on the calling thread and each further chunk on a ``threading.Thread``, and
joins them all; ``kpos_scan`` does not split.  Stacked ``eigh``, ``einsum``
and ``matmul`` release the interpreter lock, so the chunks' LAPACK work
overlaps on separate CPUs.  The chunk count is derived, never set (see
``_chunk_count``): one per CPU the process may run on, at most one per
``TRACENORM_CHUNK_ROWS`` rows, and exactly one when a row's largest
eigenproblem, k*max(d_in, d_out) square, is below ``TRACENORM_SPLIT_SIZE``.
There the ~20 numpy calls of a sweep are mostly Python dispatch, which holds
the lock, and two threads only contend for it.  On 2 CPUs at one BLAS thread
(64 restarts, medians of 7), 2 chunks took the qutrit k = 3 ascent of the
channels benchmark (9x9 and 6x6 problems) from 288 to 187 ms, but the qubit
k = 1 ascent from 4.6 to 7.8 ms; 2 chunks of 8 rows lost at every size up to
9x9.  Every computation of a sweep works row by row (see above), so a
chunk's restarts follow the iterates they follow in one stack.  Each chunk
ascends its own copy of its starts; the scan then concatenates values,
iterates and stop flags in row order and takes the first maximum, as the
serial scan does, so a split scan returns the serial result bit for bit.
Worker threads call numpy and this module's private helpers only.  A
chunk's exception is re-raised on the calling thread once every chunk has
ended.  ``kpos_scan`` stays serial because its callers search qubit maps at
k = 1, whose 2x2 sweeps are dispatch-bound.

All kernels are deterministic: start points are generated by the caller
from explicit seeds.

Conventions: a bipartite vector on A (x) B is indexed a*dB + b; a Choi-like
matrix J enters reshaped as J4[a, b, a2, b2] (``kpos_scan`` takes a stack
J4[g, a, b, a2, b2]); a superoperator enters as the 4-tensor
T4[or, oc, ir, ic] with Y[or, oc] = sum T4[or, oc, ir, ic] X[ir, ic].
``tracenorm_scan`` takes the T4 of W itself and applies id_k (x) W, with
the ancilla as the first factor: an operator X on C^k (x) C^d is held in
blocks X[a, b, i, q] = X[a*d + i, b*d + q], and (id_k (x) W) maps block
(a, b) to W(X[a, b]).
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

ACCEL = "numpy"

# Entries of one stack of kpos_scan Hessians: 64 restarts at d=16, k=15.
KPOS_STACK_ENTRIES = 64 * (16 * 15) ** 2

# A restart stops once its value changes by at most this, relative to
# max(1, |value|), over one sweep (see ``_stopped``).
KPOS_TOL = 1e-12
TRACENORM_TOL = 1e-13

# Sweeps of one kpos_scan or tracenorm_scan restart at most.
KPOS_ITERS = 60
TRACENORM_ITERS = 80

# tracenorm_scan splits its restarts over threads only when a row's largest
# eigenproblem is at least this size, and gives each thread at least this
# many rows (see the module docstring for the measurements behind both).
TRACENORM_SPLIT_SIZE = 6
TRACENORM_CHUNK_ROWS = 16


def _herm(h):
    """Hermitian part of each matrix in a stack."""
    return (h + h.conj().swapaxes(-1, -2)) / 2


def _row_norms(x):
    """2-norm of each row of a (rows, n) stack, from the real dot products
    np.linalg.norm takes on one vector, so a row gets the same bits in any
    stack."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _orthonormalize(x):
    """Orthonormal basis of the column span of each (n, k) matrix in a stack.

    One column is divided by its norm; the phase QR would give it changes
    no quadratic form.  Wider factors take the Q of ``np.linalg.qr``.
    """
    if x.shape[-1] > 1:
        return np.linalg.qr(x)[0]
    return x / _row_norms(x[:, :, 0])[:, None, None]


def _lowest_eigpair(h):
    """Lowest eigenvalue and a unit eigenvector of the Hermitian part of
    each matrix in a (rows, n, n) stack.

    A 2x2 stack takes the closed form, row by row: with a, c the real
    diagonal, b the mean of h01 and conj(h10), delta = (a - c) / 2 and
    r = hypot(delta, |b|), the eigenvalue is (a + c) / 2 - r with the
    eigenvector (-b, r + delta) if delta >= 0, else (r - delta, -conj b),
    so that no component is a difference of near-equal terms; a multiple
    of the identity (r = 0) gives e1.  Any other size takes
    ``np.linalg.eigh``.
    """
    if h.shape[-1] != 2:
        w, v = np.linalg.eigh(_herm(h))
        return w[:, 0], v[:, :, 0]
    a = h[:, 0, 0].real
    c = h[:, 1, 1].real
    b = (h[:, 0, 1] + h[:, 1, 0].conj()) / 2
    delta = (a - c) / 2
    r = np.hypot(delta, np.abs(b))
    upper = delta >= 0
    v = np.empty((h.shape[0], 2), dtype=np.complex128)
    v[:, 0] = np.where(upper, -b, r - delta)
    v[:, 1] = np.where(upper, r + delta, -b.conj())
    v[r == 0] = (1.0, 0.0)
    v /= np.hypot(np.abs(v[:, 0]), np.abs(v[:, 1]))[:, None]
    return (a + c) / 2 - r, v


def _half_step_matrices(J4):
    """Each group's J4[g, a, b, c, d] as the matrix of each seesaw half-step:
    jl[g][b*dB + d, a*dA + c] for the L-step, which contracts U's indices b
    and d, and ju[g][a*dA + c, b*dB + d] for the U-step."""
    g, dA, dB = J4.shape[:3]
    jl = np.ascontiguousarray(J4.transpose(0, 2, 4, 1, 3)).reshape(g, dB * dB, dA * dA)
    ju = np.ascontiguousarray(J4.transpose(0, 1, 3, 2, 4)).reshape(g, dA * dA, dB * dB)
    return jl, ju


def _quadratic_forms(x, jm, cut):
    """Hessians of one seesaw half-step, one per row of the fixed factor x.

    x is a (rows, e, k) stack, and rows cut[g]:cut[g + 1] search group g,
    whose half-step matrix ``jm[g]`` (see ``_half_step_matrices``) has shape
    (e^2, n^2).  Row r gets the (n*k, n*k) Hessian
    h[r, a*k + i, c*k + j] = sum_{p, q} conj(x[r, p, i]) x[r, q, j] jm[g][p*e + q, a*n + c].
    The outer products z[r, i*k + j, p*e + q] = conj(x[r, p, i]) x[r, q, j]
    are one broadcast.  Each group's span of z then takes one 3-D @ 2-D
    matmul, which numpy runs as one BLAS product per row, so a row gets the
    same bits in a stack of any height.
    """
    rows, e, k = x.shape
    n = math.isqrt(jm.shape[2])
    xt = x.transpose(0, 2, 1)
    z = (xt.conj()[:, :, None, :, None] * xt[:, None, :, None, :]).reshape(rows, k * k, e * e)
    h = np.empty((rows, k * k, n * n), dtype=np.complex128)
    for g in range(len(jm)):
        if cut[g] < cut[g + 1]:
            np.matmul(z[cut[g]:cut[g + 1]], jm[g], out=h[cut[g]:cut[g + 1]])
    return h.reshape(rows, k, k, n, n).transpose(0, 3, 1, 4, 2).reshape(rows, n * k, n * k)


def _stopped(new_val, val, tol):
    """Per-restart stop test |new - old| <= tol * max(1, |new|)."""
    return np.abs(new_val - val) <= tol * np.maximum(1.0, np.abs(new_val))


def kpos_scan(J4, dA, dB, k, starts_L, starts_U):
    """k-positivity seesaw: minimize <psi|J|psi> over unit vectors of Schmidt
    rank <= k, parameterized psi = sum_i L[:, i] (x) U[:, i].

    Alternates exact minimum-eigenvector solves in the L and U factors
    (monotone per iteration) from every start pair at once.  Each half-step
    orthonormalizes a factor (a division by its norm at k = 1, else the Q
    of ``qr``) and takes the lowest eigenpair of a (d*k)^2 Hessian (the
    closed form at size 2, else ``eigh``); see ``_orthonormalize`` and
    ``_lowest_eigpair``.  Returns
    ``(value, L, U, values, converged)``: per group, the best restart (the
    first one reaching the minimum), then every restart's final value and
    whether its tolerance test passed within ``KPOS_ITERS`` sweeps.

    ``J4`` is a ``(g, dA, dB, dA, dB)`` stack of Choi tensors.  The rows of
    ``starts_L``/``starts_U`` split evenly into g groups, in order, and group
    i searches ``J4[i]``.  Before the first sweep each group's J4 is
    reshaped once into the matrix of each half-step; a sweep then forms the
    fixed factor's outer products for all active rows, makes one per-row
    ``matmul`` per group over its contiguous span of them (see
    ``_quadratic_forms``), and runs the orthonormalizations and eigenpairs
    once over all rows.  All of these work per row, so a batched call is
    bit-identical to each group run alone.  The best value, L and U have
    a leading group axis, and ``values`` and ``converged`` have shape
    (g, restarts per group).
    """
    J4 = np.ascontiguousarray(J4)
    L = np.array(starts_L, dtype=np.complex128)
    U = np.array(starts_U, dtype=np.complex128)
    n_groups, n_starts = J4.shape[0], L.shape[0]
    if n_starts % n_groups:
        raise ValueError(f"{n_starts} start rows do not split into {n_groups} groups")
    bounds = np.arange(n_groups + 1) * (n_starts // n_groups)

    jl, ju = _half_step_matrices(J4)

    val = np.full(n_starts, np.inf)
    converged = np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    for _ in range(KPOS_ITERS):
        if active.size == 0:
            break
        # Re-parameterize: an orthonormal basis preserves the factor's span,
        # so each exact eigen-solve below searches a superset of the
        # previous state.
        cut = np.searchsorted(active, bounds)
        u = _orthonormalize(U[active])
        # L-step: quadratic form matrix over vec(L), U orthonormal
        _, v = _lowest_eigpair(_quadratic_forms(u, jl, cut))
        l = _orthonormalize(v.reshape(-1, dA, k))
        # U-step: quadratic form over vec(U), L orthonormal; afterwards
        # the pair (L, U) is exactly the state achieving new_val.
        new_val, v = _lowest_eigpair(_quadratic_forms(l, ju, cut))
        L[active] = l
        U[active] = v.reshape(-1, dB, k)
        done = _stopped(new_val, val[active], KPOS_TOL)
        val[active] = new_val
        converged[active[done]] = True
        active = active[~done]
    vals = val.reshape(n_groups, -1)
    rows = bounds[:-1] + np.argmin(vals, axis=1)
    return val[rows], L[rows], U[rows], vals, converged.reshape(n_groups, -1)


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_count(rows, size):
    """Threads a ``tracenorm_scan`` of ``rows`` restarts runs on, whose
    largest eigenproblem per row is size x size: one per CPU, at most one
    per ``TRACENORM_CHUNK_ROWS`` rows, and one in all below
    ``TRACENORM_SPLIT_SIZE``, where a sweep is mostly Python dispatch."""
    if size < TRACENORM_SPLIT_SIZE:
        return 1
    return max(1, min(_cpus(), rows // TRACENORM_CHUNK_ROWS))


def tracenorm_scan(T4, starts):
    """Trace-norm ascent: maximize ||(id_k (x) W)(psi psi^dag)||_1 over unit
    psi on C^k (x) C^d_in for a Hermiticity-preserving superoperator W given
    as its un-amplified T4 of shape (d_out, d_out, d_in, d_in).

    k is read from the starts, ``starts.shape[1] // d_in``; a width that is
    not a multiple of d_in raises ``ValueError``.  Fixed-point iteration
    psi <- top eigenvector of (id_k (x) W)^#(sign((id_k (x) W)(psi psi^dag)))
    (monotone ascent) from every start at once.  id_k (x) W acts block by
    block: the ancilla indices pass through both contractions, so T4 is never
    amplified and a sweep costs k^2 d_out^2 d_in^2 per restart instead of
    k^4 of that.  Returns ``(value, psi, values, converged)``: the best
    restart (the first one reaching the maximum), then every restart's final
    value and whether its tolerance test passed within ``TRACENORM_ITERS``
    sweeps.

    The restarts run in contiguous chunks (see ``_chunk_count``): chunk 0 on
    the calling thread and each further one on a thread of its own.  The
    first exception of any chunk reaches the caller once all have ended.
    """
    T4 = np.ascontiguousarray(T4)
    d_out, d_in = T4.shape[0], T4.shape[2]
    psi = np.array(starts, dtype=np.complex128)
    if psi.shape[1] % d_in:
        raise ValueError(f"start width {psi.shape[1]} is not a multiple of d_in = {d_in}")
    k = psi.shape[1] // d_in
    psi /= _row_norms(psi)[:, None]
    chunks = np.array_split(psi, _chunk_count(psi.shape[0], k * max(d_in, d_out)))
    results = [None] * len(chunks)

    def run(i):
        try:
            results[i] = _tracenorm_rows(T4, chunks[i].copy(), k)
        except BaseException as exc:  # re-raised on the calling thread below
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(chunks))]
    try:
        for t in threads:
            t.start()
        run(0)
    finally:
        for t in threads:
            if t.ident is not None:
                t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    psi, val, converged = (np.concatenate(parts) for parts in zip(*results))
    best = int(np.argmax(val))
    return float(val[best]), psi[best], val, converged


def _tracenorm_rows(T4, psi, k):
    """``tracenorm_scan``'s sweeps on the unit starts ``psi``, updated in
    place; returns ``(psi, values, converged)``."""
    # einsum on a transposed (non-contiguous) view rounds differently, so the
    # tensor and both contracted iterates are always contiguous.  Then the
    # blockwise sums over (i, q) and (o, p) run in the order of the dense
    # contraction over the amplified tensor and give the same bits.
    T4c = T4.conj()
    d_out, d_in = T4.shape[0], T4.shape[2]
    val = np.full(psi.shape[0], -np.inf)
    converged = np.zeros(psi.shape[0], dtype=bool)
    active = np.arange(psi.shape[0])
    for _ in range(TRACENORM_ITERS):
        if active.size == 0:
            break
        n = active.size
        p3 = psi[active].reshape(n, k, d_in)
        # x[r, a, b, i, q] = psi[r, a, i] conj(psi[r, b, q])
        x = p3[:, :, None, :, None] * p3.conj()[:, None, :, None, :]
        y = np.einsum("opiq,rabiq->raobp", T4, x).reshape(n, k * d_out, k * d_out)
        w, v = np.linalg.eigh(_herm(y))
        new_val = np.abs(w).sum(axis=1)
        p = (v * np.sign(w)[:, None, :]) @ v.conj().swapaxes(1, 2)
        pt = np.ascontiguousarray(p.reshape(n, k, d_out, k, d_out).transpose(0, 1, 3, 2, 4))
        g = np.einsum("opiq,rabop->raibq", T4c, pt).reshape(n, k * d_in, k * d_in)
        _, vg = np.linalg.eigh(_herm(g))
        psi[active] = vg[:, :, -1]
        done = _stopped(new_val, val[active], TRACENORM_TOL)
        val[active] = new_val
        converged[active[done]] = True
        active = active[~done]
    return psi, val, converged
