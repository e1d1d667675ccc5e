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

At k = 1 a ``kpos_scan`` sweep takes no orthonormal basis at all.  A
factor then has one column, and every factor a half-step reads is already
a unit vector: the U starts are divided by their norms once, before the
first sweep, and every later factor is the eigenvector ``_lowest_eigpair``
returned, which has unit norm.  (At k > 1 both factors take the Q of
``qr`` on every sweep.)  A 2x2 Hessian (a qubit factor at k = 1) takes its
lowest eigenpair from the 2x2 formula instead of a stacked ``eigh``, whose
cost at that size is almost all per-matrix overhead.  The start
normalization and the formula work row by row with elementwise
operations, so the bit-for-bit guarantee above still holds.

A ``kpos_scan`` call searches a stack of Choi matrices at once, one group
of restarts each.  ``maps.k_positivity`` of a family stacks every step of
a divisibility report this way, so the rows of a call are steps x restarts
and a sweep pays its fixed cost once per report instead of once per step.
A qubit report's searches at k = 1 are 2x2 problems, where a sweep's cost
is almost all numpy dispatch, so the scan keeps bookkeeping out of the
sweeps.  The active rows' factors and last values live in compact
arrays, in row order, and a row's results are written back only on the
sweep where it stops (and, for rows still active, after the last sweep).
Each group's span of the outer-product and Hessian stacks is sliced once
per compaction, not twice per group and half-step.  Gathering each row's
half-step matrix into one stack, for one ``matmul`` over all rows, would
save the per-group calls but hold rows x dA^2 dB^2 entries, 256 times the
Hessian stack at d = 16, k = 1; the scan does not do it.

Memory scales as rows x one quadratic-form matrix.  A ``kpos_scan`` call
allocates two flat buffers of rows x (max(dA, dB)*k)^2 entries, the size
of its largest stack of Hessians of size (d*k)^2, once; every stack of
either half-step is a view of them over the active rows.  One buffer takes
the outer products of the fixed factor (rows x (k*e)^2 entries, where e
is that factor's dimension, at most max(dA, dB)) and the other their
products with the half-step matrix.  At k = 1 those products are the
Hessians; at k > 1 the Hessians are the products with their indices
reordered, copied into the first buffer, whose outer products are spent
by then.  The eigenpairs hold up to four such stacks: the Hessians in one
buffer, their Hermitian parts in the other, LAPACK's working copy and the
eigenvectors (the 2x2 closed form needs only the Hessians and the idle
buffer).  So the buffers add no Hessian-sized stack to the four that the
eigenpairs need in any case.  ``maps.k_positivity`` puts
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


def _herm(h, out=None):
    """Hermitian part of each matrix in a stack, written into ``out`` if
    given (an array of h's shape that does not overlap it)."""
    out = np.add(h, h.conj().swapaxes(-1, -2), out=out)
    out /= 2
    return out


def _row_norms(x):
    """2-norm of each row of a (rows, n) stack, from the real dot products
    np.linalg.norm takes on one vector, so a row gets the same bits in any
    stack."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _orthonormalize(x):
    """Orthonormal basis of the column span of each (n, k) matrix in a stack.

    One column is divided by its norm; the phase QR would give it changes
    no quadratic form.  ``kpos_scan`` does this once per call, to its U
    starts at k = 1, and then reads only unit eigenvectors.  Wider factors
    take the Q of ``np.linalg.qr``, which ``kpos_scan`` runs on both
    factors on every sweep.
    """
    if x.shape[-1] > 1:
        return np.linalg.qr(x)[0]
    return x / _row_norms(x[:, :, 0])[:, None, None]


def _lowest_eigpair(h, work=None):
    """Lowest eigenvalue and a unit eigenvector of the Hermitian part of
    each matrix in a (rows, n, n) stack.

    A 2x2 stack takes the closed form, row by row: with a, c the real
    diagonal, b the mean of h01 and conj(h10), delta = (a - c) / 2 and
    r = hypot(delta, |b|), the eigenvalue is (a + c) / 2 - r with the
    eigenvector (-b, r + delta) if delta >= 0, else (r - delta, -conj b),
    so that no component is a difference of near-equal terms; a multiple
    of the identity (r = 0) gives e1.  Any other size takes
    ``np.linalg.eigh`` of the Hermitian part, which is written into the
    flat buffer ``work`` if one is given (it must not overlap h).
    """
    if h.shape[-1] != 2:
        out = None if work is None else work[:h.size].reshape(h.shape)
        w, v = np.linalg.eigh(_herm(h, out))
        return w[:, 0], v[:, :, 0]
    a = h[:, 0, 0].real
    c = h[:, 1, 1].real
    b = (h[:, 0, 1] + h[:, 1, 0].conj()) / 2
    delta = (a - c) / 2
    r = np.hypot(delta, np.abs(b))
    upper = delta >= 0
    v = np.empty((h.shape[0], 2), dtype=np.complex128)
    np.subtract(r, delta, out=v[:, 0])
    np.negative(b, out=v[:, 0], where=upper)
    np.negative(b.conj(), out=v[:, 1])
    np.copyto(v[:, 1], r + delta, where=upper)
    if not r.all():
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


def _half_step(jm, cut, k, zbuf, hbuf):
    """One seesaw half-step's stacks over the rows that ``cut`` splits into
    groups, as views of the flat buffers zbuf and hbuf:
    ``(zbuf, hbuf, z, h, spans)``.

    jm is the (g, e^2, n^2) stack of half-step matrices (see
    ``_half_step_matrices``), and rows cut[g]:cut[g + 1] search group g.
    z, of shape (rows, k*k, e*e), takes the outer products of the fixed
    factor and h, of shape (rows, k*k, n*n), their products with jm; spans
    lists ``(z[lo:hi], jm[g], h[lo:hi])`` for each group with rows, so a
    sweep slices nothing while the active rows stay the same.
    """
    rows, e, n = cut[-1], math.isqrt(jm.shape[1]), math.isqrt(jm.shape[2])
    z = zbuf[:rows * (k * e) ** 2].reshape(rows, k * k, e * e)
    h = hbuf[:rows * (k * n) ** 2].reshape(rows, k * k, n * n)
    spans = [(z[lo:hi], jm[g], h[lo:hi])
             for g, (lo, hi) in enumerate(zip(cut[:-1], cut[1:])) if lo < hi]
    return zbuf, hbuf, z, h, spans


def _quadratic_forms(x, step):
    """Hessians of one seesaw half-step, one per row of the fixed factor x,
    and the flat buffer they leave free: ``(hessians, work)``.

    x is a (rows, e, k) stack and ``step`` comes from ``_half_step``.  Row r
    of group g gets the (n*k, n*k) Hessian
    h[r, a*k + i, c*k + j] = sum_{p, q} conj(x[r, p, i]) x[r, q, j] jm[g][p*e + q, a*n + c].
    The outer products z[r, i*k + j, p*e + q] = conj(x[r, p, i]) x[r, q, j]
    are one broadcast into z.  Each group's span of z then takes one 3-D @
    2-D matmul into its span of h, which numpy runs as one BLAS product per
    row, so a row gets the same bits in a stack of any height.  At k = 1 the
    Hessians are h itself and z's buffer is free; at k > 1 they are h with
    its indices reordered, copied into z's buffer, and h's is free.
    """
    zbuf, hbuf, z, h, spans = step
    rows, e, k = x.shape
    n = math.isqrt(h.shape[2])
    xt = x.transpose(0, 2, 1)
    np.multiply(xt.conj()[:, :, None, :, None], xt[:, None, :, None, :],
                out=z.reshape(rows, k, k, e, e))
    for zg, jg, hg in spans:
        np.matmul(zg, jg, out=hg)
    blocks = h.reshape(rows, k, k, n, n).transpose(0, 3, 1, 4, 2)
    if k == 1:
        return blocks.reshape(rows, n, n), zbuf
    hess = zbuf[:h.size].reshape(rows, n, k, n, k)
    np.copyto(hess, blocks)
    return hess.reshape(rows, n * k, n * k), hbuf


def _stopped(new_val, val, tol):
    """Per-restart stop test |new - old| <= tol * max(1, |new|)."""
    return np.abs(new_val - val) <= tol * np.maximum(1.0, np.abs(new_val))


def kpos_scan(J4, dA, dB, k, starts_L, starts_U):
    """k-positivity seesaw: minimize <psi|J|psi> over unit vectors of Schmidt
    rank <= k, parameterized psi = sum_i L[:, i] (x) U[:, i].

    Alternates exact minimum-eigenvector solves in the L and U factors
    (monotone per iteration) from every start at once.  The search starts
    from the U starts: the first L-step overwrites every L, so the values
    of ``starts_L`` are never read, though it must have as many rows as
    ``starts_U``.  Each half-step takes the lowest eigenpair of a (d*k)^2
    Hessian built on the other factor (the closed form at size 2, else
    ``eigh``; see ``_lowest_eigpair``).  At k > 1 that factor is first
    replaced by the Q of its ``qr``.  At k = 1 it is the unit eigenvector
    of the previous half-step, used as it comes, and only the U starts are
    divided by their norms, once before the first sweep (see
    ``_orthonormalize``).  Returns
    ``(value, L, U, values, converged)``: per group, the best restart (the
    first one reaching the minimum), then every restart's final value and
    whether its tolerance test passed within ``KPOS_ITERS`` sweeps.

    ``J4`` is a ``(g, dA, dB, dA, dB)`` stack of Choi tensors.  The rows of
    ``starts_L``/``starts_U`` split evenly into g groups, in order, and group
    i searches ``J4[i]``.  An empty stack, no start rows, start stacks of
    different heights and rows that do not split evenly raise
    ``ValueError``.  Before the first sweep each group's J4 is
    reshaped once into the matrix of each half-step.  The sweeps run on
    compact arrays of the active rows' factors and last values, in row
    order; a row's L, U, value and stop flag are written back on the sweep
    where it stops, and those of rows still active once after the last
    sweep.  Only a sweep where rows stop compacts the arrays and rebuilds
    each group's span of the half-steps' outer-product and Hessian stacks
    (see ``_half_step``), views of two buffers allocated once per call.  A
    sweep forms the fixed factor's outer products for all active rows,
    makes one per-row ``matmul`` per group over its span of them (see
    ``_quadratic_forms``), and runs the eigenpairs (and at k > 1 the
    ``qr``s) once over all rows.  All of these work per row, so a batched
    call is bit-identical to each group run alone.  The best value, L and
    U have a leading group axis, and ``values`` and ``converged`` have
    shape (g, restarts per group).
    """
    J4 = np.ascontiguousarray(J4)
    L = np.array(starts_L, dtype=np.complex128)
    U = np.array(starts_U, dtype=np.complex128)
    n_groups, n_starts = J4.shape[0], L.shape[0]
    if n_groups == 0:
        raise ValueError("kpos_scan needs at least one Choi tensor, got an empty stack")
    if n_starts == 0:
        raise ValueError("kpos_scan needs at least one start row, got none")
    if U.shape[0] != n_starts:
        raise ValueError(f"{n_starts} L start rows but {U.shape[0]} U start rows")
    if n_starts % n_groups:
        raise ValueError(f"{n_starts} start rows do not split into {n_groups} groups")
    bounds = np.arange(n_groups + 1) * (n_starts // n_groups)

    jl, ju = _half_step_matrices(J4)
    zbuf = np.empty(n_starts * (k * max(dA, dB)) ** 2, dtype=np.complex128)
    hbuf = np.empty_like(zbuf)

    val = np.full(n_starts, np.inf)
    converged = np.zeros(n_starts, dtype=bool)
    # The active rows, and their factors and last values.
    active, l, u, last = np.arange(n_starts), L, U, val
    # At k = 1 each half-step's eigenvector is already a unit factor, so
    # only the U starts are normalized, once; the L starts are never read.
    if k == 1:
        u = _orthonormalize(u)
    steps = None
    for _ in range(KPOS_ITERS):
        if steps is None:
            cut = np.searchsorted(active, bounds).tolist()
            steps = (_half_step(jl, cut, k, zbuf, hbuf), _half_step(ju, cut, k, zbuf, hbuf))
        # Re-parameterize: an orthonormal basis preserves the factor's span,
        # so each exact eigen-solve below searches a superset of the
        # previous state.
        if k > 1:
            u = _orthonormalize(u)
        # L-step: quadratic form matrix over vec(L), U orthonormal
        _, v = _lowest_eigpair(*_quadratic_forms(u, steps[0]))
        l = v.reshape(-1, dA, k)
        if k > 1:
            l = _orthonormalize(l)
        # U-step: quadratic form over vec(U), L orthonormal; afterwards
        # the pair (L, U) is exactly the state achieving new_val.
        new_val, v = _lowest_eigpair(*_quadratic_forms(l, steps[1]))
        u = v.reshape(-1, dB, k)
        done = _stopped(new_val, last, KPOS_TOL)
        last = new_val
        if done.any():
            rows = active[done]
            L[rows], U[rows], val[rows] = l[done], u[done], last[done]
            converged[rows] = True
            keep = ~done
            active, l, u, last = active[keep], l[keep], u[keep], last[keep]
            if active.size == 0:
                break
            steps = None
    L[active], U[active], val[active] = l, u, last
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

    k is read from the starts, ``starts.shape[1] // d_in``; no start rows,
    or a width that is not a multiple of d_in, raise ``ValueError``.
    Fixed-point iteration
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
    if psi.shape[0] == 0:
        raise ValueError("tracenorm_scan needs at least one start row, got none")
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
