"""Self-contained dense semidefinite-program solver for Hermitian
block-diagonal programs.

Standard form, a maximization:

    maximize   <C, X>
    subject to <A_i, X> = b_i   (i = 1..m),   X >= 0 (block diagonal)

with Hermitian C, A_i and <A, B> = Tr(A B), and dual: minimize -b . y
subject to Z = -C - sum_i y_i A_i >= 0.  The iteration minimizes <-C, X>.
A minimization of <J, X> is the maximization of <-J, X>, negated.

Every block of a program has the same size n, and every constraint reads
the sum of the blocks: <A_i, X> = sum_k <A_i, X_k>.  A program passes its
nb objective blocks ``C``, its m constraints as one (m, n, n) stack ``A``
and the right-hand sides ``b``; ``SdpProblem`` checks and symmetrizes the
stack as a whole and reads ``blocks`` and ``m`` from these shapes.  The
iteration runs on the complex Hermitian blocks.  As
Re <A, G> = Re A . Re G + Im A . Im G for Hermitian A, the constraints are
read once as one real (m, 2 nb n^2) matrix, the float view of their entries
repeated once per block, and the Gram independence check, A(X), A^T(y), the
inner products and the Schur complement are real matrix products.  The
iteration is primal-dual path-following (HKM direction, Mehrotra
predictor-corrector) from an identity-scaled start; Cholesky failures of the
Schur complement retry with escalating regularization.

Step lengths follow SDPT3 (Toh, Todd & Tutuncu, Optim. Methods Softw. 11,
545, 1999).  With a_X and a_Z the largest steps that keep X and Z PSD, the
predictor steps min(1, a) and the corrector min(1, gamma a), where
gamma = max(FRACTION_TO_BOUNDARY, 0.9 + 0.0999 min(a_X, a_Z) of the
predictor).  So a problem whose affine step is nearly full takes full Newton
steps near the optimum, and FRACTION_TO_BOUNDARY (0.98) is only the floor of
gamma.  Each problem gets its own gamma from its own steps.  Every step adds a
real multiple of a Hermitian direction, so the iterates stay exactly
Hermitian and are returned as they are.

``solve_many(problems)`` runs programs that share ``blocks`` and ``A``
(``C`` and ``b`` may differ) in one iteration, and ``solve(p)`` is
``solve_many([p])[0]``.  ``solve_optimal(p, name)`` is the one gate for
callers that need an optimum: ``solve(p)``, or ``SdpError`` naming the
program.  X and Z are one complex
(2, q, nb, n, n) array over q problems.  Per iteration that costs seven
LAPACK calls on stacks: one ``cholesky`` and one ``inv`` on that array,
whose inverse factors give Z^-1 and both step-length tests; one ``eigvalsh``
per step-length test (predictor and corrector), on L^-1 dW L^-H for
W = L L^H, of which it reads the lower triangle; one ``cholesky`` of the
Schur complement Re <A_i, X A_j Z^-1>, which tests it for positive
definiteness; and one ``solve`` per Newton system against the matrix that
factor represents.  The Schur complement takes the complex products
X [A_1 ... A_m] and then Z^-1 on the right, and the inner products and
norms are ``vecdot`` calls.  These counts hold whatever the number of blocks
or problems.
Each problem keeps its own iteration count, exit test, infeasibility tests
and certified iterate, and leaves the stack when it stops.  A failed Schur
factorization is redone problem by problem with each problem's own
regularization, and any other breakdown of a stacked step redoes that step
problem by problem, so one failing problem ends only itself.  Each finished
problem logs its status, iterations, residuals and gap at DEBUG on the
``nonmarkov.sdp`` logger.  A solution carries the residuals, values and gap
that the iteration measured on the iterate it returns; only a returned
iterate that was not measured last, the certified fallback below or the
iterate after the last step at "max_iter", is measured again.

An "optimal" solution meets feasibility 1e-8 * max(1, |b_i|), normalised
dual residual 1e-8 and gap 1e-8 * (1 + |primal|); the returned
``primal_residual`` and ``dual_residual`` are these normalised residuals.
The one exit test aims below the guarantees: residuals 1e-9 and
-1e-10 <= gap <= 1e-9 * (1 + |primal|).  The solver remembers the latest
iterate that meets the guarantees and returns it as "optimal", with its own
residuals and gap, if the iteration then ends in "numerical-failure": near
the boundary the last bits of a step decide whether the gap settles above
the exit test's -1e-10 floor before a step breaks down.  The guarantees are
the same for every "optimal" solution, fallback or not.

Everything is deterministic for a given BLAS build and thread count:
identical problems produce identical iterate sequences, and a problem
solved in a batch gets bit for bit the solution it gets alone.  Stacked
LAPACK calls and matrix products repeat the two-dimensional call on each
slice, products with the constraint matrix keep per-problem shapes, and
scalar recurrences such as the centering parameter (mu_aff / mu)^3 are
evaluated on Python floats per problem, since the vectorized power can
differ from the scalar one in the last bit.  The last bits are set by the
order of the sums inside ZGEMM (the complex products), DGEMM and DGEMV (the
products with the constraint matrix), ZPOTRF, ZGESV and ZHEEVD (on the
blocks), and an iterate close to the boundary can turn on them.  A threaded
GEMM sums in another order, so the last bits of larger programs, and at
times their iteration counts, can change with the thread count.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

_log = logging.getLogger(__name__)

MAX_ITER = 200
FRACTION_TO_BOUNDARY = 0.98

# Advertised solution guarantees: feasibility GUARANTEE * max(1, |b_i|),
# normalised dual residual GUARANTEE, gap GUARANTEE * (1 + |primal|).
GUARANTEE = 1e-8

# Exit threshold on the relative gap, aimed below the guarantee.
TOL_GAP = 1e-9

# Residual stagnation/divergence window for infeasibility reporting.
DIVERGE_WINDOW = 30


class SdpError(RuntimeError):
    """Solve aborted: returned status was not usable by the caller."""


@dataclass(frozen=True)
class SdpProblem(linalg.JsonForm):
    """Hermitian block-diagonal SDP in standard form, a maximization.

    ``C`` holds the nb objective blocks, all of one size n; a program whose
    blocks differ in size is rejected.  ``A`` is the one (m, n, n) stack of
    the m constraints, each applied to every block
    (<A_i, X> = sum_k <A_i, X_k>), and ``b`` the m right-hand sides.
    ``blocks`` and ``m`` are read from these shapes.  Validation checks and
    symmetrizes the stack as a whole.  Its JSON (``linalg.JsonForm``) holds
    exactly ``C``, ``A`` (one ``{"re", "im"}`` document) and ``b``.
    """

    C: list
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if len({np.shape(c) for c in self.C}) > 1:
            raise ValueError("all blocks of a program must share one size")
        c = _herm_stack(self.C)
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1:
            raise ValueError("right-hand sides must be a vector")
        if b.size == 0:
            raise ValueError("the solver requires at least one constraint")
        if not np.all(np.isfinite(b)):
            raise ValueError("SDP data contains NaN or Inf entries")
        a = _herm_stack(self.A)
        if a.shape != (b.size,) + c.shape[1:]:
            raise ValueError("the constraint stack must have one row per right-hand side, "
                             "each of the objective's block size")
        object.__setattr__(self, "C", list(c))
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def blocks(self) -> list:
        return [c.shape[0] for c in self.C]

    @property
    def m(self) -> int:
        return self.b.size


def _herm_stack(mats) -> np.ndarray:
    """A stack of n x n blocks as one (len(mats), n, n) array, through
    ``linalg.hermitize`` at tolerance 1e-12."""
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValueError(f"SDP data must be stacks of square blocks, not shape {a.shape}")
    return linalg.hermitize(a, 1e-12)


@dataclass(frozen=True)
class SdpSolution:
    """The iterate a solve ended on: blocks ``X`` and dual slacks ``Z``
    (lists of n x n arrays), multipliers ``y`` with Z = -C - sum_i y_i A_i
    up to the dual residual, ``primal_value`` <C, X>, ``dual_value`` -b . y
    (an upper bound on the optimum), their ``gap`` (dual minus primal), the
    normalised residuals of the module docstring and the ``iterations``
    run.  ``status`` is "optimal" (the guarantees hold),
    "infeasible-detected" (a Farkas ray, or residuals that diverged),
    "numerical-failure" (a breakdown before any iterate met the guarantees)
    or "max_iter"."""

    X: list
    y: np.ndarray
    Z: list
    primal_value: float
    dual_value: float
    gap: float
    status: str
    iterations: int
    primal_residual: float = 0.0
    dual_residual: float = 0.0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@functools.cache
def hermitian_basis(dim: int) -> np.ndarray:
    """Orthogonal (unnormalized) basis of dim x dim Hermitian matrices as one
    (dim^2, dim, dim) stack.

    Diagonal units first, then for each i < j the symmetric element
    (1 at (i, j) and (j, i)) followed by the antisymmetric one (i at (i, j),
    -i at (j, i)).  Used to turn a Hermitian operator equality into real
    scalar constraints.  Built once per ``dim`` and cached: every call with
    that ``dim`` returns the same read-only array, so a caller that needs to
    change it copies it first.
    """
    out = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    out[diag, diag, diag] = 1.0
    i, j = np.triu_indices(dim, 1)
    sym = dim + 2 * np.arange(i.size)
    out[sym, i, j] = out[sym, j, i] = 1.0
    out[sym + 1, i, j] = 1j
    out[sym + 1, j, i] = -1j
    out.flags.writeable = False
    return out


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration on one program; see the module
    docstring."""
    return solve_many([problem])[0]


def solve_optimal(problem: SdpProblem, name: str) -> SdpSolution:
    """``solve(problem)`` if its status is "optimal"; otherwise ``SdpError``
    naming the program ``name`` and the status."""
    sol = solve(problem)
    if not sol.optimal:
        raise SdpError(f"{name} SDP returned status {sol.status!r}")
    return sol


def solve_many(problems) -> list[SdpSolution]:
    """Run the interior-point iteration on programs that share ``blocks`` and
    the constraint stack ``A`` (``C`` and ``b`` may differ), all in one
    stacked iteration; see the module docstring.

    Returns one solution per problem, in order, each identical to what
    ``solve`` returns for that problem alone.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("solve_many needs at least one problem")
    first = problems[0]
    for p in problems[1:]:
        if list(p.blocks) != list(first.blocks):
            raise ValueError("batched problems must share blocks")
        if not np.array_equal(p.A, first.A):
            raise ValueError("batched problems must share the constraint stack")
    nb, n = len(first.blocks), first.blocks[0]
    n_total = nb * n
    m = first.m
    # rows: one real row per constraint over all blocks, the float view of its
    # complex entries repeated once per block, since Re <A, G> = rows . flat(G)
    # for Hermitian A and any G.  a_wide: the constraints side by side, so that
    # X A_j Z^-1 for every j and every block takes two products.
    rows = np.tile(first.A.reshape(m, -1), (1, nb)).view(np.float64)
    a_wide = first.A.transpose(1, 0, 2).reshape(n, m * n)

    def flat(x):
        # The float view of each program's blocks: (..., 2 nb n^2).
        return x.reshape(x.shape[:-3] + (-1,)).view(np.float64)

    # Constraint independence check (rank-deficiency is an input error).
    gram = rows @ rows.T
    gw = np.linalg.eigvalsh(gram)
    if gw[0] <= 1e-12 * max(1.0, gw[-1]):
        raise ValueError(
            f"constraints are linearly dependent (Gram eigenvalue {gw[0]:.3e})"
        )

    def a_op(x):
        return (rows @ flat(x)[..., None])[..., 0]

    def at_op(y):
        return (y[:, None, :] @ rows).view(np.complex128).reshape(len(y), nb, n, n)

    def inner(a, b):
        # Per problem, <a, b> over all its Hermitian blocks, as Python floats.
        return np.vecdot(flat(a), flat(b)).tolist()

    def measure(w, y, cm, b, b_scale, c_scale):
        """Residuals of a stack and, per problem, the scalars the exit and
        divergence tests read."""
        rp = b - a_op(w[0])
        rd = cm - w[1] - at_op(y)
        # primal: per constraint, relative to max(1, |b_i|); dual: the largest
        # entry modulus, relative to max(1, ||C||)
        p_res = (np.abs(rp) / b_scale).max(axis=1).tolist()
        d_res = [dm / cs for dm, cs in zip(np.abs(rd).max(axis=(1, 2, 3)).tolist(), c_scale)]
        pv = [-v for v in inner(cm, w[0])]
        dv = [-v for v in np.vecdot(b, y).tolist()]
        gap = [d - p for p, d in zip(pv, dv)]
        return rp, rd, p_res, d_res, pv, dv, gap

    # Per-problem data, indexed by problem; the iteration works on the rows
    # of the problems still active.
    q = len(problems)
    cm_all = -np.array([p.C for p in problems])
    b_all = np.array([p.b for p in problems])
    b_scale_all = np.maximum(1.0, np.abs(b_all))
    c_norm = [math.sqrt(v) for v in inner(cm_all, cm_all)]
    c_scale_all = [max(1.0, cn) for cn in c_norm]

    def problem_rows(idx):
        return cm_all[idx], b_all[idx], b_scale_all[idx], [c_scale_all[i] for i in idx]

    # Identity-scaled start from problem norms.
    a_norms = np.maximum(np.sqrt(np.diag(gram)), 1e-12)
    start = np.array([
        [max(10.0, np.sqrt(n_total), float(np.max(np.abs(bb) / (1.0 + a_norms))) * n_total)
         for bb in b_all],
        [max(10.0, np.sqrt(n_total), cn, float(a_norms.max())) for cn in c_norm],
    ])
    # w: X and Z as one (2, q, nb, n, n) stack.
    w = np.repeat(start[:, :, None, None, None] * np.eye(n, dtype=np.complex128), nb, axis=2)
    y = np.zeros((q, m))

    def schur_factor(schur):
        """Cholesky factors of a (q, m, m) stack.  A single problem escalates
        its regularization on a failed factorization; a failed stack raises,
        and the caller redoes the step problem by problem."""
        reg = 0.0
        for _ in range(4):
            try:
                return np.linalg.cholesky(schur + reg * np.eye(m) if reg else schur)
            except np.linalg.LinAlgError:
                if len(schur) > 1:
                    raise
                base = max(float(np.trace(schur[0])) / m, 1.0)
                reg = base * 1e-14 if reg == 0.0 else reg * 1e4
        raise np.linalg.LinAlgError("Schur complement is not positive definite")

    def herm(x):
        return x.conj().swapaxes(-1, -2)

    def step(w, y, rp, rd, mu):
        """One predictor-corrector step of a stack; raises LinAlgError on a
        breakdown anywhere in it."""
        x = w[0]
        # Inverse Cholesky factors of X and Z, one (2, q, nb, n, n) stack.
        linv = np.linalg.inv(np.linalg.cholesky(w))
        linv_h = herm(linv)
        zinv = linv_h[1] @ linv[1]

        # Schur complement M[i, j] = Re <A_i, X A_j Z^-1>: row (a, j) of xaz
        # is row a of X A_j Z^-1, and g orders them by constraint.
        xaz = (x @ a_wide).reshape(-1, nb, n * m, n) @ zinv
        g = xaz.reshape(-1, nb, n, m, n).transpose(0, 3, 1, 2, 4)
        schur = rows @ flat(g).swapaxes(-1, -2)
        # The Newton systems solve against the matrix the accepted factor
        # represents, regularized or not.
        chol = schur_factor((schur + schur.swapaxes(-1, -2)) / 2)
        schur = chol @ chol.swapaxes(-1, -2)
        xrz = x @ rd @ zinv

        def newton(sigma_mu, corr):
            """Solve for (dx, dy, dz) given centering target and corrector;
            dX and dZ come as one (2, q, nb, n, n) stack."""
            t = sigma_mu * zinv - x
            if corr is not None:
                corr = corr @ zinv
                targ = t - corr - xrz
            else:
                targ = t - xrz
            dy = np.linalg.solve(schur, (rp - a_op(targ))[..., None])[..., 0]
            dw = np.empty((2,) + t.shape, dtype=np.complex128)
            dz = np.subtract(rd, at_op(dy), out=dw[1])
            t = t - x @ dz @ zinv
            if corr is not None:
                t = t - corr
            np.add(t, herm(t), out=dw[0])
            dw[0] /= 2
            return dw, dy

        def max_steps(dw):
            # Largest steps keeping X + a dX and Z + a dZ PSD, uncapped: (2, q),
            # from the spectrum of L^-1 dW L^-H with W = L L^H (eigvalsh
            # reads its lower triangle).
            low = np.linalg.eigvalsh(linv @ (dw @ linv_h))[..., 0]
            lam = np.fmin.reduce(low, axis=-1)  # over the blocks
            return -1.0 / np.fmin(lam, -1e-14)

        # Predictor
        dwa, _ = newton(0.0, None)
        alpha_aff = np.minimum(1.0, max_steps(dwa))
        mu_aff = inner(*(w + alpha_aff[:, :, None, None, None] * dwa))
        sigma_mu = [min(1.0, max(0.0, (ma / n_total / mo) ** 3)) * mo for ma, mo in zip(mu_aff, mu)]

        # Corrector: the closer the predictor came to a full step, the closer
        # to the boundary the corrector may go, up to a full Newton step.
        dw, dy = newton(np.array(sigma_mu)[:, None, None, None], dwa[0] @ dwa[1])
        gamma = np.maximum(FRACTION_TO_BOUNDARY, 0.9 + 0.0999 * alpha_aff.min(axis=0))
        alpha = np.minimum(1.0, gamma * max_steps(dw))
        return w + alpha[:, :, None, None, None] * dw, y + alpha[1][:, None] * dy

    sols = [None] * q
    certified = [None] * q
    res_history = [[] for _ in range(q)]

    def finish(i, status, it, state, scalars=None):
        """The solution of problem i at row r of the stacks ``state`` = (w, y,
        r).  ``scalars`` are its (p_res, d_res, pv, dv, gap) as ``measure``
        gave them for that iterate; without them, or when the certified
        iterate replaces it, that iterate is measured here."""
        if status == "numerical-failure" and certified[i] is not None:
            # The step broke down after an iterate already met the guarantees.
            state, status, scalars = certified[i], "optimal", None
        ws, ys, r = state
        w1, y1 = ws[:, r:r + 1], ys[r:r + 1]
        if scalars is None:
            scalars = [v[0] for v in measure(w1, y1, *problem_rows([i]))[2:]]
        p_res, d_res, pv, dv, gap = scalars
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("%s after %d iterations: primal_residual=%.3g dual_residual=%.3g "
                       "gap=%.3g", status, it, p_res, d_res, gap)
        return SdpSolution(
            X=list(w1[0, 0].copy()),
            y=y1[0].copy(),
            Z=list(w1[1, 0].copy()),
            primal_value=pv,
            dual_value=dv,
            gap=gap,
            status=status,
            iterations=it,
            primal_residual=p_res,
            dual_residual=d_res,
        )

    idx = list(range(q))  # the problem of each row of the stacks
    cm, b, b_scale, c_scale = problem_rows(idx)
    for it in range(1, MAX_ITER + 1):
        rp, rd, *measured = measure(w, y, cm, b, b_scale, c_scale)
        # Per row: (p_res, d_res, pv, dv, gap) of the iterate (w, y).
        scalars = list(zip(*measured))
        mu = [v / n_total for v in inner(w[0], w[1])]
        ynorm = [math.sqrt(v) for v in np.vecdot(y, y).tolist()]

        keep = []
        for r, i in enumerate(idx):
            (pr, dr, pvr, _, gr), yn = scalars[r], ynorm[r]
            hist = res_history[i]
            hist.append(pr + dr)
            status = None
            if (
                pr <= GUARANTEE * 0.1
                and dr <= GUARANTEE * 0.1
                and abs(gr) <= TOL_GAP * (1.0 + abs(pvr))
                and gr >= -1e-10
            ):
                status = "optimal"
            else:
                if pr <= GUARANTEE and dr <= GUARANTEE and abs(gr) <= GUARANTEE * (1.0 + abs(pvr)):
                    certified[i] = (w, y, r)
                # Infeasibility reporting.  Primary signal: the dual
                # variables run off along a ray with positive objective and
                # (approximately) negative-semidefinite AT(y) -- a Farkas
                # certificate.  Fallback: the normalized residuals diverged
                # over a full window.
                if (yn > 1e6 and float(b[r] @ y[r]) > 1e-8 * yn
                        and float(np.linalg.eigvalsh(at_op(y[r:r + 1] / yn)).max()) <= 1e-7):
                    status = "infeasible-detected"
                elif it > DIVERGE_WINDOW and (
                    min(hist[-DIVERGE_WINDOW:]) > 10.0 * min(hist[:-DIVERGE_WINDOW]) + 1e-12
                    and min(hist[-DIVERGE_WINDOW:]) > 1e-6
                ):
                    status = "infeasible-detected"
                elif not (math.isfinite(mu[r]) and math.isfinite(yn)):
                    status = "numerical-failure"
            if status is None:
                keep.append(r)
            else:
                sols[i] = finish(i, status, it, (w, y, r), scalars[r])

        if not keep:
            break
        if len(keep) < len(idx):
            idx = [idx[r] for r in keep]
            cm, b, b_scale, c_scale = problem_rows(idx)
            w, y = w[:, keep], y[keep]
            rp, rd, mu = rp[keep], rd[keep], [mu[r] for r in keep]
            scalars = [scalars[r] for r in keep]
        try:
            w, y = step(w, y, rp, rd, mu)
        except np.linalg.LinAlgError:
            # One problem's breakdown must not end the others: redo the step
            # problem by problem.
            keep, parts = [], []
            for r, i in enumerate(idx):
                try:
                    parts.append(step(w[:, r:r + 1], y[r:r + 1], rp[r:r + 1], rd[r:r + 1],
                                      mu[r:r + 1]))
                    keep.append(r)
                except np.linalg.LinAlgError:
                    sols[i] = finish(i, "numerical-failure", it, (w, y, r), scalars[r])
            if not keep:
                break
            idx = [idx[r] for r in keep]
            cm, b, b_scale, c_scale = problem_rows(idx)
            w = np.concatenate([p[0] for p in parts], axis=1)
            y = np.concatenate([p[1] for p in parts])
    else:
        for r, i in enumerate(idx):
            sols[i] = finish(i, "max_iter", MAX_ITER, (w, y, r))
    return sols
