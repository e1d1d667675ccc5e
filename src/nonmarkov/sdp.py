"""Self-contained dense semidefinite-program solver for Hermitian
block-diagonal programs.

Standard form (sense "min"):

    minimize   <C, X>
    subject to <A_i, X> = b_i   (i = 1..m),   X >= 0 (block diagonal)

with Hermitian C, A_i and <A, B> = Tr(A B).  "max" negates the objective
internally.

Constraint data is stacked from the builders on: a program passes block k
of all m constraints as one (m, n_k, n_k) array ``A[k]`` and the right-hand
sides as the vector ``b``, and ``SdpProblem`` keeps them in that layout.
``solve`` embeds each Hermitian stack once into real symmetric blocks of
doubled dimension, so the Gram independence check, A(X), A^T(y), the Schur
complement and the Newton right-hand side are one matrix product per block.
The iteration is primal-dual path-following (HKM direction, Mehrotra
predictor-corrector, fraction-to-boundary 0.98) from an identity-scaled
start; Cholesky failures of the Schur complement retry with escalating
regularization.

An "optimal" solution meets feasibility 1e-8 * max(1, |b_i|), normalised
dual residual 1e-8 and gap 1e-8 * (1 + |primal|); the returned
``primal_residual`` and ``dual_residual`` are these normalised residuals.
The one exit test aims below the guarantees: residuals 1e-9 and
-1e-10 <= gap <= 1e-9 * (1 + |primal|).  The solver remembers the latest
iterate that meets the guarantees and returns it as "optimal", with its own
residuals and gap, if the iteration then ends in "numerical-failure": near
the boundary the last bits of a step decide whether the gap settles above
the exit test's -1e-10 floor before a step breaks down.  The guarantees are
the same for every "optimal" solution, fallback or not.  Everything is
deterministic for a given BLAS build and thread count: identical problems
produce identical iterate sequences.  A threaded GEMM sums in another order,
so the last bits of larger programs can change with the thread count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
class SdpProblem:
    """Hermitian block-diagonal SDP in standard form.

    ``A[k]`` is block k of all m constraints as one (m, n_k, n_k) stack and
    ``b`` the m right-hand sides.  Validation keeps this layout: each stack
    is checked and symmetrized as a whole.
    """

    blocks: list
    C: list
    A: list
    b: np.ndarray
    sense: str = "min"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.blocks or any(n < 1 for n in self.blocks):
            raise ValueError("block dimensions must be positive")
        if len(self.C) != len(self.blocks):
            raise ValueError("objective must provide one block per block dimension")
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1:
            raise ValueError("right-hand sides must be a vector")
        if b.size == 0:
            raise ValueError("the solver requires at least one constraint")
        if len(self.A) != len(self.blocks):
            raise ValueError("constraint must provide one block per block dimension")
        a = [_herm_stack(s, n) for s, n in zip(self.A, self.blocks)]
        if any(s.shape[0] != b.size for s in a):
            raise ValueError("every constraint stack must have one row per right-hand side")
        object.__setattr__(self, "C", [_herm_stack([c], n)[0] for c, n in zip(self.C, self.blocks)])
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.b.size

    def to_json(self) -> str:
        def enc(mat):
            return {"re": mat.real.tolist(), "im": mat.imag.tolist()}

        return json.dumps(
            {
                "blocks": [int(n) for n in self.blocks],
                "C": [enc(c) for c in self.C],
                "A": [enc(a) for a in self.A],
                "b": self.b.tolist(),
                "sense": self.sense,
            }
        )

    @staticmethod
    def from_json(text: str) -> "SdpProblem":
        doc = json.loads(text)

        def dec(obj):
            return np.array(obj["re"], dtype=np.float64) + 1j * np.array(
                obj["im"], dtype=np.float64
            )

        return SdpProblem(
            blocks=[int(n) for n in doc["blocks"]],
            C=[dec(c) for c in doc["C"]],
            A=[dec(a) for a in doc["A"]],
            b=doc["b"],
            sense=doc.get("sense", "min"),
        )


def _herm_stack(mats, n: int) -> np.ndarray:
    """Check a stack of n x n blocks for finiteness and Hermiticity within
    1e-12 (relative to each block's largest entry); return it symmetrized as
    one (len(mats), n, n) array."""
    a = np.asarray(mats, dtype=np.complex128)
    if a.shape[1:] != (n, n):
        raise ValueError(f"block shape {a.shape[1:]} does not match declared dim {n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("SDP data contains NaN or Inf entries")
    ah = a.conj().transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    if np.any(np.abs(a - ah).max(axis=(1, 2), initial=0.0) > 1e-12 * scale):
        raise ValueError("SDP data blocks must be Hermitian within 1e-12")
    return (a + ah) / 2


@dataclass(frozen=True)
class SdpSolution:
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


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthogonal (unnormalized) basis of dim x dim Hermitian matrices as one
    (dim^2, dim, dim) stack.

    Diagonal units first, then for each i < j the symmetric element
    (1 at (i, j) and (j, i)) followed by the antisymmetric one (i at (i, j),
    -i at (j, i)).  Used to turn a Hermitian operator equality into real
    scalar constraints.
    """
    out = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    diag = np.arange(dim)
    out[diag, diag, diag] = 1.0
    i, j = np.triu_indices(dim, 1)
    sym = dim + 2 * np.arange(i.size)
    out[sym, i, j] = out[sym, j, i] = 1.0
    out[sym + 1, i, j] = 1j
    out[sym + 1, j, i] = -1j
    return out


def embed_hermitian(h) -> np.ndarray:
    """[[Re h, -Im h], [Im h, Re h]] over the last two axes (one matrix or a
    stack): eigenvalues duplicate, inner products of embedded pairs scale by
    exactly 2 (accounted for during assembly)."""
    a = np.asarray(h, dtype=np.complex128)
    re, im = a.real, a.imag
    top = np.concatenate([re, -im], axis=-1)
    bot = np.concatenate([im, re], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def _unembed(y: np.ndarray) -> np.ndarray:
    """Project a symmetric doubled matrix back to the Hermitian block."""
    n = y.shape[0] // 2
    re = (y[:n, :n] + y[n:, n:]) / 2
    im = (y[n:, :n] - y[n:, :n].T) / 2
    return re + 1j * im


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point iteration; see the module docstring."""
    sign = 1.0 if problem.sense == "min" else -1.0
    dims = [2 * n for n in problem.blocks]
    n_total = sum(dims)
    m = problem.m
    c_blocks = [sign * embed_hermitian(c) for c in problem.C]
    # rows[bi]: embedded block bi of every constraint, one row per constraint.
    rows = [embed_hermitian(a).reshape(m, -1) for a in problem.A]
    b = 2.0 * problem.b

    # Constraint independence check (rank-deficiency is an input error).
    gram = sum(r @ r.T for r in rows)
    gw = np.linalg.eigvalsh(gram)
    if gw[0] <= 1e-12 * max(1.0, gw[-1]):
        raise ValueError(
            f"constraints are linearly dependent (Gram eigenvalue {gw[0]:.3e})"
        )

    def a_op(xs):
        return sum(r @ xb.ravel() for r, xb in zip(rows, xs))

    def at_op(y):
        return [(y @ r).reshape(d, d) for r, d in zip(rows, dims)]

    # Identity-scaled start from problem norms.
    a_norms = np.maximum(np.sqrt(np.diag(gram)), 1e-12)
    c_norm = float(np.sqrt(sum(np.vdot(c, c) for c in c_blocks)))
    xi = max(10.0, np.sqrt(n_total), float(np.max(np.abs(b) / (1.0 + a_norms))) * n_total)
    eta = max(10.0, np.sqrt(n_total), c_norm, float(a_norms.max()))
    x = [xi * np.eye(d) for d in dims]
    z = [eta * np.eye(d) for d in dims]
    y = np.zeros(m)

    def values():
        pv = sign * float(sum(np.vdot(cb, xb) for cb, xb in zip(c_blocks, x))) / 2.0
        dv = sign * float(b @ y) / 2.0
        gap = (pv - dv) if problem.sense == "min" else (dv - pv)
        return pv, dv, gap

    def residuals():
        rp = b - a_op(x)
        aty = at_op(y)
        rd = [cb - zb - ab for cb, zb, ab in zip(c_blocks, z, aty)]
        return rp, rd

    def residual_norms(rp, rd):
        # primal: per constraint on the Hermitian (non-doubled) scale,
        # relative to max(1, |b_i|); dual: relative to max(1, ||C||)
        p_res = float(np.max(np.abs(rp) / 2.0 / np.maximum(1.0, np.abs(b) / 2.0)))
        d_res = max(float(np.abs(r).max(initial=0.0)) for r in rd) / max(1.0, c_norm)
        return p_res, d_res

    status = "max_iter"
    it = 0
    res_history = []
    certified = None
    for it in range(1, MAX_ITER + 1):
        rp, rd = residuals()
        mu = float(sum(np.vdot(xb, zb) for xb, zb in zip(x, z))) / n_total
        pv, dv, gap = values()
        p_res, d_res = residual_norms(rp, rd)
        res_history.append(p_res + d_res)

        if (
            p_res <= GUARANTEE * 0.1
            and d_res <= GUARANTEE * 0.1
            and abs(gap) <= TOL_GAP * (1.0 + abs(pv))
            and gap >= -1e-10
        ):
            status = "optimal"
            break
        if p_res <= GUARANTEE and d_res <= GUARANTEE and abs(gap) <= GUARANTEE * (1.0 + abs(pv)):
            certified = (x, y, z)

        # Infeasibility reporting.  Primary signal: the dual variables run
        # off along a ray with positive objective and (approximately)
        # negative-semidefinite AT(y) -- a Farkas certificate.  Fallback:
        # the normalized residuals diverged over a full window.
        ynorm = float(np.linalg.norm(y))
        if ynorm > 1e6 and float(b @ y) > 1e-8 * ynorm:
            ray = at_op(y / ynorm)
            ray_max = max(float(np.linalg.eigvalsh(r).max()) for r in ray)
            if ray_max <= 1e-7:
                status = "infeasible-detected"
                break
        if it > DIVERGE_WINDOW:
            recent = min(res_history[-DIVERGE_WINDOW:])
            earlier = min(res_history[:-DIVERGE_WINDOW])
            if recent > 10.0 * earlier + 1e-12 and recent > 1e-6:
                status = "infeasible-detected"
                break
        if not (np.isfinite(mu) and np.isfinite(ynorm)):
            status = "numerical-failure"
            break

        try:
            lx = [np.linalg.cholesky(xb) for xb in x]
            lz = [np.linalg.cholesky(zb) for zb in z]
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break
        zinv = [inv_l.T @ inv_l for inv_l in map(np.linalg.inv, lz)]

        # Schur complement M[i, j] = <A_i, X A_j Z^{-1}>
        schur = sum(
            r @ (xb @ r.reshape(m, d, d) @ zi).reshape(m, -1).T
            for r, d, xb, zi in zip(rows, dims, x, zinv)
        )
        schur = (schur + schur.T) / 2

        chol = None
        base = max(float(np.trace(schur)) / m, 1.0)
        reg = 0.0
        for _ in range(4):
            try:
                chol = np.linalg.cholesky(schur + reg * np.eye(m))
                break
            except np.linalg.LinAlgError:
                reg = base * 1e-14 if reg == 0.0 else reg * 1e4
        if chol is None:
            status = "numerical-failure"
            break

        def schur_solve(rhs):
            return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

        def newton(sigma_mu, corr):
            """Solve for (dx, dy, dz) given centering target and corrector."""
            targ = []
            for bi in range(len(dims)):
                t = sigma_mu * zinv[bi] - x[bi]
                if corr is not None:
                    t = t - corr[bi] @ zinv[bi]
                targ.append(t - x[bi] @ rd[bi] @ zinv[bi])
            dy = schur_solve(rp - a_op(targ))
            dz = [r - s for r, s in zip(rd, at_op(dy))]
            dx = []
            for bi in range(len(dims)):
                t = sigma_mu * zinv[bi] - x[bi] - x[bi] @ dz[bi] @ zinv[bi]
                if corr is not None:
                    t = t - corr[bi] @ zinv[bi]
                dx.append((t + t.T) / 2)
            return dx, dy, dz

        def max_step(dmats, chols):
            alpha = 1.0
            for bi in range(len(dims)):
                w = np.linalg.solve(chols[bi], dmats[bi])
                w = np.linalg.solve(chols[bi], w.T).T
                lam = float(np.linalg.eigvalsh((w + w.T) / 2)[0])
                if lam < -1e-14:
                    alpha = min(alpha, -1.0 / lam)
            return alpha

        try:
            # Predictor
            dxa, dya, dza = newton(0.0, None)
            ap = max_step(dxa, lx)
            ad = max_step(dza, lz)
            xa = [x[bi] + min(1.0, ap) * dxa[bi] for bi in range(len(dims))]
            za = [z[bi] + min(1.0, ad) * dza[bi] for bi in range(len(dims))]
            mu_aff = float(sum(np.vdot(xb, zb) for xb, zb in zip(xa, za))) / n_total
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # Corrector
            corr = [dxa[bi] @ dza[bi] for bi in range(len(dims))]
            dx, dy, dz = newton(sigma * mu, corr)
            ap = min(1.0, FRACTION_TO_BOUNDARY * max_step(dx, lx))
            ad = min(1.0, FRACTION_TO_BOUNDARY * max_step(dz, lz))
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

        x = [x[bi] + ap * dx[bi] for bi in range(len(dims))]
        z = [z[bi] + ad * dz[bi] for bi in range(len(dims))]
        y = y + ad * dy
        x = [(xb + xb.T) / 2 for xb in x]
        z = [(zb + zb.T) / 2 for zb in z]

    if status == "numerical-failure" and certified is not None:
        # The step broke down after an iterate already met the guarantees.
        x, y, z = certified
        status = "optimal"

    pv, dv, gap = values()
    p_res, d_res = residual_norms(*residuals())
    x_h = [_unembed(xb) for xb in x]
    z_h = [_unembed(zb) for zb in z]
    return SdpSolution(
        X=x_h,
        y=y.copy(),
        Z=z_h,
        primal_value=pv,
        dual_value=dv,
        gap=gap,
        status=status,
        iterations=it,
        primal_residual=p_res,
        dual_residual=d_res,
    )
