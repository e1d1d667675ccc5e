"""Self-contained dense semidefinite-program solver for Hermitian
block-diagonal programs.

Standard form (sense "min"):

    minimize   <C, X>
    subject to <A_i, X> = b_i   (i = 1..m),   X >= 0 (block diagonal)

with Hermitian C, A_i and <A, B> = Tr(A B).  "max" negates the objective
internally.

Constraint data is stacked: ``SdpProblem`` keeps block k of all m
constraints as one (m, n_k, n_k) array ``A[k]`` and the right-hand sides as
the vector ``b``.  ``solve`` embeds each Hermitian stack once into real
symmetric blocks of doubled dimension, so the Gram independence check,
A(X), A^T(y), the Schur complement and the Newton right-hand side are one
matrix product per block.  The iteration is primal-dual path-following (HKM
direction, Mehrotra predictor-corrector, fraction-to-boundary 0.98) from an
identity-scaled start; Cholesky failures of the Schur complement retry with
escalating regularization.

An "optimal" solution meets feasibility 1e-8 * max(1, |b_i|), normalised
dual residual 1e-8 and gap 1e-8 * (1 + |primal|); the exit tests aim below
these guarantees.  The solver remembers the latest iterate that meets them
and returns it as "optimal", with its own residuals and gap, if the
iteration then ends in "numerical-failure": near the boundary the last bits
of a step decide whether the gap settles above the exit tests' -1e-10 floor
before a step breaks down.  The guarantees are the same for every "optimal"
solution, fallback or not.  Everything is deterministic: identical problems
produce identical iterate sequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_ITER = 200
FRACTION_TO_BOUNDARY = 0.98

# Advertised solution guarantees: feasibility GUARANTEE * max(1, |b_i|),
# normalised dual residual GUARANTEE, gap GUARANTEE * (1 + |primal|).
GUARANTEE = 1e-8

# Exit thresholds aimed below the guarantees.
TOL_GAP = 1e-9
TOL_FEAS = 1e-10

# Residual stagnation/divergence window for infeasibility reporting.
DIVERGE_WINDOW = 30


class SdpError(RuntimeError):
    """Solve aborted: returned status was not usable by the caller."""


@dataclass(frozen=True)
class SdpProblem:
    """Hermitian block-diagonal SDP in standard form.

    ``constraints`` is given as [(list_of_blocks, b_i), ...].  Validation
    stacks it: ``A[k]`` holds block k of every constraint as an
    (m, n_k, n_k) array and ``b`` the right-hand sides; ``constraints`` then
    lists views into those stacks.
    """

    blocks: list
    C: list
    constraints: list
    sense: str = "min"
    A: list = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if not self.blocks or any(n < 1 for n in self.blocks):
            raise ValueError("block dimensions must be positive")
        if len(self.C) != len(self.blocks):
            raise ValueError("objective must provide one block per block dimension")
        if not self.constraints:
            raise ValueError("the solver requires at least one constraint")
        if any(len(ab) != len(self.blocks) for ab, _ in self.constraints):
            raise ValueError("constraint must provide one block per block dimension")
        per_block = zip(*(ab for ab, _ in self.constraints))
        a = [_herm_stack(s, n) for s, n in zip(per_block, self.blocks)]
        b = np.array([float(bi) for _, bi in self.constraints])
        object.__setattr__(self, "C", [_herm_stack([c], n)[0] for c, n in zip(self.C, self.blocks)])
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "constraints", list(zip(map(list, zip(*a)), b.tolist())))

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
                "A": [[enc(a) for a in ab] for ab, _ in self.constraints],
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
            constraints=[
                (list(map(dec, ab)), b) for ab, b in zip(doc["A"], doc["b"])
            ],
            sense=doc.get("sense", "min"),
        )


def _herm_stack(mats, n: int) -> np.ndarray:
    """Check a sequence of n x n blocks for finiteness and Hermiticity within
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


def hermitian_basis(dim: int) -> list:
    """Orthogonal (unnormalized) basis of dim x dim Hermitian matrices.

    dim^2 elements: diagonal units, symmetric pairs, antisymmetric pairs.
    Used to turn a Hermitian operator equality into real scalar constraints.
    """
    out = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=np.complex128)
        e[i, i] = 1.0
        out.append(e)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=np.complex128)
            e[i, j] = 1.0
            e[j, i] = 1.0
            out.append(e)
            f = np.zeros((dim, dim), dtype=np.complex128)
            f[i, j] = 1j
            f[j, i] = -1j
            out.append(f)
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


def solve(problem: SdpProblem, max_iter: int = DEFAULT_MAX_ITER,
          tol_gap: float = TOL_GAP, tol_feas: float = TOL_FEAS) -> SdpSolution:
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
        return pv, dv

    def residuals():
        rp = b - a_op(x)
        aty = at_op(y)
        rd = [cb - zb - ab for cb, zb, ab in zip(c_blocks, z, aty)]
        return rp, rd

    def herm_feas(rp):
        # per-constraint residual on the Hermitian (non-doubled) scale
        return float(np.max(np.abs(rp) / 2.0 / np.maximum(1.0, np.abs(b) / 2.0)))

    status = "max_iter"
    it = 0
    res_history = []
    certified = None
    for it in range(1, max_iter + 1):
        rp, rd = residuals()
        mu = float(sum(np.vdot(xb, zb) for xb, zb in zip(x, z))) / n_total
        pv, dv = values()
        gap = (pv - dv) if problem.sense == "min" else (dv - pv)
        p_res = herm_feas(rp)
        d_res = max(float(np.abs(r).max(initial=0.0)) for r in rd) / max(1.0, c_norm)
        res_history.append(p_res + d_res)

        if (
            p_res <= GUARANTEE * 0.1
            and d_res <= GUARANTEE * 0.1
            and abs(gap) <= tol_gap * (1.0 + abs(pv))
            and gap >= -1e-10
        ) or (
            p_res <= tol_feas and d_res <= tol_feas and gap <= tol_gap * (1.0 + abs(pv)) and gap >= -1e-10
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
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break
        zinv = []
        ok = True
        for zb in z:
            try:
                lz = np.linalg.cholesky(zb)
            except np.linalg.LinAlgError:
                ok = False
                break
            inv_l = np.linalg.inv(lz)
            zinv.append(inv_l.T @ inv_l)
        if not ok:
            status = "numerical-failure"
            break

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

        def max_step(mats, dmats, chols):
            alpha = 1.0
            for bi in range(len(dims)):
                w = np.linalg.solve(chols[bi], dmats[bi])
                w = np.linalg.solve(chols[bi], w.T).T
                lam = float(np.linalg.eigvalsh((w + w.T) / 2)[0])
                if lam < -1e-14:
                    alpha = min(alpha, -1.0 / lam)
            return alpha

        try:
            lz_chols = [np.linalg.cholesky(zb) for zb in z]

            # Predictor
            dxa, dya, dza = newton(0.0, None)
            ap = max_step(x, dxa, lx)
            ad = max_step(z, dza, lz_chols)
            xa = [x[bi] + min(1.0, ap) * dxa[bi] for bi in range(len(dims))]
            za = [z[bi] + min(1.0, ad) * dza[bi] for bi in range(len(dims))]
            mu_aff = float(sum(np.vdot(xb, zb) for xb, zb in zip(xa, za))) / n_total
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # Corrector
            corr = [dxa[bi] @ dza[bi] for bi in range(len(dims))]
            dx, dy, dz = newton(sigma * mu, corr)
            ap = min(1.0, FRACTION_TO_BOUNDARY * max_step(x, dx, lx))
            ad = min(1.0, FRACTION_TO_BOUNDARY * max_step(z, dz, lz_chols))
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

    rp, rd = residuals()
    pv, dv = values()
    gap = (pv - dv) if problem.sense == "min" else (dv - pv)
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
        primal_residual=herm_feas(rp),
        dual_residual=max(float(np.abs(r).max(initial=0.0)) for r in rd),
    )
