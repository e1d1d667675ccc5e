"""Divergences and entropies: relative entropy, Renyi and sandwiched Renyi
families, fidelity, conditional entropies, min/max entropies and the
operational quantities they exponentiate to.

All logarithms are base 2; entropies are reported in bits.  Every divergence
accepts plain positive-semidefinite matrices as well as state objects, and
the second argument may be subnormalized or unnormalized (e.g. I_A (x)
sigma_B).  Limits at alpha in {0, 1, inf} use closed formulas, never
numerical extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, maps, sdp, states
from .sdp import SdpError
from .states import BipartiteState, DensityOperator

LN2 = math.log(2.0)

# Mass of the first argument outside the second argument's support beyond
# which the divergence is +inf.
SUPPORT_LEAK_TOL = 1e-9

# Trace values below this count as vanishing (orthogonal supports).
TINY_TRACE = 1e-30

# sigma_B optimizations: multistart projected gradient descent.
OPT_RESTARTS = 16
OPT_TOL = 1e-7
OPT_MAX_ITER = 2000


@dataclass(frozen=True)
class DivergenceValue:
    """Scalar divergence; +inf if and only if the support rule was violated."""

    value: float
    support_violated: bool

    def __post_init__(self):
        if math.isinf(self.value) != self.support_violated:
            raise ValueError("value is +inf exactly when the support rule fails")

    def __float__(self) -> float:
        return self.value


def _finite(v: float) -> DivergenceValue:
    return DivergenceValue(float(v), False)


_INFINITE = DivergenceValue(math.inf, True)


def _as_psd(m, tol: float = 1e-9) -> np.ndarray:
    """Coerce a state object or matrix to a Hermitian PSD matrix."""
    if isinstance(m, DensityOperator):
        return m.matrix
    if isinstance(m, BipartiteState):
        return m.matrix
    a = linalg.hermitize(m)
    w = np.linalg.eigvalsh(a)
    if w[0] < -tol * max(1.0, float(w[-1])):
        raise ValueError(f"matrix is not positive semidefinite (min eig {w[0]:.3e})")
    return a


def _support_leak(rho: np.ndarray, sigma_dec: linalg.HermEig) -> float:
    """Mass of rho outside the support of sigma."""
    cut = linalg.support_cut(sigma_dec.eigenvalues)
    kernel_cols = sigma_dec.eigenvectors[:, sigma_dec.eigenvalues <= cut]
    if kernel_cols.shape[1] == 0:
        return 0.0
    return float(np.einsum("ij,ik,kj->", kernel_cols.conj(), rho, kernel_cols).real)


def _pseudo_power(dec: linalg.HermEig, p: float) -> np.ndarray:
    """Spectral power on the support; kernel maps to zero."""
    w = dec.eigenvalues
    cut = linalg.support_cut(w)
    fw = np.where(w > cut, np.power(np.maximum(w, cut), p), 0.0)
    u = dec.eigenvectors
    out = (u * fw) @ u.conj().T
    return (out + out.conj().T) / 2


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho."""
    w = np.linalg.eigvalsh(_as_psd(rho))
    cut = linalg.support_cut(w)
    w = w[w > cut]
    return float(-(w * np.log2(w)).sum())


def relative_entropy(rho, sigma) -> DivergenceValue:
    """Tr[rho (log rho - log sigma)] in bits; +inf outside sigma's support."""
    r = _as_psd(rho)
    s = _as_psd(sigma)
    if r.shape != s.shape:
        raise ValueError("arguments must share dimensions")
    sdec = linalg.eigh(s)
    if _support_leak(r, sdec) > SUPPORT_LEAK_TOL * max(1.0, float(np.trace(r).real)):
        return _INFINITE
    rw = np.linalg.eigvalsh(r)
    cut = linalg.support_cut(rw)
    rw = rw[rw > cut]
    term1 = float((rw * np.log2(rw)).sum())
    log_s = _pseudo_spectral_log2(sdec)
    term2 = float(np.trace(r @ log_s).real)
    return _finite(term1 - term2)


def _pseudo_spectral_log2(dec: linalg.HermEig) -> np.ndarray:
    w = dec.eigenvalues
    cut = linalg.support_cut(w)
    fw = np.where(w > cut, np.log2(np.maximum(w, cut)), 0.0)
    u = dec.eigenvectors
    out = (u * fw) @ u.conj().T
    return (out + out.conj().T) / 2


def renyi_divergence(rho, sigma, alpha: float) -> DivergenceValue:
    """Petz-Renyi divergence log2 Tr[rho^a sigma^(1-a)] / (a - 1).

    alpha = 0 and alpha = 1 use their closed limit formulas; alpha must be
    finite (the Petz family has no closed form at infinity).
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    r = _as_psd(rho)
    s = _as_psd(sigma)
    if r.shape != s.shape:
        raise ValueError("arguments must share dimensions")
    if alpha == 1.0:
        return relative_entropy(r, s)
    rdec = linalg.eigh(r)
    sdec = linalg.eigh(s)
    if alpha == 0.0:
        proj = _pseudo_power(rdec, 0.0)  # support projector
        q = float(np.trace(proj @ s).real)
        if q < TINY_TRACE:
            return _INFINITE
        return _finite(-math.log2(q))
    if alpha > 1.0:
        if _support_leak(r, sdec) > SUPPORT_LEAK_TOL * max(1.0, float(np.trace(r).real)):
            return _INFINITE
    ra = _pseudo_power(rdec, alpha)
    s1a = _pseudo_power(sdec, 1.0 - alpha)
    q = float(np.trace(ra @ s1a).real)
    if q < TINY_TRACE:
        return _INFINITE
    return _finite(math.log2(q) / (alpha - 1.0))


def renyi_entropy(rho, alpha: float) -> float:
    """S_a(rho) = log2 Tr[rho^a] / (1 - a), with limits at 0, 1, inf."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    w = np.linalg.eigvalsh(_as_psd(rho))
    cut = linalg.support_cut(w)
    w = w[w > cut]
    if alpha == 1.0:
        return float(-(w * np.log2(w)).sum())
    if alpha == 0.0:
        return float(math.log2(len(w)))
    if math.isinf(alpha):
        return float(-math.log2(w.max()))
    return float(math.log2(np.power(w, alpha).sum()) / (1.0 - alpha))


def sandwiched_divergence(rho, sigma, alpha: float) -> DivergenceValue:
    """log2 Tr[(sigma^c rho sigma^c)^a] / (a-1) with c = (1-a)/(2a).

    For a > 1 the first argument must live inside sigma's support; for
    a in (0, 1) the value is finite whenever the arguments are not
    orthogonal (the a = 1/2 case equals -2 log2 F and is finite for any
    non-orthogonal pair).  a = 1 is the relative entropy, a = inf the
    spectral max-divergence.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    r = _as_psd(rho)
    s = _as_psd(sigma)
    if r.shape != s.shape:
        raise ValueError("arguments must share dimensions")
    if alpha == 1.0:
        return relative_entropy(r, s)
    sdec = linalg.eigh(s)
    if alpha > 1.0 and _support_leak(r, sdec) > SUPPORT_LEAK_TOL * max(
        1.0, float(np.trace(r).real)
    ):
        return _INFINITE
    if math.isinf(alpha):
        inv_sqrt = _pseudo_power(sdec, -0.5)
        val = linalg.operator_norm(inv_sqrt @ r @ inv_sqrt)
        if val < TINY_TRACE:
            return _INFINITE
        return _finite(math.log2(val))
    c = (1.0 - alpha) / (2.0 * alpha)
    sc = _pseudo_power(sdec, c)
    m = sc @ r @ sc
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    cut = linalg.support_cut(w)
    w = w[w > cut]
    q = float(np.power(w, alpha).sum()) if w.size else 0.0
    if q < TINY_TRACE:
        return _INFINITE
    return _finite(math.log2(q) / (alpha - 1.0))


def pinched_approximation(rho, sigma, alpha: float, n: int) -> float:
    """(1/n) D_a(pinch(sigma^n, rho^n) || sigma^n) on n-fold tensor powers."""
    r = _as_psd(rho)
    s = _as_psd(sigma)
    d = r.shape[0]
    if n < 1 or d**n > 64:
        raise ValueError("tensor power out of desk scale (need dim^n <= 64)")
    rn, sn = r.copy(), s.copy()
    for _ in range(n - 1):
        rn = np.kron(rn, r)
        sn = np.kron(sn, s)
    pinched = states.pinch(DensityOperator(sn / np.trace(sn).real), rn)
    return float(renyi_divergence(pinched, sn, alpha)) / n


def fidelity(rho, sigma) -> float:
    """F = || sqrt(rho) sqrt(sigma) ||_1 (in [0, 1] for two states)."""
    r = _as_psd(rho)
    s = _as_psd(sigma)
    if r.shape != s.shape:
        raise ValueError("arguments must share dimensions")
    sr = _pseudo_power(linalg.eigh(r), 0.5)
    ss = _pseudo_power(linalg.eigh(s), 0.5)
    return float(np.linalg.svd(sr @ ss, compute_uv=False).sum())


def conditional_entropy(rho: BipartiteState) -> float:
    """H(A|B) = S(AB) - S(B) in bits."""
    s_ab = von_neumann_entropy(rho.matrix)
    s_b = von_neumann_entropy(states.partial_trace(rho, "A").matrix)
    return s_ab - s_b


# ---------------------------------------------------------------------------
# sigma_B optimization machinery (projected gradient on the state simplex)
# ---------------------------------------------------------------------------


def _project_simplex(w: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(w)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(w) + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    tau = css[k - 1] / k
    return np.maximum(w - tau, 0.0)


def _project_density(h: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Project a Hermitian matrix onto full-rank density matrices."""
    h = (h + h.conj().T) / 2
    w, u = np.linalg.eigh(h)
    p = _project_simplex(w)
    out = (u * p) @ u.conj().T
    d = h.shape[0]
    out = (1.0 - d * floor) * out + floor * np.eye(d)
    return (out + out.conj().T) / 2


def _dk_multipliers(s: np.ndarray, power: float) -> np.ndarray:
    """Divided differences of x^power on the spectrum (derivative of the
    matrix power in the eigenbasis)."""
    cut = linalg.support_cut(np.abs(s))
    sf = np.maximum(s, cut)
    n = len(s)
    phi = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if abs(s[i] - s[j]) > 1e-12 * max(1.0, abs(s[i]), abs(s[j])):
                phi[i, j] = (sf[i] ** power - sf[j] ** power) / (s[i] - s[j])
            else:
                phi[i, j] = power * sf[i] ** (power - 1.0)
    return phi


def _pgd_minimize(objective, dim_b: int, restarts: int, seed, tol: float,
                  max_iter: int, first_converged: bool, warm_starts=()):
    """Multistart projected gradient descent over dB x dB density matrices.

    objective(sigma) -> (f, grad) with grad a Hermitian matrix.  Returns the
    best (f, sigma) found.
    """
    rng = np.random.default_rng(seed)
    starts = list(warm_starts)
    while len(starts) < max(restarts, len(warm_starts)):
        g = rng.standard_normal((dim_b, dim_b)) + 1j * rng.standard_normal((dim_b, dim_b))
        m = g @ g.conj().T
        starts.append(m / np.trace(m).real)
    best_f, best_sigma = math.inf, None
    for start in starts:
        sigma = _project_density(np.asarray(start, dtype=np.complex128))
        f, grad = objective(sigma)
        step = 1.0
        for _ in range(max_iter):
            trial = _project_density(sigma - step * grad)
            f_trial, grad_trial = objective(trial)
            if f_trial < f - 1e-14:
                converged = abs(f - f_trial) <= tol * max(1.0, abs(f_trial))
                sigma, f, grad = trial, f_trial, grad_trial
                step = min(step * 1.6, 1e3)
                if converged:
                    break
            else:
                step *= 0.4
                if step < 1e-14:
                    break
        if f < best_f:
            best_f, best_sigma = f, sigma
        if first_converged and best_f < math.inf:
            break
    return best_f, best_sigma


def _sandwich_conditional_objective(rho_mat, dA, dB, alpha):
    """Objective sigma -> D~_a(rho_AB || I_A (x) sigma) with its gradient."""
    c = (1.0 - alpha) / (2.0 * alpha)
    eye_a = np.eye(dA)

    def objective(sigma):
        w, u = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        cut = linalg.support_cut(w)
        wf = np.maximum(w, cut)
        sc_small = (u * np.power(wf, c)) @ u.conj().T
        big = np.kron(eye_a, sc_small)
        m = big @ rho_mat @ big
        m = (m + m.conj().T) / 2
        mw, mu = np.linalg.eigh(m)
        mcut = linalg.support_cut(mw)
        sup = mw > mcut
        q = float(np.power(mw[sup], alpha).sum())
        f = math.log2(q) / (alpha - 1.0)
        # W = M^(alpha-1) on the support
        pw = np.where(sup, np.power(np.maximum(mw, mcut), alpha - 1.0), 0.0)
        wmat = (mu * pw) @ mu.conj().T
        g1 = rho_mat @ big @ wmat
        gsum = g1 + g1.conj().T
        n_small = np.einsum("aiaj->ij", gsum.reshape(dA, dB, dA, dB))
        n_tilde = u.conj().T @ n_small @ u
        phi = _dk_multipliers(w, c)
        grad_q = alpha * (u @ (phi * n_tilde) @ u.conj().T)
        grad = grad_q / (q * LN2 * (alpha - 1.0))
        return f, (grad + grad.conj().T) / 2

    return objective


def conditional_renyi(rho: BipartiteState, alpha: float, restarts: int = OPT_RESTARTS,
                      seed: int = 0, tol: float = OPT_TOL) -> float:
    """H~_a(A|B) = -inf_sigma D~_a(rho_AB || I_A (x) sigma_B), alpha >= 1/2.

    alpha = inf delegates to the min-entropy program.  The infimum is taken
    by multistart projected gradient descent; for alpha > 1 the problem is
    convex in sigma and the first converged start is accepted.
    """
    if not alpha >= 0.5:
        raise ValueError("alpha must be >= 1/2 for the conditional family")
    if math.isinf(alpha):
        return h_min(rho)
    if alpha == 1.0:
        return conditional_entropy(rho)
    objective = _sandwich_conditional_objective(rho.matrix, rho.dimA, rho.dimB, alpha)
    warm = [states.partial_trace(rho, "A").matrix]
    best_f, _ = _pgd_minimize(
        objective, rho.dimB, restarts, seed, tol, OPT_MAX_ITER,
        first_converged=alpha > 1.0, warm_starts=warm,
    )
    return -best_f


# ---------------------------------------------------------------------------
# Min- and max-entropy (semidefinite programs)
# ---------------------------------------------------------------------------


def _solve_or_raise(problem: sdp.SdpProblem) -> sdp.SdpSolution:
    sol = sdp.solve(problem)
    if not sol.optimal:
        raise SdpError(f"SDP solver returned status {sol.status!r}")
    return sol


def min_entropy_program(rho: BipartiteState) -> sdp.SdpProblem:
    """min Tr sigma_B  s.t.  I_A (x) sigma_B >= rho_AB  (value = 2^-Hmin)."""
    dA, dB = rho.dimA, rho.dimB
    d = dA * dB
    zero_d = np.zeros((d, d), dtype=complex)
    h = sdp.hermitian_basis(d)
    tr_a = np.einsum("kaiaj->kij", h.reshape(-1, dA, dB, dA, dB))
    b = -np.einsum("kij,ji->k", h, rho.matrix).real
    c = [zero_d, np.eye(dB, dtype=complex)]
    return sdp.SdpProblem(blocks=[d, dB], C=c, A=[h, -tr_a], b=b, sense="min")


def h_min(rho: BipartiteState) -> float:
    """Conditional min-entropy via the operator-bound program."""
    sol = _solve_or_raise(min_entropy_program(rho))
    return float(-math.log2(sol.primal_value))


def h_min_direct(rho: BipartiteState, restarts: int = OPT_RESTARTS, seed: int = 0) -> float:
    """Cross-check: -log2 min_sigma ||(I (x) s^-1/2) rho (I (x) s^-1/2)||_inf.

    Minimizing the sandwiched operator norm over sigma_B reproduces the
    operator-bound program's value.
    """
    dA, dB = rho.dimA, rho.dimB
    eye_a = np.eye(dA)
    rho_mat = rho.matrix

    def objective(sigma):
        w, u = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        cut = linalg.support_cut(w)
        wf = np.maximum(w, cut)
        p_small = (u * np.power(wf, -0.5)) @ u.conj().T
        big = np.kron(eye_a, p_small)
        m = big @ rho_mat @ big
        m = (m + m.conj().T) / 2
        mw, mu = np.linalg.eigh(m)
        lam = float(mw[-1])
        v = mu[:, -1]
        vv = np.outer(v, v.conj())
        g1 = rho_mat @ big @ vv
        gsum = g1 + g1.conj().T
        n_small = np.einsum("aiaj->ij", gsum.reshape(dA, dB, dA, dB))
        n_tilde = u.conj().T @ n_small @ u
        phi = _dk_multipliers(w, -0.5)
        grad = u @ (phi * n_tilde) @ u.conj().T
        return lam, (grad + grad.conj().T) / 2

    warm = [states.partial_trace(rho, "A").matrix]
    best, _ = _pgd_minimize(objective, dB, restarts, seed, 1e-9, OPT_MAX_ITER,
                            first_converged=False, warm_starts=warm)
    return float(-math.log2(best))


def _fidelity_program(rho_mat: np.ndarray, dA: int, dB: int, scale: float) -> sdp.SdpProblem:
    """max Re Tr X s.t. [[rho, X], [X+, scale * I_A (x) sigma]] >= 0,
    sigma >= 0 subnormalized; value = max_sigma F(rho, scale I (x) sigma).

    The pinned rho block is restricted to its support (through the support
    isometry), which keeps the primal strictly feasible when rho is
    rank-deficient without changing the optimum.
    """
    d = dA * dB
    dec = linalg.eigh(rho_mat)
    cut = linalg.support_cut(dec.eigenvalues)
    v_iso = dec.eigenvectors[:, dec.eigenvalues > cut]  # d x r
    rho_r = v_iso.conj().T @ rho_mat @ v_iso
    r = rho_r.shape[0]
    big = r + d
    zero_b = np.zeros((dB, dB), dtype=complex)
    zero_s = np.zeros((1, 1), dtype=complex)
    h_r, h_d = sdp.hermitian_basis(r), sdp.hermitian_basis(d)
    m = r * r + d * d + 1
    a_big = np.zeros((m, big, big), dtype=complex)
    a_b = np.zeros((m, dB, dB), dtype=complex)
    a_s = np.zeros((m, 1, 1), dtype=complex)
    b = np.zeros(m)
    # rows [0, r^2): top-left block pinned to the support-restricted rho
    a_big[: r * r, :r, :r] = h_r
    b[: r * r] = np.einsum("kij,ji->k", h_r, rho_r).real
    # rows [r^2, m - 1): bottom-right block equals scale * I_A (x) sigma
    a_big[r * r : -1, r:, r:] = h_d
    a_b[r * r : -1] = -scale * np.einsum("kaiaj->kij", h_d.reshape(-1, dA, dB, dA, dB))
    # last row, subnormalization: Tr sigma + slack = 1
    a_b[-1] = np.eye(dB)
    a_s[-1] = 1.0
    b[-1] = 1.0
    # objective Re Tr(V X~) where X~ is the (support x full) off-diagonal block
    c_big = np.zeros((big, big), dtype=complex)
    c_big[:r, r:] = v_iso.conj().T / 2
    c_big[r:, :r] = v_iso / 2
    return sdp.SdpProblem(
        blocks=[big, dB, 1], C=[c_big, zero_b, zero_s], A=[a_big, a_b, a_s], b=b, sense="max"
    )


def h_max(rho: BipartiteState) -> float:
    """Conditional max-entropy log2 max_sigma F(rho_AB, I_A (x) sigma_B)^2
    over subnormalized sigma_B (the exponent convention making the
    min/max duality and the decoupling identity hold)."""
    sol = _solve_or_raise(_fidelity_program(rho.matrix, rho.dimA, rho.dimB, 1.0))
    f = sol.primal_value
    return float(2.0 * math.log2(max(f, TINY_TRACE)))


def q_corr(rho: BipartiteState) -> float:
    """Largest overlap with the maximally entangled state reachable by a
    channel on B, times dim A; evaluates 2^(-Hmin).

    ``q_corr_channel_route`` solves the channel optimization directly.
    """
    if rho.dimA > rho.dimB:
        raise ValueError("q_corr needs dimA <= dimB")
    return float(2.0 ** (-h_min(rho)))


def q_corr_channel_route(rho: BipartiteState) -> float:
    """max Tr[J conj(rho)] over Choi matrices of channels B -> A."""
    dA, dB = rho.dimA, rho.dimB
    d = dA * dB
    h = sdp.hermitian_basis(dB)
    a = np.kron(np.eye(dA, dtype=complex), h)  # I_A (x) h for every h
    c = rho.matrix.conj()
    prob = sdp.SdpProblem(
        blocks=[d], C=[c], A=[a], b=np.trace(h, axis1=1, axis2=2).real, sense="max"
    )
    sol = _solve_or_raise(prob)
    return float(sol.primal_value)


def q_decpl(rho: BipartiteState) -> float:
    """Decoupling accuracy d_A max_sigma F(rho, I/d_A (x) sigma)^2 = 2^Hmax."""
    sol = _solve_or_raise(
        _fidelity_program(rho.matrix, rho.dimA, rho.dimB, 1.0 / rho.dimA)
    )
    return float(rho.dimA * sol.primal_value**2)
