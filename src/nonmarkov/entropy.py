"""Divergences and entropies: relative entropy, Renyi and sandwiched Renyi
families, fidelity, conditional entropies, min/max entropies and the
operational quantities they exponentiate to.

All logarithms are base 2; entropies are reported in bits.  Every divergence
accepts plain positive-semidefinite matrices as well as state objects, and
the second argument may be subnormalized or unnormalized (e.g. I_A (x)
sigma_B).  Limits at alpha in {0, 1, inf} use closed formulas, never
numerical extrapolation.  A divergence is a ``float``, ``math.inf`` exactly
when its support rule fails: for alpha >= 1, when more than
``SUPPORT_LEAK_TOL`` of the first argument lies outside the second's
support; for alpha < 1, when the arguments are orthogonal.

The conditional min-entropy is one SDP with a single block,
max <rho_AB, X> over X >= 0 with Tr_A X = I_B (``min_entropy_program``), and
the max-entropy is -H_min(A|C) of the same program on a purification.  The
sandwiched conditional Renyi entropies between them come from one convex
descent that certifies its own bracket (``conditional_renyi``) and logs at
DEBUG on the ``nonmarkov.entropy`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, sdp, states
from .states import BipartiteState, DensityOperator

LN2 = math.log(2.0)

_log = logging.getLogger(__name__)

# Mass of the first argument outside the second argument's support beyond
# which the divergence is +inf.
SUPPORT_LEAK_TOL = 1e-9

# Trace values below this count as vanishing (orthogonal supports).
TINY_TRACE = 1e-30

# sigma_B descent of conditional_renyi at alpha > 1: it stops once the
# Frank-Wolfe bound is within OPT_TOL bits of the value, when no descent step
# is left, or after OPT_MAX_ITER trial steps.
OPT_TOL = 1e-7
OPT_MAX_ITER = 2000


@dataclass(frozen=True)
class EntropyBracket:
    """Certified interval lower <= H <= upper around an entropy; ``float``
    gives ``lower``.  Closed forms have lower == upper."""

    lower: float
    upper: float

    def __float__(self) -> float:
        return self.lower


def _as_psd(m) -> np.ndarray:
    """Coerce a state object or matrix to a Hermitian PSD matrix."""
    if isinstance(m, (DensityOperator, BipartiteState)):
        return m.matrix
    return linalg.check_psd(linalg.hermitize(linalg.as_matrix(m)))


def _psd_pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments of a divergence as PSD matrices of one shape."""
    r, s = _as_psd(rho), _as_psd(sigma)
    if r.shape != s.shape:
        raise ValueError("arguments must share dimensions")
    return r, s


def _leaks(r: np.ndarray, v: np.ndarray) -> bool:
    """Whether more than SUPPORT_LEAK_TOL * max(1, Tr r) of r lies outside
    the range of the isometry v."""
    tr = float(np.trace(r).real)
    inside = float(np.einsum("ij,ik,kj->", v.conj(), r, v).real)
    return tr - inside > SUPPORT_LEAK_TOL * max(1.0, tr)


def _power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """V diag(w)^p V+ for a support (w, V) of ``linalg.support``: the power
    on the support, zero on the kernel."""
    return (v * w**p) @ v.conj().T


def _log2_over(q: float, alpha: float) -> float:
    """log2(q) / (alpha - 1), or +inf when q vanishes (orthogonal supports)."""
    return math.log2(q) / (alpha - 1.0) if q >= TINY_TRACE else math.inf


def von_neumann_entropy(rho) -> float:
    """S(rho) = -Tr rho log2 rho."""
    return renyi_entropy(rho, 1.0)


def relative_entropy(rho, sigma) -> float:
    """Tr[rho (log rho - log sigma)] in bits; +inf outside sigma's support."""
    r, s = _psd_pair(rho, sigma)
    ws, vs = linalg.support(s)
    if _leaks(r, vs):
        return math.inf
    log_s = (vs * np.log2(ws)) @ vs.conj().T
    return -von_neumann_entropy(r) - float(np.trace(r @ log_s).real)


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Petz-Renyi divergence log2 Tr[rho^a sigma^(1-a)] / (a - 1).

    alpha = 0 and alpha = 1 use their closed limit formulas; alpha must be
    finite (the Petz family has no closed form at infinity).
    """
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and nonnegative")
    r, s = _psd_pair(rho, sigma)
    if alpha == 1.0:
        return relative_entropy(r, s)
    if alpha == 0.0:
        _, vr = linalg.support(r)
        return _log2_over(float(np.einsum("ij,ik,kj->", vr.conj(), s, vr).real), 0.0)
    ws, vs = linalg.support(s)
    if alpha > 1.0 and _leaks(r, vs):
        return math.inf
    q = float(np.trace(_power(*linalg.support(r), alpha) @ _power(ws, vs, 1.0 - alpha)).real)
    return _log2_over(q, alpha)


def renyi_entropy(rho, alpha: float) -> float:
    """S_a(rho) = log2 Tr[rho^a] / (1 - a), with limits at 0, 1, inf."""
    if not alpha >= 0:
        raise ValueError("alpha must be nonnegative")
    w, _ = linalg.support(_as_psd(rho))
    if alpha == 1.0:
        return float(-(w * np.log2(w)).sum())
    if alpha == 0.0:
        return float(math.log2(len(w)))
    if math.isinf(alpha):
        return float(-math.log2(w.max()))
    return float(math.log2(np.power(w, alpha).sum()) / (1.0 - alpha))


def sandwiched_divergence(rho, sigma, alpha: float) -> float:
    """log2 Tr[(sigma^c rho sigma^c)^a] / (a-1) with c = (1-a)/(2a).

    For a > 1 the first argument must live inside sigma's support; for
    a in (0, 1) the value is finite whenever the arguments are not
    orthogonal (the a = 1/2 case equals -2 log2 F and is finite for any
    non-orthogonal pair).  a = 1 is the relative entropy, a = inf the
    spectral max-divergence.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    r, s = _psd_pair(rho, sigma)
    if alpha == 1.0:
        return relative_entropy(r, s)
    ws, vs = linalg.support(s)
    if alpha > 1.0 and _leaks(r, vs):
        return math.inf
    if math.isinf(alpha):
        inv_sqrt = _power(ws, vs, -0.5)
        val = linalg.operator_norm(inv_sqrt @ r @ inv_sqrt)
        return math.log2(val) if val >= TINY_TRACE else math.inf
    sc = _power(ws, vs, (1.0 - alpha) / (2.0 * alpha))
    w, _ = linalg.support(sc @ r @ sc)
    return _log2_over(float(np.power(w, alpha).sum()), alpha)


def fidelity(rho, sigma) -> float:
    """F = || sqrt(rho) sqrt(sigma) ||_1 (in [0, 1] for two states)."""
    r, s = _psd_pair(rho, sigma)
    root_r, root_s = _power(*linalg.support(r), 0.5), _power(*linalg.support(s), 0.5)
    return float(np.linalg.svd(root_r @ root_s, compute_uv=False).sum())


def conditional_entropy(rho: BipartiteState) -> float:
    """H(A|B) = S(AB) - S(B) in bits."""
    s_ab = von_neumann_entropy(rho.matrix)
    s_b = von_neumann_entropy(states.partial_trace(rho, "A").matrix)
    return s_ab - s_b


# ---------------------------------------------------------------------------
# sigma_B optimization machinery (descent on the full-rank states)
# ---------------------------------------------------------------------------


def _dk_multipliers(s: np.ndarray, power: float) -> np.ndarray:
    """Divided differences of x^power on the spectrum (derivative of the
    matrix power in the eigenbasis)."""
    sf = np.maximum(s, linalg.support_cut(np.abs(s)))
    scale = np.maximum(np.abs(s), 1.0)
    diff = s[:, None] - s
    near = np.abs(diff) <= 1e-12 * np.maximum.outer(scale, scale)
    pw = sf**power
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(near, power * sf[:, None] ** (power - 1.0), (pw[:, None] - pw) / diff)


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
        mw, mu = linalg.support(big @ rho_mat @ big)
        # Powers of M / top stay within [0, 1] for any alpha: q = Tr (M/top)^a.
        top = float(mw[-1])
        q = float(np.power(mw / top, alpha).sum())
        f = (math.log2(q) + alpha * math.log2(top)) / (alpha - 1.0)
        # W = (M/top)^(alpha-1) on the support
        wmat = (mu * np.power(mw / top, alpha - 1.0)) @ mu.conj().T
        g1 = rho_mat @ big @ wmat
        gsum = g1 + g1.conj().T
        n_small = linalg.trace_out(gsum, (dA, dB), 0)
        n_tilde = u.conj().T @ n_small @ u
        phi = _dk_multipliers(w, c)
        grad_q = alpha * (u @ (phi * n_tilde) @ u.conj().T)
        grad = grad_q / (q * top * LN2 * (alpha - 1.0))
        return f, (grad + grad.conj().T) / 2

    return objective


def _frank_wolfe_bound(f, sigma, grad, alpha):
    """Lower bound on min D~_a (alpha > 1) from the value f and gradient at
    sigma: Q = 2^((a-1) f) is convex, so Q* >= Q (1 + ln2 (a-1) g) with the
    Frank-Wolfe gap g = lambda_min(grad) - <grad, sigma>.  -inf when that
    factor is not positive, or while lambda_min(sigma) sits at the clamp of
    ``_dk_multipliers``, below which the gradient is inexact."""
    w = np.linalg.eigvalsh(sigma)
    if w[0] <= linalg.support_cut(np.abs(w)):
        return -math.inf
    g = min(float(np.linalg.eigvalsh(grad)[0] - np.vdot(grad, sigma).real), 0.0)
    arg = 1.0 + LN2 * (alpha - 1.0) * g
    return f + math.log2(arg) / (alpha - 1.0) if arg > 0.0 else -math.inf


def _step_frame(sigma, grad):
    """(D, 1/lambda_max(G)) with G = grad - <grad, sigma> I and D = sigma^(1/2)
    G sigma^(1/2): traceless, a descent direction, and damped toward small
    eigenvalues of sigma, where the objective is steepest.  The trial
    sigma - t D = sigma^(1/2) (I - t G) sigma^(1/2) is Hermitian with the
    trace of sigma and, for full-rank sigma, positive definite exactly when
    t < 1/lambda_max(G) (inf when G has no positive eigenvalue)."""
    w, u = np.linalg.eigh(sigma)
    root = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
    g = grad - np.vdot(sigma, grad).real * np.eye(len(w))
    top = float(np.linalg.eigvalsh(g)[-1])
    return root @ g @ root, 1.0 / top if top > 0.0 else math.inf


def _conditional_descent(rho: BipartiteState, alpha: float):
    """(f, bound, trial steps) with bound <= min_sigma D~_a(rho_AB || I (x)
    sigma_B) <= f, alpha > 1.  The optimal sigma_B lives on supp rho_B, so one
    descent from rho_B, whose every evaluated trial is a full-rank state,
    runs on rho_AB conjugated by I (x) V, V the isometry onto that support;
    bound is the best Frank-Wolfe bound over every evaluated trial."""
    rho_b = states.partial_trace(rho, "A").matrix
    _, v_iso = linalg.support(rho_b)
    sigma = v_iso.conj().T @ rho_b @ v_iso
    sigma = (sigma + sigma.conj().T) / 2
    big_v = np.kron(np.eye(rho.dimA), v_iso)
    rho_r = big_v.conj().T @ rho.matrix @ big_v
    objective = _sandwich_conditional_objective(rho_r, rho.dimA, v_iso.shape[1], alpha)
    f, grad = objective(sigma)
    bound = _frank_wolfe_bound(f, sigma, grad, alpha)
    direction, limit = _step_frame(sigma, grad)
    step, steps = 1.0, 0
    while f - bound > OPT_TOL and step >= 1e-14 and steps < OPT_MAX_ITER:
        steps += 1
        trial = sigma - step * direction
        f_trial, grad_trial = objective(trial) if step < limit else (math.inf, None)
        if grad_trial is not None:
            bound = max(bound, _frank_wolfe_bound(f_trial, trial, grad_trial, alpha))
        if f_trial < f:
            sigma, f, grad = trial, f_trial, grad_trial
            direction, limit = _step_frame(sigma, grad)
            step = min(step * 1.6, 1e3)
        else:
            step *= 0.4
    return f, bound, steps


def conditional_renyi(rho: BipartiteState, alpha: float) -> EntropyBracket:
    """H~_a(A|B) = -inf_sigma D~_a(rho_AB || I_A (x) sigma_B), alpha >= 1/2,
    as a certified bracket lower <= H~_a <= upper; ``float`` gives lower.

    alpha = inf solves ``min_entropy_program``: lower is -D_max(rho || I (x)
    sigma) at the dual's sigma_B, normalized, and upper is -log2 <rho, X'> at
    the primal's X made feasible (clipped to PSD, divided by
    lambda_max(Tr_A X)).  alpha = 1/2 is -H_min(A|C) on a purification, so
    its bracket is the one of rho_AC, negated and swapped.  The primal
    values that ``h_min`` and ``h_max`` return lie within about 3e-11 of the
    X end.  alpha = 1 is ``conditional_entropy``, with lower == upper.  For alpha > 1 the
    objective is convex in sigma_B (Frank & Lieb 2013): one descent gives
    [-f, -bound].  For alpha in (1/2, 1), H~_a(A|B) = -H~_b(A|C) on a
    purification with b = a / (2a - 1) > 1 (Muller-Lennert et al. 2013), so
    the b-descent on the A:C marginal gives [bound, f].  For the descents
    upper - lower is the final gap: at most ``OPT_TOL`` unless the step
    underflows first, which leaves up to about 1.5e-6 at large alpha.
    """
    if not alpha >= 0.5:
        raise ValueError("alpha must be >= 1/2 for the conditional family")
    programs = {0.5: ("h_max", _h_max_bracket), math.inf: ("h_min", _h_min_bracket)}
    if alpha in programs:
        route, bracket_of = programs[alpha]
        bracket, steps = bracket_of(rho), 0
    elif alpha == 1.0:
        value = conditional_entropy(rho)
        route, bracket, steps = "conditional_entropy", EntropyBracket(value, value), 0
    elif alpha > 1.0:
        f, bound, steps = _conditional_descent(rho, alpha)
        route, bracket = "descent", EntropyBracket(-f, -bound)
    else:
        beta = alpha / (2.0 * alpha - 1.0)
        f, bound, steps = _conditional_descent(states.purify(rho).marginal_ac(), beta)
        route, bracket = f"duality, descent at beta={beta:.6g}", EntropyBracket(bound, f)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("conditional_renyi alpha=%.6g: %s, steps=%d, gap=%.3g",
                   alpha, route, steps, bracket.upper - bracket.lower)
    return bracket


# ---------------------------------------------------------------------------
# Min- and max-entropy (semidefinite programs)
# ---------------------------------------------------------------------------


def min_entropy_program(rho: BipartiteState) -> sdp.SdpProblem:
    """max <rho_AB, X>  s.t.  Tr_A X = I_B, X >= 0  (value = 2^-Hmin).

    One block of size d_A d_B and one row <I_A (x) h, X> = Tr h for each h
    in ``hermitian_basis(d_B)``, so m = d_B^2.  X = I / d_A and the dual
    slack I_A (x) c I_B - rho, c > lambda_max(rho), are strictly feasible at
    any rank, so nothing is pinned to a support.
    """
    h = sdp.hermitian_basis(rho.dimB)
    a = np.kron(np.eye(rho.dimA), h)
    return sdp.SdpProblem(C=[rho.matrix], A=[a], b=np.trace(h, axis1=1, axis2=2).real)


def h_min(rho: BipartiteState) -> float:
    """Conditional min-entropy -log2 of the primal value of
    ``min_entropy_program``."""
    sol = sdp.solve_optimal(min_entropy_program(rho), "min-entropy")
    return float(-math.log2(sol.primal_value))


def h_max(rho: BipartiteState) -> float:
    """Conditional max-entropy log2 max_sigma F(rho_AB, I_A (x) sigma_B)^2
    over subnormalized sigma_B (the exponent convention making the
    min/max duality and the decoupling identity hold), as -H_min(A|C) on a
    purification (Konig, Renner & Schaffner 2009): log2 of the primal value
    of the min-entropy program of rho_AC, with d_C = rank rho."""
    ac = states.purify(rho).marginal_ac()
    sol = sdp.solve_optimal(min_entropy_program(ac), "min-entropy")
    return float(math.log2(sol.primal_value))


def _h_min_bracket(rho: BipartiteState) -> EntropyBracket:
    """H_min = max_sigma -D_max(rho || I (x) sigma) between the value at the
    dual's sigma_B = Tr_A(Z + rho), normalized, and -log2 <rho, X'> at the
    primal's X clipped to PSD and divided by lambda_max(Tr_A X), which is
    feasible for Tr_A X' <= I_B and so bounds 2^-Hmin from below."""
    sol = sdp.solve_optimal(min_entropy_program(rho), "min-entropy")
    dims = (rho.dimA, rho.dimB)
    w, u = np.linalg.eigh(sol.X[0])
    x = (u * np.maximum(w, 0.0)) @ u.conj().T
    scale = float(np.linalg.eigvalsh(linalg.trace_out(x, dims, 0))[-1])
    upper = -math.log2(float(np.vdot(x, rho.matrix).real) / scale)
    sigma = linalg.trace_out(sol.Z[0] + rho.matrix, dims, 0)
    sigma /= float(np.trace(sigma).real)
    lower = -sandwiched_divergence(rho, np.kron(np.eye(rho.dimA), sigma), math.inf)
    return EntropyBracket(lower, upper)


def _h_max_bracket(rho: BipartiteState) -> EntropyBracket:
    """H_max(A|B) = -H_min(A|C): the negated, swapped bracket of the A:C
    marginal of a purification."""
    bracket = _h_min_bracket(states.purify(rho).marginal_ac())
    return EntropyBracket(-bracket.upper, -bracket.lower)


def q_corr(rho: BipartiteState) -> float:
    """Largest overlap with the maximally entangled state reachable by a
    channel on B, times dim A; evaluates 2^(-Hmin).
    """
    if rho.dimA > rho.dimB:
        raise ValueError("q_corr needs dimA <= dimB")
    return float(2.0 ** (-h_min(rho)))


def q_decpl(rho: BipartiteState) -> float:
    """Decoupling accuracy d_A max_sigma F(rho, I/d_A (x) sigma)^2 = 2^Hmax."""
    return float(2.0 ** h_max(rho))
