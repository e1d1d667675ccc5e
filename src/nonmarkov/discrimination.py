"""State and channel discrimination: the two-state closed form, guessing
probability as a semidefinite program, ancilla-assisted channel guessing,
ancilla-graded channel distances, the diamond norm, the completely-bounded
norm consistency check, the bipartite square norm, and operational fidelity.

Outer nonconvex maximizations (input states, square-norm sandwich factors)
are multistart local ascents reporting best-found lower bounds; the
semidefinite solves (guessing, diamond norm) additionally carry matching
dual certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import _accel, entropy, linalg, maps, sdp, states
from .maps import QuantumMap
from .sdp import SdpError
from .states import Povm, StateEnsemble


def helstrom_guess(p1: float, rho1, rho2) -> float:
    """Optimal two-state guess (1 + ||p1 rho1 - p2 rho2||_1) / 2."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    r1 = entropy._as_psd(rho1)
    r2 = entropy._as_psd(rho2)
    return 0.5 * (1.0 + linalg.trace_norm(p1 * r1 - (1.0 - p1) * r2))


@dataclass(frozen=True)
class GuessResult:
    value: float
    povm: Povm
    sdp_value: float


def guessing_program(ens: StateEnsemble) -> sdp.SdpProblem:
    """max sum_i p_i <rho_i, E_i>  s.t.  sum_i E_i = I, E_i >= 0."""
    n, d = ens.size, ens.dim
    h = sdp.hermitian_basis(d)
    c = [p * s.matrix for p, s in zip(ens.probs, ens.states)]
    return sdp.SdpProblem(
        blocks=[d] * n, C=c, A=[h] * n, b=np.trace(h, axis1=1, axis2=2).real, sense="max"
    )


def p_guess(ens: StateEnsemble) -> GuessResult:
    """Guessing probability with an explicitly feasible POVM.

    The solver's POVM is projected to exact feasibility (eigenvalue clip and
    symmetric normalization); the reported value is what that projected POVM
    achieves.
    """
    if ens.size < 2:
        raise ValueError("need at least two states to discriminate")
    sol = sdp.solve(guessing_program(ens))
    if not sol.optimal:
        raise SdpError(f"guessing SDP returned status {sol.status!r}")
    elems = []
    for e in sol.X:
        dec = linalg.eigh(e)
        w = np.maximum(dec.eigenvalues, 0.0)
        elems.append((dec.eigenvectors * w) @ dec.eigenvectors.conj().T)
    total = sum(elems)
    tdec = linalg.eigh(total)
    inv_sqrt = (tdec.eigenvectors * tdec.eigenvalues**-0.5) @ tdec.eigenvectors.conj().T
    povm = Povm([inv_sqrt @ e @ inv_sqrt for e in elems])
    value = float(
        sum(p * np.trace(e @ s.matrix).real for p, e, s in zip(ens.probs, povm.elements, ens.states))
    )
    return GuessResult(value=value, povm=povm, sdp_value=float(sol.primal_value))


def _apply_on_system(channel: QuantumMap, k: int, rho: np.ndarray) -> np.ndarray:
    return maps.amplify(channel, k).apply(rho)


def p_guess_channels(probs, channels, k: int, restarts: int = 64, seed: int = 0,
                     iters: int = 40, tol: float = 1e-9) -> float:
    """Channel guessing with a k-dimensional ancilla.

    Alternates the exact inner measurement step (guessing SDP on the output
    ensemble) with the exact input step (top eigenvector of the adjoint
    functional), from ``restarts`` seeded pure inputs on ancilla (x) system.
    Best found value; each step is an exact partial maximization, so every
    iterate is a valid lower bound.
    """
    maps.check_restarts(restarts)
    probs = np.asarray(probs, dtype=np.float64)
    d_in = channels[0].dimIn
    if not 1 <= k <= d_in:
        raise ValueError(f"ancilla dimension k must lie in [1, {d_in}]")
    big = [maps.amplify(e, k) for e in channels]
    dim = k * d_in
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(restarts):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        val = -math.inf
        for _ in range(iters):
            rho = np.outer(psi, psi.conj())
            outs = [states.DensityOperator(b.apply(rho)) for b in big]
            res = p_guess(StateEnsemble(probs, outs))
            new_val = res.value
            g = sum(
                p * maps.adjoint(b).apply(e)
                for p, b, e in zip(probs, big, res.povm.elements)
            )
            g = (g + g.conj().T) / 2
            w, v = np.linalg.eigh(g)
            psi = v[:, -1]
            if abs(new_val - val) <= tol * max(1.0, abs(new_val)):
                val = new_val
                break
            val = new_val
        best = max(best, val)
    return float(best)


def channel_distance(e1: QuantumMap, e2: QuantumMap, p: float, k: int,
                     restarts: int = 64, seed: int = 0) -> float:
    """|| id_k (x) ((1-p) e1 - p e2) ||_1 maximized over inputs.

    The weights (1-p, p) are exposed exactly as stated; pure inputs on the
    ancilla-extended space suffice.  Best found over multistart trace-norm
    ascents (a lower bound, exact in practice at these dimensions).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 1 <= k <= e1.dimIn:
        raise ValueError(f"ancilla dimension k must lie in [1, {e1.dimIn}]")
    maps.check_restarts(restarts)
    delta = maps.weighted_difference(e1, e2, 1.0 - p, p)
    big = maps.amplify(delta, k)
    t4 = big.as_tensor()
    dim = k * e1.dimIn
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal((restarts, dim))
    val, _ = _accel.tracenorm_scan(t4, starts)
    return float(val)


def diamond_norm_program(m: QuantumMap) -> sdp.SdpProblem:
    """max <J, Omega> s.t. -I (x) rho <= Omega <= I (x) rho, Tr rho = 1.

    Encoded with slack blocks S+- = I (x) rho -+ Omega >= 0; the identity
    factor acts on the output side of the Choi matrix.
    """
    j = maps.choi(m)
    j = (j + j.conj().T) / 2
    d_out, d_in = m.dimOut, m.dimIn
    d = d_out * d_in
    zero_in = np.zeros((d_in, d_in), dtype=complex)
    # one row per basis element h: <h, S+ + S-> = <h, 2 I (x) rho>; last row Tr rho = 1
    h = sdp.hermitian_basis(d)
    tr_out = np.einsum("kaiaj->kij", h.reshape(-1, d_out, d_in, d_out, d_in))
    a_omega = np.concatenate([h, np.zeros((1, d, d), dtype=complex)])
    a_rho = np.concatenate([-2.0 * tr_out, np.eye(d_in, dtype=complex)[None]])
    b = np.zeros(d * d + 1)
    b[-1] = 1.0
    return sdp.SdpProblem(
        blocks=[d, d, d_in],
        C=[-j / 2, j / 2, zero_in],
        A=[a_omega, a_omega, a_rho],
        b=b,
        sense="max",
    )


def diamond_norm(m: QuantumMap) -> float:
    """Stabilized trace norm of a Hermiticity-preserving map (SDP value)."""
    sol = sdp.solve(diamond_norm_program(m))
    if not sol.optimal:
        raise SdpError(f"diamond-norm SDP returned status {sol.status!r}")
    if abs(sol.gap) > 1e-6 * (1.0 + abs(sol.primal_value)):
        raise SdpError(f"diamond-norm primal/dual gap too large: {sol.gap}")
    return float(sol.primal_value)


def cb_norm_check(m: QuantumMap, restarts: int = 32, seed: int = 0,
                  iters: int = 60) -> dict:
    """|value of ||id (x) adjoint(m)||_inf  -  diamond_norm(m)|.

    The completely-bounded norm of the Heisenberg-picture dual is evaluated
    by alternating ascent over unit-operator-norm inputs and unit vectors;
    documented as a consistency residual (<= 1e-3 on qubit instances).
    """
    maps.check_restarts(restarts)
    adj = maps.adjoint(m)
    big = maps.amplify(adj, adj.dimIn)
    dim_in = adj.dimIn * adj.dimIn
    dim_out = adj.dimIn * adj.dimOut
    big_fwd = maps.amplify(m, m.dimIn)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(restarts):
        x = rng.standard_normal((dim_in, dim_in)) + 1j * rng.standard_normal((dim_in, dim_in))
        x /= linalg.operator_norm(x)
        val = -math.inf
        for _ in range(iters):
            y = big.apply(x)
            uu, sv, vh = np.linalg.svd(y)
            new_val = float(sv[0])
            u, v = uu[:, 0], vh[0, :].conj()
            # linear functional Tr(G X) with G = (id (x) m)(|v><u|)
            g = big_fwd.apply(np.outer(v, u.conj()))
            gu, gs, gvh = np.linalg.svd(g)
            x = (gu @ gvh).conj().T  # polar unitary maximizing Re Tr(G X)
            if abs(new_val - val) <= 1e-12 * max(1.0, abs(new_val)):
                val = new_val
                break
            val = new_val
        best = max(best, val)
    dia = diamond_norm(m)
    return {"cb_value": float(best), "diamond": dia, "residual": float(abs(best - dia))}


def square_norm(x, dB: int, restarts: int = 64, seed: int = 0,
                iters: int = 80, tol: float = 1e-12) -> float:
    """sup ||(I (x) B1) X (I (x) B2)||_1 over ||B1||_2 = ||B2||_2 = sqrt(dB).

    Seesaw between the polar factor of the sandwiched operator and the two
    Frobenius-constrained factors; each partial step is an exact
    maximization, so iterates increase monotonically.  Best found over
    restarts (lower-bound semantics).
    """
    maps.check_restarts(restarts)
    xm = linalg.as_matrix(x)
    d = xm.shape[0]
    if dB < 1 or d % dB != 0:
        raise ValueError("dB must be a positive divisor of the operator dimension")
    dA = d // dB
    rng = np.random.default_rng(seed)
    eye = np.eye(dA)
    norm_b = math.sqrt(dB)

    def tr_a(mat):
        return np.einsum("aiaj->ij", mat.reshape(dA, dB, dA, dB))

    best = -math.inf
    for _ in range(restarts):
        b1 = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
        b2 = rng.standard_normal((dB, dB)) + 1j * rng.standard_normal((dB, dB))
        b1 *= norm_b / np.linalg.norm(b1)
        b2 *= norm_b / np.linalg.norm(b2)
        val = -math.inf
        for _ in range(iters):
            y = np.kron(eye, b1) @ xm @ np.kron(eye, b2)
            uu, sv, vh = np.linalg.svd(y)
            new_val = float(sv.sum())
            u_pol = (uu @ vh).conj().T  # maximizes Re Tr(U Y)
            k1 = tr_a(xm @ np.kron(eye, b2) @ u_pol)
            if np.linalg.norm(k1) < 1e-300:
                val = new_val
                break
            b1 = norm_b * k1.conj().T / np.linalg.norm(k1)
            y = np.kron(eye, b1) @ xm @ np.kron(eye, b2)
            uu, sv, vh = np.linalg.svd(y)
            u_pol = (uu @ vh).conj().T
            k2 = tr_a(u_pol @ np.kron(eye, b1) @ xm)
            if np.linalg.norm(k2) < 1e-300:
                val = new_val
                break
            b2 = norm_b * k2.conj().T / np.linalg.norm(k2)
            if abs(new_val - val) <= tol * max(1.0, abs(new_val)):
                val = new_val
                break
            val = new_val
        best = max(best, val)
    return float(best)


def operational_fidelity(e1: QuantumMap, e2: QuantumMap, restarts: int = 16,
                         seed: int = 0) -> float:
    """inf over pure bipartite inputs of F((id (x) e1) psi, (id (x) e2) psi)."""
    maps.check_restarts(restarts)
    rep1 = maps.is_cptp(e1)
    rep2 = maps.is_cptp(e2)
    if not (rep1["cp"] and rep1["tp"] and rep2["cp"] and rep2["tp"]):
        raise ValueError("operational fidelity is defined for CPTP inputs")
    d = e1.dimIn
    big1 = maps.amplify(e1, d)
    big2 = maps.amplify(e2, d)
    dim = d * d

    def objective(theta):
        v = theta[:dim] + 1j * theta[dim:]
        n = np.linalg.norm(v)
        if n < 1e-12:
            return 1.0
        rho = np.outer(v, v.conj()) / n**2
        return entropy.fidelity(big1.apply(rho), big2.apply(rho))

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        theta0 = rng.standard_normal(2 * dim)
        res = minimize(objective, theta0, method="Nelder-Mead",
                       options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 4000})
        best = min(best, float(res.fun))
    return best
