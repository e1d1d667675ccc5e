"""State and channel discrimination: the two-state closed form, guessing
probability as a semidefinite program, ancilla-assisted channel guessing,
ancilla-graded channel distances and the diamond norm.

Ancilla-assisted guessing between two channels is Helstrom's closed form
over the best input, (1 + channel distance) / 2, found by the same
trace-norm ascent as ``channel_distance``; three or more channels are
guessed with an ancilla as large as the input, by one tester program.

The trace-norm ascent over input states is a multistart local search
reporting a best-found lower bound; the semidefinite programs (state
guessing, channel guessing, diamond norm) carry matching dual
certificates.  The diamond-norm and channel-guessing programs share one
constraint stack: the rows that fix a block sum to I_out (x) rho with
Tr rho = 1.  The trace-norm ascent logs its restart statistics at DEBUG on
the ``nonmarkov.discrimination`` logger.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _accel, entropy, linalg, maps, sdp, states
from .maps import QuantumMap
from .states import Povm, StateEnsemble

_log = logging.getLogger(__name__)


def helstrom_guess(p1: float, rho1, rho2) -> float:
    """Optimal two-state guess (1 + ||p1 rho1 - p2 rho2||_1) / 2."""
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    r1, r2 = entropy._psd_pair(rho1, rho2)
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
    return sdp.SdpProblem(C=c, A=[h] * n, b=np.trace(h, axis1=1, axis2=2).real)


def p_guess(ens: StateEnsemble) -> GuessResult:
    """Guessing probability with an explicitly feasible POVM.

    The solver's POVM is projected to exact feasibility (eigenvalue clip and
    symmetric normalization); the reported value is what that projected POVM
    achieves.
    """
    if ens.size < 2:
        raise ValueError("need at least two states to discriminate")
    sol = sdp.solve_optimal(guessing_program(ens), "guessing")
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


def p_guess_channels(probs, channels, k: int, restarts: int = 64, seed: int = 0,
                     iters: int = 40, tol: float = 1e-9) -> float:
    """Channel guessing with a k-dimensional ancilla.

    Two routes, by the number of channels:

    * two channels, any k: Helstrom's closed form
      (1 + max ||id_k (x) (p0 e0 - p1 e1)(psi)||_1) / 2, one multistart
      trace-norm ascent from ``restarts`` inputs drawn from ``seed``: the
      same best-found lower bound as ``channel_distance``;
    * three or more channels, k = d_in only: the optimum of
      ``channel_guessing_program``, solved once.  A smaller ancilla raises
      ``ValueError``.

    ``iters`` and ``tol`` are ignored; they are kept only because
    ``benchmarks/workloads.py`` passes them.
    """
    probs = states.check_probs(probs, len(channels))
    k = linalg.check_positive_int(k, "k")
    restarts = linalg.check_positive_int(restarts, "restarts")
    if len(channels) < 2:
        raise ValueError("need at least two channels to discriminate")
    if len({(e.dimIn, e.dimOut) for e in channels}) > 1:
        raise ValueError("channels must share input and output dimensions")
    d_in = channels[0].dimIn
    if k > d_in:
        raise ValueError(f"ancilla dimension k must lie in [1, {d_in}]")
    if len(channels) == 2:
        delta = maps.weighted_difference(*channels, *probs)
        return (1.0 + _tracenorm_ascent(delta, k, restarts, seed)) / 2.0
    if k < d_in:
        raise ValueError(f"three or more channels need the full ancilla k = {d_in}")
    return float(sdp.solve_optimal(channel_guessing_program(probs, channels),
                                   "channel-guessing").primal_value)


def channel_distance(e1: QuantumMap, e2: QuantumMap, p: float, k: int,
                     restarts: int = 64, seed: int = 0) -> float:
    """|| id_k (x) ((1-p) e1 - p e2) ||_1 maximized over inputs.

    The weights (1-p, p) are exposed exactly as stated; pure inputs on the
    ancilla-extended space suffice.  Best found over multistart trace-norm
    ascents: a lower bound on the optimum, not a certified value.  At
    k = d_in the optimum is the diamond norm, which ``diamond_norm``
    certifies; on the seed-0 qutrit pair of the channels benchmark at
    k = 3 the 64 ascents end 2.96e-5 below it, all at the sweep cap.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    k = linalg.check_positive_int(k, "k")
    restarts = linalg.check_positive_int(restarts, "restarts")
    if k > e1.dimIn:
        raise ValueError(f"ancilla dimension k must lie in [1, {e1.dimIn}]")
    return _tracenorm_ascent(maps.weighted_difference(e1, e2, 1.0 - p, p), k, restarts, seed)


def _tracenorm_ascent(delta: QuantumMap, k: int, restarts: int, seed: int) -> float:
    """max ||(id_k (x) delta)(psi psi^dag)||_1 over unit psi, best found over
    ``restarts`` ascents from inputs drawn from ``seed``.

    Logs at DEBUG how many restarts passed their stop test within the sweep
    budget and the spread, the median final value minus the best (<= 0).
    """
    dim = k * delta.dimIn
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, dim)) + 1j * rng.standard_normal((restarts, dim))
    val, _, vals, converged = _accel.tracenorm_scan(delta.as_tensor(), starts)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("trace-norm ascent: restarts_converged=%d of %d, spread=%.3g",
                   int(converged.sum()), restarts, float(np.median(vals) - val))
    return float(val)


def _output_identity_rows(d_out: int, d_in: int) -> np.ndarray:
    """Constraint stack that fixes a d_out d_in square S to I_out (x) rho up
    to the trace of rho.

    Rows T (x) h, for every traceless Hermitian T on the output and h in
    ``hermitian_basis(d_in)``, set <T (x) h, S> = 0; the last row, the
    identity, reads Tr S = d_out Tr rho.  m = (d_out^2 - 1) d_in^2 + 1.
    """
    d = d_out * d_in
    # traceless output basis: e_ii - e_00 for i > 0, then the off-diagonal elements
    h_out = sdp.hermitian_basis(d_out)
    traceless = h_out[1:].copy()
    traceless[: d_out - 1] -= h_out[0]
    a = np.kron(traceless[:, None], sdp.hermitian_basis(d_in)[None]).reshape(-1, d, d)
    return np.concatenate([a, np.eye(d)[None]])


def diamond_norm_program(m: QuantumMap) -> sdp.SdpProblem:
    """max <J, Omega> s.t. -I (x) rho <= Omega <= I (x) rho, Tr rho = 1
    (Watrous 2012), written in the slack blocks S+- = I (x) rho -+ Omega >= 0
    alone; the identity factor acts on the output side of the Choi matrix.

    S+ + S- = 2 I_out (x) rho is ``_output_identity_rows`` with right-hand
    side 2 d_out on the trace row.  So m = (d_out^2 - 1) d_in^2 + 1, and the
    optimal input is Tr_out(S+ + S-) / (2 d_out).
    """
    j = maps.choi(m)
    j = (j + j.conj().T) / 2
    d_out, d_in = m.dimOut, m.dimIn
    a = _output_identity_rows(d_out, d_in)
    b = np.zeros(len(a))
    b[-1] = 2.0 * d_out
    return sdp.SdpProblem(C=[-j / 2, j / 2], A=[a, a], b=b)


def channel_guessing_program(probs, channels) -> sdp.SdpProblem:
    """max sum_i p_i <J(e_i), T_i> s.t. sum_i T_i = I_out (x) sigma,
    Tr sigma = 1, T_i >= 0: the tester program for guessing among channels
    of one shape with an ancilla as large as the input (Chiribella,
    D'Ariano & Perinotti, PRL 101, 180501, 2008).

    One block of size d_out d_in per channel, ``_output_identity_rows`` with
    right-hand side d_out on the trace row, and no sigma block:
    m = (d_out^2 - 1) d_in^2 + 1.  The optimal sigma is
    Tr_out(sum_i T_i) / d_out.
    """
    d_out, d_in = channels[0].dimOut, channels[0].dimIn
    a = _output_identity_rows(d_out, d_in)
    b = np.zeros(len(a))
    b[-1] = float(d_out)
    c = [p * maps.choi(e) for p, e in zip(probs, channels)]
    return sdp.SdpProblem(C=c, A=[a] * len(c), b=b)


def diamond_norm(m: QuantumMap) -> float:
    """Stabilized trace norm of a Hermiticity-preserving map (SDP value)."""
    return float(sdp.solve_optimal(diamond_norm_program(m), "diamond-norm").primal_value)
