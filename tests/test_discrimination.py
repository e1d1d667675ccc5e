import dataclasses
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nonmarkov import discrimination as disc
from nonmarkov import _accel, dynamics, entropy, linalg, maps, sdp, states
from nonmarkov.maps import depolarizing, identity_map, replacer, transposition_map, unitary_map
from nonmarkov.states import StateEnsemble, basis_state, pure_state, random_density
from test_dynamics import family_of

KET0 = basis_state(2, 0)
KET1 = basis_state(2, 1)
PLUS = pure_state(np.array([1.0, 1.0]))

# Seeds of random_cptp(3, 2) pairs whose diamond-norm endgame turns on the
# last bits of the arithmetic (see QUTRIT_BREAKDOWN_PAIRS in test_sdp.py).
QUTRIT_BREAKDOWN_PAIRS = [
    (916926068, 1448099613),
    (2077510140, 314059661),
    (979858944, 828550811),
    (1333199765, 2106274943),
    (970959677, 1097537907),
]


def random_channel(d_in, d_out, rank, seed):
    """Channel M_d_in -> M_d_out with ``rank`` Kraus operators cut from one
    random isometry, deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d_out * rank, d_in)) + 1j * rng.standard_normal((d_out * rank, d_in))
    v = np.linalg.qr(g)[0]
    return maps.from_kraus([v.reshape(d_out, rank, d_in)[:, e, :] for e in range(rank)])


def trine_ensemble():
    vecs = []
    for k in range(3):
        th = 2 * np.pi * k / 3
        vecs.append(np.array([np.cos(th / 2), np.sin(th / 2)], dtype=complex))
    return StateEnsemble(np.full(3, 1 / 3), [pure_state(v) for v in vecs])


class TestHelstrom:
    def test_orthogonal(self):
        assert disc.helstrom_guess(0.5, KET0, KET1) == pytest.approx(1.0, abs=1e-12)

    def test_identical(self):
        rho = random_density(2, 2, 1)
        assert disc.helstrom_guess(0.3, rho, rho) == pytest.approx(0.7, abs=1e-12)

    def test_zero_plus_pair(self):
        expect = 0.5 * (1 + 1 / np.sqrt(2))
        assert disc.helstrom_guess(0.5, KET0, PLUS) == pytest.approx(expect, abs=1e-10)
        assert expect == pytest.approx(0.85355, abs=1e-5)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(ValueError, match="dimensions"):
            disc.helstrom_guess(0.5, states.maximally_mixed(2), [[1.0]])


class TestPGuess:
    def test_orthogonal_pair(self):
        ens = StateEnsemble(np.array([0.5, 0.5]), [KET0, KET1])
        assert disc.p_guess(ens).value == pytest.approx(1.0, abs=1e-7)

    def test_matches_helstrom(self):
        for seed in range(5):
            r1 = random_density(2, 2, seed)
            r2 = random_density(2, 1, seed + 100)
            p1 = 0.25 + 0.5 * (seed / 5)
            ens = StateEnsemble(np.array([p1, 1 - p1]), [r1, r2])
            res = disc.p_guess(ens)
            assert res.value == pytest.approx(disc.helstrom_guess(p1, r1, r2), abs=1e-7)

    def test_trine(self):
        res = disc.p_guess(trine_ensemble())
        assert res.value == pytest.approx(2 / 3, abs=1e-6)

    def test_povm_feasible_and_achieving(self):
        res = disc.p_guess(trine_ensemble())
        total = sum(res.povm.elements)
        assert np.abs(total - np.eye(2)).max() < 1e-8
        for e in res.povm.elements:
            assert linalg.min_eig(e) >= -1e-9
        assert abs(res.value - res.sdp_value) < 1e-7

    @pytest.mark.parametrize("d, n, seed", [(2, 2, 0), (2, 3, 1), (3, 3, 2), (3, 4, 3),
                                            (4, 3, 4), (4, 5, 5)])
    def test_stacked_projection_equals_per_element(self, d, n, seed):
        # Oracle: the projection one element at a time, on the same solution.
        rng = np.random.default_rng(seed)
        ens = StateEnsemble(rng.dirichlet(np.ones(n)),
                            [random_density(d, 1 + s % d, seed * 10 + s) for s in range(n)])
        sol = sdp.solve(disc.guessing_program(ens))
        elems = []
        for e in sol.X:
            dec = linalg.eigh(e)
            w = np.maximum(dec.eigenvalues, 0.0)
            elems.append((dec.eigenvectors * w) @ dec.eigenvectors.conj().T)
        tdec = linalg.eigh(sum(elems))
        inv_sqrt = (tdec.eigenvectors * tdec.eigenvalues**-0.5) @ tdec.eigenvectors.conj().T
        povm = states.Povm([inv_sqrt @ e @ inv_sqrt for e in elems])
        value = float(sum(p * np.trace(e @ s.matrix).real
                          for p, e, s in zip(ens.probs, povm.elements, ens.states)))
        res = disc.p_guess(ens)
        assert res.value.hex() == value.hex()
        assert res.sdp_value.hex() == sol.primal_value.hex()
        assert len(res.povm.elements) == n
        for got, want in zip(res.povm.elements, povm.elements):
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
            assert np.array_equal(np.signbit(got.view(np.float64)),
                                  np.signbit(want.view(np.float64)))

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            disc.p_guess(StateEnsemble(np.array([1.0]), [KET0]))

    def test_monotone_under_positive_tp_preprocessing(self):
        ens = trine_ensemble()
        base = disc.p_guess(ens).value
        for seed in (4, 5):
            phi = maps.random_cptp(2, 2, seed)
            for pre in (phi, maps.compose(transposition_map(2), phi)):
                mapped = StateEnsemble(
                    ens.probs,
                    [states.DensityOperator(pre.apply(s.matrix)) for s in ens.states],
                )
                assert disc.p_guess(mapped).value <= base + 1e-7


class TestPGuessChannels:
    def test_identical_channels(self):
        m = maps.random_cptp(2, 2, 7)
        val = disc.p_guess_channels([0.4, 0.6], [m, m], k=1, restarts=4, seed=1)
        assert val == pytest.approx(0.6, abs=1e-6)

    def test_orthogonal_replacers(self):
        e1 = replacer(KET0.matrix)
        e2 = replacer(KET1.matrix)
        val = disc.p_guess_channels([0.5, 0.5], [e1, e2], k=1, restarts=4, seed=2)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_identity_vs_full_depolarizing(self):
        # entangled input achieves (1 + (1/2)(3/2))/2 = 0.875
        val = disc.p_guess_channels(
            [0.5, 0.5], [identity_map(2), depolarizing(1.0, 2)], k=2, restarts=8, seed=3
        )
        assert val == pytest.approx(0.875, abs=1e-5)

    def test_chain_in_k(self):
        e1 = maps.random_cptp(2, 2, 11)
        e2 = maps.random_cptp(2, 3, 12)
        vals = [
            disc.p_guess_channels([0.5, 0.5], [e1, e2], k=k, restarts=8, seed=4)
            for k in (1, 2)
        ]
        assert vals[0] <= vals[1] + 1e-6

    # float.hex of a seeded triple call (the tester program at k = d_in).
    PINNED = {("triple", 2): "0x1.974e0fe02b47cp-1"}

    @staticmethod
    def pinned_call(kind, k):
        e1, e2, e3 = depolarizing(0.3), maps.random_cptp(2, 2, 11), maps.random_cptp(2, 2, 12)
        return disc.p_guess_channels([0.2, 0.3, 0.5], [e1, e2, e3], k, restarts=4, seed=5)

    @pytest.mark.parametrize("kind, k", list(PINNED))
    def test_seeded_values_pinned(self, kind, k):
        assert self.pinned_call(kind, k).hex() == self.PINNED[kind, k]


RHO_2X2 = states.BipartiteState(2, 2, random_density(4, 3, 8))
CHANNELS = [depolarizing(0.3), maps.random_cptp(2, 2, 11), maps.random_cptp(2, 2, 12)]


# Every public function backed by an SDP, on a small input.
SDP_BACKED = {
    "h_min": lambda: entropy.h_min(RHO_2X2),
    "h_max": lambda: entropy.h_max(RHO_2X2),
    "p_guess": lambda: disc.p_guess(StateEnsemble(
        [0.5, 0.5], [random_density(2, 2, 9), random_density(2, 1, 10)])),
    "diamond_norm": lambda: disc.diamond_norm(maps.subtract(*CHANNELS[1:])),
    "p_guess_channels": lambda: disc.p_guess_channels([0.2, 0.3, 0.5], CHANNELS, 2),
}


@pytest.mark.parametrize("name", list(SDP_BACKED))
def test_rejects_non_optimal_status(monkeypatch, name):
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve",
                        lambda problem: dataclasses.replace(solve(problem), status="max_iter"))
    with pytest.raises(sdp.SdpError, match="max_iter"):
        SDP_BACKED[name]()


def _no_sdp(*args, **kwargs):
    raise AssertionError("the pair route solved an SDP")


class TestPairRoute:
    E0, E1, E2 = depolarizing(0.3), maps.random_cptp(2, 2, 11), maps.random_cptp(2, 2, 12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_sdp_solve(self, monkeypatch, k):
        monkeypatch.setattr(sdp, "solve_many", _no_sdp)
        monkeypatch.setattr(sdp, "solve", _no_sdp)
        disc.p_guess_channels([0.4, 0.6], [self.E0, self.E1], k, restarts=4, seed=1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_equals_channel_distance(self, k):
        p = 0.6180339887
        val = disc.p_guess_channels([1.0 - p, p], [self.E0, self.E1], k, restarts=16, seed=3)
        cd = disc.channel_distance(self.E0, self.E1, p, k, restarts=16, seed=3)
        assert val.hex() == ((1.0 + cd) / 2.0).hex()

    def test_triple_solves_once(self, monkeypatch):
        calls = []

        def counting(problem):
            calls.append(problem.blocks)
            return solve(problem)

        solve = sdp.solve
        monkeypatch.setattr(sdp, "solve", counting)
        disc.p_guess_channels([0.2, 0.3, 0.5], [self.E0, self.E1, self.E2], 2,
                              restarts=2, seed=5, iters=3)
        assert calls == [[4, 4, 4]]

    # float.hex of two seeded public pair calls (the trace-norm ascent).
    PINNED = {1: "0x1.d7dc1dfbc8234p-1", 2: "0x1.d7dc1dfbc8235p-1"}

    @pytest.mark.parametrize("k", list(PINNED))
    def test_seeded_values_pinned(self, k):
        val = disc.p_guess_channels([0.4, 0.6], [self.E0, self.E1], k, restarts=8, seed=5)
        assert val.hex() == self.PINNED[k]

    @pytest.mark.parametrize("probs, chans, k, restarts", [
        ([0.2, 0.3, 0.5], "pair", 1, 4),     # more weights than channels
        ([1.0], "pair", 1, 4),              # fewer weights than channels
        ([0.5, 0.6], "pair", 1, 4),         # sum other than 1
        ([-0.1, 1.1], "pair", 1, 4),        # negative weight
        ([np.nan, 0.5], "pair", 1, 4),      # NaN weight
        ([0.5, 0.5], "qubit-qutrit", 1, 4),  # mismatched input dimensions
        ([0.5, 0.5], "qubit-to-qutrit", 1, 4),  # mismatched output dimensions
        ([0.5, 0.5], "pair", 1, 0),         # no restarts
        ([0.5, 0.5], "pair", 0, 4),         # k below 1
        ([0.5, 0.5], "pair", 3, 4),         # k above d_in
        ([0.2, 0.3, 0.5], "triple-qubit-qutrit", 2, 4),     # mismatched input dimensions
        ([0.2, 0.3, 0.5], "triple-qubit-to-qutrit", 2, 4),  # mismatched output dimensions
        ([0.2, 0.3, 0.5], "triple", 1, 4),  # three channels below the full ancilla
    ])
    def test_rejects_bad_input(self, probs, chans, k, restarts):
        embed = maps.from_kraus([np.eye(3, 2)])
        chans = {"pair": [self.E0, self.E1],
                 "qubit-qutrit": [self.E0, maps.random_cptp(3, 2, 1)],
                 "qubit-to-qutrit": [self.E0, embed],
                 "triple": [self.E0, self.E1, self.E2],
                 "triple-qubit-qutrit": [self.E0, self.E1, maps.random_cptp(3, 2, 1)],
                 "triple-qubit-to-qutrit": [self.E0, embed, self.E1]}[chans]
        with pytest.raises(ValueError):
            disc.p_guess_channels(probs, chans, k, restarts=restarts, seed=0)


PAULIS = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]


class TestChannelGuessingProgram:
    @staticmethod
    def solve(probs, chans):
        sol = sdp.solve(disc.channel_guessing_program(probs, chans))
        assert sol.optimal
        return sol.primal_value

    def test_pauli_dense_coding(self):
        # A maximally entangled input maps the four Paulis to orthogonal Bell states.
        chans = [unitary_map(u.astype(complex)) for u in PAULIS]
        assert self.solve([0.25] * 4, chans) == pytest.approx(1.0, abs=1e-8)

    def test_copies_of_one_channel(self):
        m = maps.random_cptp(2, 2, 7)
        assert self.solve([0.2, 0.3, 0.5], [m, m, m]) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_pair_is_helstrom_on_diamond(self, seed):
        e1, e2 = maps.random_cptp(2, 2, 100 + seed), maps.random_cptp(2, 2, 200 + seed)
        p = 0.3 + 0.02 * seed
        dia = disc.diamond_norm(maps.weighted_difference(e1, e2, 1.0 - p, p))
        assert self.solve([1.0 - p, p], [e1, e2]) == pytest.approx((1.0 + dia) / 2.0, abs=1e-8)

    @pytest.mark.parametrize("d_in, d_out", [(2, 3), (3, 2), (3, 3)])
    def test_non_qubit_triples_optimal(self, d_in, d_out):
        chans = [random_channel(d_in, d_out, 2, 80 + 10 * d_in + d_out + i) for i in range(3)]
        assert 0.5 - 1e-8 <= self.solve([0.2, 0.3, 0.5], chans) <= 1.0 + 1e-8

    def test_shares_diamond_norm_constraints(self):
        e1, e2, e3 = random_channel(3, 2, 2, 1), random_channel(3, 2, 2, 2), random_channel(3, 2, 2, 3)
        tester = disc.channel_guessing_program([0.2, 0.3, 0.5], [e1, e2, e3])
        diamond = disc.diamond_norm_program(maps.weighted_difference(e1, e2, 0.5, 0.5))
        assert tester.blocks == [6] * 3 and tester.m == (2 * 2 - 1) * 3 * 3 + 1
        assert np.array_equal(tester.A, diamond.A)
        assert np.array_equal(tester.b[:-1], diamond.b[:-1])
        assert (tester.b[-1], diamond.b[-1]) == (2.0, 4.0)


class TestChannelDistance:
    def test_identical_channels_scalar(self):
        m = maps.random_cptp(2, 2, 13)
        for p in (0.2, 0.5, 0.8):
            val = disc.channel_distance(m, m, p, k=1, restarts=4, seed=5)
            assert val == pytest.approx(abs(1 - 2 * p), abs=1e-8)

    def test_identity_vs_depolarizing(self):
        for q in (0.3, 1.0):
            val = disc.channel_distance(
                identity_map(2), depolarizing(q, 2), 0.5, k=2, restarts=8, seed=6
            )
            assert val == pytest.approx(0.5 * 1.5 * q, abs=1e-6)

    def test_chain_in_k(self):
        e1 = maps.random_cptp(2, 2, 14)
        e2 = maps.random_cptp(2, 2, 15)
        vals = [
            disc.channel_distance(e1, e2, 0.4, k=k, restarts=8, seed=7) for k in (1, 2)
        ]
        assert vals[0] <= vals[1] + 1e-6

    def test_k_equals_d_matches_diamond(self):
        e1 = maps.random_cptp(2, 2, 16)
        e2 = maps.random_cptp(2, 2, 17)
        val = disc.channel_distance(e1, e2, 0.5, k=2, restarts=16, seed=8)
        dia = disc.diamond_norm(maps.weighted_difference(e1, e2, 0.5, 0.5))
        assert val == pytest.approx(dia, abs=1e-4)

    # float.hex of seeded calls, recorded when the ascent still ran on the
    # amplified tensor of id_k (x) delta.  The qutrit entries are the pair of
    # the channels benchmark at seed 0; they are the same at one and two BLAS
    # threads.
    PINNED = {
        ("qutrit", 3): "0x1.fe907e0102cb2p-1",
        ("qutrit", 2): "0x1.fe945ed0dc640p-1",
        ("2to3", 2): "0x1.b50e31609d3ffp-1",
        ("3to2", 2): "0x1.db1a6f410adb0p-1",
    }

    @pytest.mark.parametrize("kind, k", list(PINNED))
    def test_seeded_values_pinned(self, kind, k):
        if kind == "qutrit":
            s3, s4 = np.random.default_rng(0).integers(0, 2**31 - 1, size=4)[2:]
            e1, e2 = maps.random_cptp(3, 2, int(s3)), maps.random_cptp(3, 2, int(s4))
            val = disc.channel_distance(e1, e2, 0.5, k, seed=0)
        else:
            d_in, d_out = {"2to3": (2, 3), "3to2": (3, 2)}[kind]
            e1 = random_channel(d_in, d_out, 2, 60 + d_in)
            e2 = random_channel(d_in, d_out, 2, 70 + d_in)
            val = disc.channel_distance(e1, e2, 0.4, k, restarts=16, seed=9)
        assert val.hex() == self.PINNED[kind, k]


class TestTracenormScan:
    @pytest.mark.parametrize("dim, k, seed", [(2, 1, 40), (2, 2, 41), (3, 2, 42)])
    def test_best_of_single_restart_runs(self, dim, k, seed):
        delta = maps.weighted_difference(
            maps.random_cptp(dim, 2, seed), maps.random_cptp(dim, 2, seed + 100), 0.6, 0.4)
        t4 = delta.as_tensor()
        rng = np.random.default_rng(seed)
        starts = rng.standard_normal((16, k * dim)) + 1j * rng.standard_normal((16, k * dim))
        val, psi, *_ = _accel.tracenorm_scan(t4, starts)
        single = [_accel.tracenorm_scan(t4, starts[r:r + 1]) for r in range(16)]
        r = int(np.argmax([s[0] for s in single]))
        assert abs(val - single[r][0]) <= 1e-12
        assert np.abs(psi - single[r][1]).max() <= 1e-12

    @pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 3), (2, 3), (3, 2), (4, 2)])
    def test_blockwise_equals_amplified(self, d_in, d_out):
        # The amplified tensor of id_k (x) delta read at k = 1 is the dense
        # contraction: the blockwise one must give the same bits.
        delta = maps.weighted_difference(random_channel(d_in, d_out, 2, d_in),
                                         random_channel(d_in, d_out, 2, 10 + d_out), 0.45, 0.55)
        for k in range(1, d_in + 1):
            rng = np.random.default_rng(k)
            starts = rng.standard_normal((6, k * d_in)) + 1j * rng.standard_normal((6, k * d_in))
            blockwise = _accel.tracenorm_scan(delta.as_tensor(), starts)
            dense = _accel.tracenorm_scan(maps.amplify(delta, k).as_tensor(), starts)
            assert blockwise[0].hex() == dense[0].hex()
            for a, b in zip(blockwise[1:], dense[1:]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_rejects_start_width_off_d_in(self):
        t4 = random_channel(3, 2, 2, 0).as_tensor()
        with pytest.raises(ValueError, match="multiple of d_in"):
            _accel.tracenorm_scan(t4, np.ones((2, 4), dtype=complex))

    def test_full_ancilla_memory_stays_small(self):
        # At k = d_in = 6 the amplified tensor alone is 36^4 complex128 entries
        # (27 MB), and the dense ascent peaked at 161 MB.
        e1, e2 = maps.random_cptp(6, 2, 1), maps.random_cptp(6, 2, 2)
        tracemalloc.start()
        try:
            disc.channel_distance(e1, e2, 0.5, 6, restarts=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


def _channels_qutrit_scan(rows=64):
    """The tensor and seeded starts of channel_distance[qutrit,k3] in the
    channels benchmark at seed 0 (64 rows), or ``rows`` starts from the same
    generator."""
    s3, s4 = np.random.default_rng(0).integers(0, 2**31 - 1, size=4)[2:]
    delta = maps.weighted_difference(
        maps.random_cptp(3, 2, int(s3)), maps.random_cptp(3, 2, int(s4)), 0.5, 0.5)
    rng = np.random.default_rng(0)
    return delta.as_tensor(), rng.standard_normal((rows, 9)) + 1j * rng.standard_normal((rows, 9))


def _bounded(fn, timeout=120.0):
    """fn() on a thread of its own, joined with a timeout; returns its result
    or raises its exception."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:  # re-raised on the test's thread below
            out["error"] = exc

    t = threading.Thread(target=target)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), f"not done within {timeout} s"
    if "error" in out:
        raise out["error"]
    return out["result"]


def _same_bits(a, b):
    return all(np.asarray(x).dtype == np.asarray(y).dtype
               and np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(a, b))


class TestTracenormChunks:
    """tracenorm_scan's restarts split over threads give the serial scan's
    results bit for bit."""

    @pytest.fixture
    def chunk_rows(self, monkeypatch):
        """Row counts of the chunks each scan runs, in the order they start."""
        seen = []
        rows = _accel._tracenorm_rows

        def spy(T4, psi, k):
            seen.append(psi.shape[0])
            return rows(T4, psi, k)

        monkeypatch.setattr(_accel, "_tracenorm_rows", spy)
        return seen

    def scan(self, monkeypatch, cpus, t4, starts):
        monkeypatch.setattr(_accel, "_cpus", lambda: cpus)
        return _bounded(lambda: _accel.tracenorm_scan(t4, starts))

    def test_split_is_bit_identical(self, monkeypatch, chunk_rows):
        t4, starts = _channels_qutrit_scan()
        serial = self.scan(monkeypatch, 1, t4, starts)
        assert serial[0].hex() == "0x1.fe907e0102cb2p-1"
        for cpus in (2, 3):
            chunk_rows.clear()
            assert _same_bits(self.scan(monkeypatch, cpus, t4, starts), serial)
            assert sorted(chunk_rows) == sorted(len(c) for c in np.array_split(starts, cpus))

    def test_duplicate_rows_in_different_chunks(self, monkeypatch, chunk_rows):
        # The best start copied into the other end of the stack: both rows end
        # on the same value, and every split keeps the serial result.
        t4, starts = _channels_qutrit_scan()
        best = int(np.argmax(self.scan(monkeypatch, 1, t4, starts)[2]))
        twin = 0 if best >= 32 else 63
        starts[twin] = starts[best]
        serial = self.scan(monkeypatch, 1, t4, starts)
        assert serial[2][best] == serial[2][twin] == serial[0]
        for cpus in (2, 3):
            assert _same_bits(self.scan(monkeypatch, cpus, t4, starts), serial)
        assert sorted(chunk_rows) == [21, 21, 22, 32, 32, 64, 64]

    @pytest.mark.parametrize("k, restarts", [(1, 16), (1, 64), (2, 64)])
    def test_qubit_sizes_start_no_thread(self, monkeypatch, k, restarts):
        def no_thread(*args, **kwargs):
            raise AssertionError("tracenorm_scan started a thread")

        monkeypatch.setattr(_accel, "threading", SimpleNamespace(Thread=no_thread))
        monkeypatch.setattr(_accel, "_cpus", lambda: 64)
        e0, e1 = maps.depolarizing(0.3), maps.random_cptp(2, 2, 1)
        assert 0.0 < disc.channel_distance(e0, e1, 0.4, k, restarts=restarts) <= 1.0

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(_accel, "TRACENORM_ITERS", 4)
        rows = _accel._tracenorm_rows
        caller = []

        def fail_off_caller(T4, psi, k):
            if threading.get_ident() != caller[0]:
                raise RuntimeError("worker chunk failed")
            return rows(T4, psi, k)

        monkeypatch.setattr(_accel, "_tracenorm_rows", fail_off_caller)
        t4, starts = _channels_qutrit_scan()

        def call():
            caller.append(threading.get_ident())
            before = threading.active_count()
            with pytest.raises(RuntimeError, match="worker chunk failed"):
                _accel.tracenorm_scan(t4, starts)
            return before, threading.active_count()

        monkeypatch.setattr(_accel, "_cpus", lambda: 2)
        before, after = _bounded(call)
        assert after == before

    def test_more_chunks_than_cores(self, monkeypatch, chunk_rows):
        # 8 threads on fewer cores, switching as often as the interpreter
        # allows: a lost or misplaced chunk result changes the bits.
        monkeypatch.setattr(_accel, "TRACENORM_ITERS", 10)
        t4, starts = _channels_qutrit_scan(rows=8 * _accel.TRACENORM_CHUNK_ROWS)
        serial = self.scan(monkeypatch, 1, t4, starts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = self.scan(monkeypatch, 8, t4, starts)
        finally:
            sys.setswitchinterval(interval)
        assert chunk_rows[1:] == [_accel.TRACENORM_CHUNK_ROWS] * 8
        assert _same_bits(split, serial)


def test_channel_distance_logs_restart_statistics(caplog):
    # The qutrit pair of the channels benchmark at seed 0: at k = 3 every
    # restart is still climbing at the 80-sweep cap.
    s3, s4 = np.random.default_rng(0).integers(0, 2**31 - 1, size=4)[2:]
    q1, q2 = maps.random_cptp(3, 2, int(s3)), maps.random_cptp(3, 2, int(s4))
    with caplog.at_level(logging.DEBUG, logger="nonmarkov.discrimination"):
        disc.channel_distance(q1, q2, 0.5, 3, seed=0)
    (record,) = caplog.records
    assert "restarts_converged=0 of 64" in record.getMessage()
    spread = float(record.getMessage().rpartition("spread=")[2])
    assert spread < 0.0


QUBIT = maps.random_cptp(2, 2, 50)
MULTISTART = {
    "k_positivity": lambda r: maps.k_positivity(transposition_map(2), 1, restarts=r),
    # k_positivity of many maps: a family with one seed per map.
    "k_positivity_many": lambda r: maps.k_positivity(
        family_of([transposition_map(2), QUBIT]), 1, r, [0, 1]),
    "divisibility_report": lambda r: dynamics.divisibility_report(
        dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(1, 3)), [1],
        restarts=r),
    "channel_distance": lambda r: disc.channel_distance(QUBIT, QUBIT, 0.5, 1, restarts=r),
    "p_guess_channels": lambda r: disc.p_guess_channels(
        [0.5, 0.5], [QUBIT, QUBIT], 1, restarts=r),
    "cb_norm_check": lambda r: cb_norm_check(QUBIT, restarts=r),
}


@pytest.mark.parametrize("name", sorted(MULTISTART))
@pytest.mark.parametrize("restarts", [0, -1])
def test_multistart_rejects_no_restarts(name, restarts):
    with pytest.raises(ValueError, match="restarts"):
        MULTISTART[name](restarts)


@pytest.mark.parametrize("name", sorted(MULTISTART))
@pytest.mark.parametrize("restarts", [2.5, 2.0, True])
def test_multistart_rejects_non_integer_restarts(name, restarts):
    # A whole float is not a count either, and a bool is not read as 1.
    with pytest.raises(ValueError, match="restarts must be a positive integer"):
        MULTISTART[name](restarts)


TAKES_K = {
    "k_positivity": lambda k: maps.k_positivity(transposition_map(3), k, restarts=4),
    "k_positivity_many": lambda k: maps.k_positivity(
        family_of([transposition_map(3)]), k, 4, [0]),
    "channel_distance": lambda k: disc.channel_distance(QUBIT, QUBIT, 0.5, k, restarts=4),
    "p_guess_channels": lambda k: disc.p_guess_channels(
        [0.5, 0.5], [QUBIT, QUBIT], k, restarts=4),
}


@pytest.mark.parametrize("name", sorted(TAKES_K))
@pytest.mark.parametrize("k", [1.5, 2.0, True])
def test_rejects_non_integer_k(name, k):
    with pytest.raises(ValueError, match="k must be a positive integer"):
        TAKES_K[name](k)


class TestDiamondNorm:
    def test_cptp_is_one(self):
        for seed in (18, 19):
            m = maps.random_cptp(2, 2, seed)
            assert disc.diamond_norm(m) == pytest.approx(1.0, abs=1e-6)

    def test_identity_minus_depolarizing(self):
        for q in (0.1, 0.5, 1.0):
            m = maps.subtract(identity_map(2), depolarizing(q, 2))
            assert disc.diamond_norm(m) == pytest.approx(1.5 * q, abs=1e-5)

    def test_orthogonal_replacer_difference(self):
        m = maps.subtract(replacer(KET0.matrix), replacer(KET1.matrix))
        assert disc.diamond_norm(m) == pytest.approx(2.0, abs=1e-6)

    def test_homogeneity(self):
        m = maps.random_cptp(2, 2, 20)
        assert disc.diamond_norm(maps.mix([m], [2.0])) == pytest.approx(2.0, abs=1e-6)

    def test_difference_of_cptp_at_most_two(self):
        for seed in (21, 22):
            m = maps.subtract(maps.random_cptp(2, 2, seed), maps.random_cptp(2, 2, seed + 50))
            assert disc.diamond_norm(m) <= 2.0 + 1e-6

    def test_qutrit_identity_minus_depolarizing(self):
        # entangled-input oracle: eigenvalues q(1 - 1/9) once, -q/9 eight times
        q = 0.6
        m = maps.subtract(identity_map(3), depolarizing(q, 3))
        expect = q * (1 - 1 / 9) + 8 * q / 9
        assert disc.diamond_norm(m) == pytest.approx(expect, abs=1e-5)

    def test_ququart_identity_minus_depolarizing(self):
        # 2q(1 - 1/d^2) at d = 4: blocks [16, 16] and m = 241, the largest
        # program of the suite
        q, d = 0.6, 4
        delta = maps.subtract(identity_map(d), depolarizing(q, d))
        prob = disc.diamond_norm_program(delta)
        assert (prob.blocks, prob.m) == ([16, 16], 241)
        expect = 2 * q * (1 - 1 / d**2)
        assert disc.diamond_norm(delta) == pytest.approx(expect, abs=sdp.GUARANTEE * (1 + expect))

    @pytest.mark.parametrize("seed_a, seed_b", QUTRIT_BREAKDOWN_PAIRS)
    def test_qutrit_cptp_difference_within_bounds(self, seed_a, seed_b):
        m = maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        phi = states.max_entangled(3).matrix
        lower = linalg.trace_norm(maps.amplify(m, 3).apply(phi))
        assert lower - 1e-7 <= disc.diamond_norm(m) <= 2.0 + 1e-7


def cb_norm_check(m, restarts: int = 32, seed: int = 0, iters: int = 60) -> dict:
    """|value of ||id (x) adjoint(m)||_inf  -  diamond_norm(m)|: an oracle
    for ``diamond_norm`` by the duality of the two norms.

    The completely-bounded norm of the Heisenberg-picture dual is evaluated
    by alternating ascent over unit-operator-norm inputs and unit vectors;
    the residual is within 1e-3 on qubit instances.
    """
    restarts = linalg.check_positive_int(restarts, "restarts")
    adj = maps.adjoint(m)
    big = maps.amplify(adj, adj.dimIn)
    dim_in = adj.dimIn * adj.dimIn
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
    dia = disc.diamond_norm(m)
    return {"cb_value": float(best), "diamond": dia, "residual": float(abs(best - dia))}


class TestCbNorm:
    def test_unitary(self):
        u = states.random_unitary(2, 23)
        rep = cb_norm_check(unitary_map(u), restarts=8, seed=9)
        assert rep["cb_value"] == pytest.approx(1.0, abs=1e-6)
        assert rep["residual"] <= 1e-3

    def test_random_cptp(self):
        m = maps.random_cptp(2, 2, 24)
        rep = cb_norm_check(m, restarts=8, seed=10)
        assert rep["residual"] <= 1e-3

    def test_scaled_homogeneity(self):
        m = maps.random_cptp(2, 2, 25)
        rep = cb_norm_check(maps.mix([m], [2.0]), restarts=8, seed=11)
        assert rep["cb_value"] == pytest.approx(2.0, abs=1e-3)
        assert rep["diamond"] == pytest.approx(2.0, abs=1e-6)


def test_import_leaves_out_scipy_optimize():
    # scipy.optimize costs about 0.3 s and 21 MB per importing process.
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import nonmarkov.discrimination, nonmarkov.entropy, nonmarkov.dynamics, sys; "
            "assert 'scipy.optimize' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
