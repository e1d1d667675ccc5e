import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import dynamics, entropy, linalg, maps, sdp
from nonmarkov.discrimination import (
    _output_identity_rows,
    diamond_norm_program,
    guessing_program,
)
from nonmarkov.sdp import (
    GUARANTEE,
    SdpProblem,
    SdpSolution,
    hermitian_basis,
    solve,
    solve_many,
)
from nonmarkov.states import (
    BipartiteState,
    DensityOperator,
    StateEnsemble,
    max_entangled,
    purify,
    random_density,
)
from test_dynamics import rk4_family
from test_entropy import q_corr_channel_route


def zeros(n):
    return np.zeros((n, n), dtype=complex)


def trace_norm_problem(a):
    """max <A, P - Q> s.t. P + Q = I, P, Q >= 0; optimum is ||A||_1."""
    d = a.shape[0]
    h = hermitian_basis(d)
    b = np.trace(h @ np.eye(d), axis1=1, axis2=2).real
    return SdpProblem(C=[a, -a], A=h, b=b)


def lambda_max_problem(a):
    """max <A, X> s.t. Tr X = 1, X >= 0; optimum is the top eigenvalue."""
    d = a.shape[0]
    return SdpProblem(C=[a], A=np.eye(d, dtype=complex)[None], b=[1.0])


def p_guess_problem(probs, rhos):
    """max sum p_i <rho_i, E_i> s.t. sum E_i = I, E_i >= 0."""
    h = hermitian_basis(rhos[0].shape[0])
    c = [p * r for p, r in zip(probs, rhos)]
    return SdpProblem(C=c, A=h, b=np.trace(h, axis1=1, axis2=2).real)


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_hermitian_basis_layout(d):
    h = hermitian_basis(d)
    assert h.shape == (d * d, d, d)
    expected = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1
        expected.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1
            f = np.zeros((d, d), dtype=complex)
            f[i, j], f[j, i] = 1j, -1j
            expected += [e, f]
    assert np.array_equal(h, np.array(expected))
    assert np.array_equal(h, h.conj().transpose(0, 2, 1))
    gram = np.einsum("kij,lji->kl", h, h)
    assert np.array_equal(gram, np.diag(np.diag(gram)))
    assert set(np.diag(gram).real.tolist()) <= {1.0, 2.0}


def test_hermitian_basis_cached_read_only():
    for d in (1, 2, 3):
        h = hermitian_basis(d)
        assert hermitian_basis(d) is h
        assert not h.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0, 0] = 2.0
    assert hermitian_basis(2) is not hermitian_basis(3)


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.float64), b.view(np.float64))
    assert np.array_equal(np.signbit(a.view(np.float64)), np.signbit(b.view(np.float64)))


@pytest.mark.parametrize("d_a, d_b", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_min_entropy_stack_equals_kron(monkeypatch, d_a, d_b):
    # The constraint stack as the builder passes it, before SdpProblem
    # symmetrizes it, against np.kron(I_A, h) for each basis element h.
    passed = {}

    def capture(C, A, b):
        passed["A"] = A
        return SdpProblem(C=C, A=A, b=b)

    monkeypatch.setattr(sdp, "SdpProblem", capture)
    rho = BipartiteState(d_a, d_b, random_density(d_a * d_b, 2, 5))
    entropy.min_entropy_program(rho)
    assert_bits_equal(passed["A"], np.kron(np.eye(d_a), hermitian_basis(d_b)))


class TestBasicPrograms:
    def test_min_trace_unit(self):
        # min <I, X> s.t. Tr X = 1, stated as max <-I, X>
        p = SdpProblem(
            C=[-np.eye(2, dtype=complex)],
            A=np.eye(2, dtype=complex)[None],
            b=[1.0],
        )
        sol = solve(p)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(-1.0, abs=1e-7)

    def test_trace_norm_diag(self):
        sol = solve(trace_norm_problem(np.diag([1.0, -1.0]).astype(complex)))
        assert sol.optimal
        assert sol.primal_value == pytest.approx(2.0, abs=1e-7)
        assert sol.primal_value == pytest.approx(linalg.trace_norm(np.diag([1.0, -1.0])), abs=1e-7)

    def test_trine_guessing(self):
        # three pure states at 120 degrees, equal priors -> 2/3
        vecs = []
        for k in range(3):
            th = 2 * np.pi * k / 3
            vecs.append(np.array([np.cos(th / 2), np.sin(th / 2)], dtype=complex))
        rhos = [np.outer(v, v.conj()) for v in vecs]
        sol = solve(p_guess_problem([1 / 3] * 3, rhos))
        assert sol.optimal
        assert sol.primal_value == pytest.approx(2 / 3, abs=1e-7)

    def test_lambda_max(self):
        a = random_hermitian(4, 3)
        sol = solve(lambda_max_problem(a))
        assert sol.optimal
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(a)[-1], abs=1e-7)


class TestSolutionQuality:
    def battery(self):
        problems = []
        for seed in range(10):
            a = random_hermitian(3, seed)
            problems.append((trace_norm_problem(a), linalg.trace_norm(a)))
        for seed in range(10, 20):
            a = random_hermitian(4, seed)
            problems.append((lambda_max_problem(a), float(np.linalg.eigvalsh(a)[-1])))
        rng = np.random.default_rng(99)
        for seed in range(20, 30):
            v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
            r1, r2 = np.outer(v1, v1.conj()), np.outer(v2, v2.conj())
            p1 = rng.uniform(0.2, 0.8)
            helstrom = 0.5 * (1 + linalg.trace_norm(p1 * r1 - (1 - p1) * r2))
            problems.append((p_guess_problem([p1, 1 - p1], [r1, r2]), helstrom))
        return problems

    def test_battery_values_and_gaps(self):
        for prob, opt in self.battery():
            sol = solve(prob)
            assert sol.optimal, f"status {sol.status} on known-optimum problem"
            assert abs(sol.primal_value - opt) <= 1e-7 * max(1, abs(opt))
            assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.primal_value))

    def test_weak_duality_never_violated(self):
        for prob, _ in self.battery():
            sol = solve(prob)
            assert sol.primal_value <= sol.dual_value + 1e-9

    def test_solution_blocks_hermitian_and_psd(self):
        prob, _ = self.battery()[0]
        sol = solve(prob)
        for xb in sol.X:
            assert np.abs(xb - xb.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(xb)[0] >= -1e-9
        for zb in sol.Z:
            assert np.linalg.eigvalsh(zb)[0] >= -1e-9

    def test_reported_residuals_within_guarantee(self):
        for prob, _ in self.battery():
            sol = solve(prob)
            if sol.optimal:
                assert sol.primal_residual <= GUARANTEE
                assert sol.dual_residual <= GUARANTEE

    def test_constraint_feasibility(self):
        for prob, _ in self.battery()[:5]:
            sol = solve(prob)
            for i, b in enumerate(prob.b):
                got = sum(np.trace(prob.A[i] @ x).real for x in sol.X)
                assert abs(got - b) <= 1e-8 * max(1, abs(b))

    def test_determinism(self):
        prob, _ = self.battery()[3]
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.primal_value == s2.primal_value
        assert s1.iterations == s2.iterations
        assert all(np.array_equal(a, b) for a, b in zip(s1.X, s2.X))


class TestEdgeCases:
    def test_linearly_dependent_constraints_rejected(self):
        eye = np.eye(2, dtype=complex)
        p = SdpProblem(
            C=[eye],
            A=np.stack([eye, 2 * eye]),
            b=[1.0, 2.0],
        )
        with pytest.raises(ValueError, match="dependent"):
            solve(p)

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            SdpProblem(
                C=[np.eye(2, dtype=complex)],
                A=np.zeros((0, 2, 2), dtype=complex),
                b=[],
            )

    def test_stack_rows_must_match_rhs(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="one row per right-hand side"):
            SdpProblem(C=[eye, eye], A=np.stack([eye, eye]), b=[1.0])

    def test_mixed_block_sizes_rejected(self):
        with pytest.raises(ValueError, match="share one size"):
            SdpProblem(C=[np.eye(4), np.eye(2), np.eye(1)],
                       A=np.eye(4)[None], b=[1.0])

    def test_infeasible_detected(self):
        eye = np.eye(2, dtype=complex)
        p = SdpProblem(C=[eye], A=eye[None], b=[-1.0])
        sol = solve(p)
        assert sol.status in ("infeasible-detected", "max_iter")
        assert sol.status == "infeasible-detected"

    def test_json_round_trip(self):
        prob = trace_norm_problem(random_hermitian(2, 5))
        back = SdpProblem.from_json(prob.to_json())
        assert back.blocks == prob.blocks
        s1, s2 = solve(prob), solve(back)
        assert s1.primal_value == s2.primal_value

    def test_non_hermitian_data_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            SdpProblem(C=[bad], A=np.eye(2, dtype=complex)[None], b=[1.0])
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            SdpProblem(C=[eye], A=np.stack([eye, bad]), b=[1.0, 0.0])
        for c, b in [(np.diag([np.nan, 1.0]), [1.0]), (eye, [np.nan]), (eye, [np.inf])]:
            with pytest.raises(ValueError, match="NaN or Inf"):
                SdpProblem(C=[c], A=eye[None], b=b)


# Seeds of random_cptp(3, 2) pairs whose diamond-norm iteration can break
# down after it meets the solver's guarantees; whether it does depends on the
# last bits of the arithmetic, and so on the BLAS thread count.  The first
# seven were found on earlier forms of the solver and now meet the exit test;
# the eighth, the pair of the witness workload at seed 54, ends through the
# certified iterate at one BLAS thread (iteration 27).
QUTRIT_BREAKDOWN_PAIRS = [
    (916926068, 1448099613),
    (2077510140, 314059661),
    (979858944, 828550811),
    (1333199765, 2106274943),
    (970959677, 1097537907),
    (1775320089, 1718133284),
    (106880952, 691699729),
    (1318918238, 977726707),
]


class TestEndGame:
    @pytest.mark.parametrize("seed_a, seed_b", QUTRIT_BREAKDOWN_PAIRS)
    def test_returns_certified_iterate(self, seed_a, seed_b):
        delta = maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        prob = diamond_norm_program(delta)
        sol = solve(prob)
        assert sol.optimal, f"status {sol.status}"
        for i, b in enumerate(prob.b):
            got = sum(np.trace(prob.A[i] @ x).real for x in sol.X)
            assert abs(got - b) <= 1e-8 * max(1, abs(b))
        assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.primal_value))

    @pytest.mark.parametrize("seed_a, seed_b", QUTRIT_BREAKDOWN_PAIRS)
    def test_reported_residuals_within_guarantee(self, seed_a, seed_b):
        delta = maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        sol = solve(diamond_norm_program(delta))
        assert sol.optimal, f"status {sol.status}"
        assert sol.primal_residual <= GUARANTEE
        assert sol.dual_residual <= GUARANTEE


def _witness_t1():
    """Eternal-model inputs at the first step of time_grid(2, 11): the Choi
    state, a three-state ensemble and the step difference.  They follow the
    witness workload of benchmarks/workloads.py at seed 0 but skip its
    probe-seed draw, so the ensemble weights, and with them the pinned
    ``guessing[t1]`` program, are not the workload's ``p_guess[t1]``.  The
    family is the RK4 one the pins were recorded on; propagate's exact path
    differs from it in the last bits."""
    rng = np.random.default_rng(0)
    ens_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    probs = rng.dirichlet(np.ones(3))
    dm = rk4_family(dynamics.model("eternal"), dynamics.time_grid(2.0, 11))
    big = maps.amplify(dm.maps[1], 2)
    rho = BipartiteState(2, 2, DensityOperator(big.apply(max_entangled(2).matrix)))
    ens = StateEnsemble(
        probs, [DensityOperator(big.apply(random_density(4, 2, s).matrix)) for s in ens_seeds]
    )
    return rho, ens, maps.subtract(dm.maps[1], dm.maps[0])


def _pinned_program(name):
    rho, ens, delta = _witness_t1()
    if name == "min_entropy[t1]":
        return entropy.min_entropy_program(rho)
    if name == "fidelity[t1]":
        # the program of h_max: its value is max_sigma F(rho, I (x) sigma)^2
        return entropy.min_entropy_program(purify(rho).marginal_ac())
    if name == "guessing[t1]":
        return guessing_program(ens)
    if name == "diamond[t1]":
        return diamond_norm_program(delta)
    if name == "diamond[qutrit]":
        seed_a, seed_b = QUTRIT_BREAKDOWN_PAIRS[0]
        return diamond_norm_program(
            maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        )
    iso = maps.amplify(maps.depolarizing(0.3, 3), 3).apply(max_entangled(3).matrix)
    return entropy.min_entropy_program(BipartiteState(3, 3, DensityOperator(iso)))


# iterations, the .hex() of the scalars and the ``iterate_digest`` of each
# builder's program at one BLAS thread: a change that keeps the solver's
# arithmetic leaves them as they are.
PINNED = {
    "min_entropy[t1]": (7, {
        "primal_value": "0x1.ab9a18338e875p+0", "dual_value": "0x1.ab9a1833982f0p+0",
        "gap": "0x1.34f6000000000p-37", "primal_residual": "0x1.0000000000000p-52",
        "dual_residual": "0x0.0p+0",
        "iterates": "a6653378e53e3e006f70b875f2a3ea7ffa1739e4281f18484ff4ef95f12d799c"}),
    "fidelity[t1]": (7, {
        "primal_value": "0x1.1b6dcdb3d58eep+0", "dual_value": "0x1.1b6dcdb405b78p+0",
        "gap": "0x1.8145000000000p-35", "primal_residual": "0x1.4600000000000p-46",
        "dual_residual": "0x1.0000000000000p-55",
        "iterates": "1d3231acf200bbc6ca075b310a807a5f483d62ad11b561b784bac7040f7b6485"}),
    "guessing[t1]": (9, {
        "primal_value": "0x1.ec410ee24f493p-1", "dual_value": "0x1.ec410ee26fd12p-1",
        "gap": "0x1.043f800000000p-36", "primal_residual": "0x1.8000000000000p-51",
        "dual_residual": "0x1.0000000000000p-55",
        "iterates": "b791006e8bae6ca532270cf85bbb5223cfbc6117c96795f8490cfaf878a1d967"}),
    "diamond[t1]": (7, {
        "primal_value": "0x1.51979f319029ep-2", "dual_value": "0x1.51979f31d7c0cp-2",
        "gap": "0x1.1e5b800000000p-36", "primal_residual": "0x1.8734e659cebb8p-51",
        "dual_residual": "0x1.0000000000000p-56",
        "iterates": "e44c93049d1289478b734c60d946b336e0a2471033fbf1a3c639d2cefa3c5d7a"}),
    "diamond[qutrit]": (15, {
        "primal_value": "0x1.f2e276516b316p+0", "dual_value": "0x1.f2e27658b095bp+0",
        "gap": "0x1.d159140000000p-30", "primal_residual": "0x1.f8e20a0000000p-32",
        "dual_residual": "0x1.09a93a9288691p-55",
        "iterates": "1ff6c4b32f9014e14fe0473a1a06fa27ffd4e09c0918ca526bbebbcc8e77b1ed"}),
    "min_entropy[isotropic3]": (7, {
        "primal_value": "0x1.199999993b696p+1", "dual_value": "0x1.19999999b4e17p+1",
        "gap": "0x1.e5e0400000000p-33", "primal_residual": "0x1.0000000000000p-53",
        "dual_residual": "0x0.0p+0",
        "iterates": "9e75a1d1198cc37e734bcfef826ef5554a3b9c0cef90e90289184c7da4d69f42"}),
}

# The m = 73 qutrit program's GEMMs are large enough for OpenBLAS to split
# over threads, which changes its last bits.  It stops at a gap of about
# 2e-9, and with two to four threads its primal value ends 1.5e-10 (relative)
# below the one-thread value, in as many iterations; those scalars are pinned
# bit for bit too.
THREADED = {
    "diamond[qutrit]": {
        "primal_value": "0x1.f2e276502bf3dp+0", "dual_value": "0x1.f2e27658b08e3p+0",
        "gap": "0x1.10934c0000000p-29", "primal_residual": "0x1.b82fbc0000000p-32",
        "dual_residual": "0x1.09a93a9288691p-54",
        "iterates": "ccffb45143f421cfac7761551697833c7f47d4a54bf6456e339735d8acb1e245"},
}


def iterate_digest(sol):
    """sha256 over the bytes of the returned X, y and Z."""
    h = hashlib.sha256()
    for a in (np.stack(sol.X), sol.y, np.stack(sol.Z)):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", list(PINNED))
def test_builder_outputs_pinned(name):
    # The returned scalars are those the iteration measured on its last
    # iterate: measuring it again gives the same bits.
    iterations, pinned = PINNED[name]
    sol = solve(_pinned_program(name))
    assert sol.optimal
    assert sol.iterations == iterations
    got = {field: getattr(sol, field).hex() for field in pinned if field != "iterates"}
    got["iterates"] = iterate_digest(sol)
    assert got in (pinned, THREADED.get(name, pinned))


def test_finished_solve_logged(caplog):
    rho, _, _ = _witness_t1()
    with caplog.at_level(logging.DEBUG, logger="nonmarkov.sdp"):
        entropy.h_min(rho)
    (record,) = caplog.records
    head, _, tail = record.getMessage().partition(": ")
    assert head == "optimal after 7 iterations"
    fields = {k: float(v) for k, v in (f.split("=") for f in tail.split())}
    assert set(fields) == {"primal_residual", "dual_residual", "gap"}
    assert max(fields["primal_residual"], fields["dual_residual"]) <= GUARANTEE


def test_channel_route_pinned():
    assert q_corr_channel_route(max_entangled(2)).hex() == "0x1.fffffffffd05ep+0"


def witness_trajectory_programs():
    """The 40 programs that h_min, h_max, p_guess and diamond_norm solve on
    the eternal trajectory of the witness workload of
    benchmarks/workloads.py at seed 0, in its order."""
    rng = np.random.default_rng(0)
    ens_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=3)]
    rng.integers(0, 2**31 - 1, size=1)  # the probe seed
    probs = rng.dirichlet(np.ones(3))
    dm = dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(2.0, 11))
    ens_states = [random_density(4, 2, s) for s in ens_seeds]
    programs = []
    for j in range(1, len(dm)):
        big = maps.amplify(dm.maps[j], 2)
        rho = BipartiteState(2, 2, DensityOperator(big.apply(max_entangled(2).matrix)))
        ens = StateEnsemble(probs, [DensityOperator(big.apply(s.matrix)) for s in ens_states])
        programs += [
            entropy.min_entropy_program(rho),
            entropy.min_entropy_program(purify(rho).marginal_ac()),
            guessing_program(ens),
            diamond_norm_program(maps.subtract(dm.maps[j], dm.maps[j - 1])),
        ]
    return programs


def witness_qutrit_program(seed):
    """The diamond-norm program of the witness workload's qutrit pair at
    ``seed``: the difference of two seeded random_cptp(3, 2) channels."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**31 - 1, size=4)  # the ensemble and probe seeds
    rng.dirichlet(np.ones(3))
    qa, qb = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
    return diamond_norm_program(
        maps.subtract(maps.random_cptp(3, 2, qa), maps.random_cptp(3, 2, qb)))


def test_witness_trajectory_iterations():
    # A fixed 0.98 fraction-to-boundary step took 408 iterations here and the
    # adaptive corrector step takes 291: the bound leaves room for last-bit
    # changes, not for the fixed rule.
    sols = [solve(p) for p in witness_trajectory_programs()]
    assert all(sol.optimal for sol in sols)
    assert sum(sol.iterations for sol in sols) < 393


def test_witness_qutrit_diamond_norms_optimal():
    # The 50 programs share their constraints, so one batch solves them,
    # each bit for bit as alone.
    sols = solve_many([witness_qutrit_program(seed) for seed in range(50)])
    assert [seed for seed, sol in enumerate(sols) if not sol.optimal] == []


def test_returned_blocks_exactly_hermitian():
    # Every step adds a real multiple of a Hermitian direction, so the
    # iterates stay Hermitian bit for bit without a symmetrization.
    sols = [solve(prob) for prob, _ in TestSolutionQuality().battery()]
    sols += [solve(_pinned_program(name)) for name in PINNED]
    sols += solve_many([
        diamond_norm_program(maps.subtract(maps.random_cptp(3, 2, a), maps.random_cptp(3, 2, b)))
        for a, b in QUTRIT_BREAKDOWN_PAIRS])
    sols += solve_many(random_guessing_batch(4, 3, 8, 43))
    eye = np.eye(2, dtype=complex)
    sols.append(solve(SdpProblem(C=[eye], A=eye[None], b=[-1.0])))
    assert "infeasible-detected" in {sol.status for sol in sols}
    for sol in sols:
        for block in sol.X + sol.Z:
            assert np.array_equal(block, block.conj().T)


def assert_same_solution(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    for field in ("primal_value", "dual_value", "gap", "primal_residual", "dual_residual"):
        assert getattr(a, field).hex() == getattr(b, field).hex(), field
    assert np.array_equal(a.y, b.y)
    assert all(np.array_equal(u, v) for u, v in zip(a.X + a.Z, b.X + b.Z))


def random_guessing_batch(d, n, count, seed):
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(count):
        probs = rng.dirichlet(np.ones(n))
        seeds = rng.integers(0, 2**31 - 1, size=n)
        rhos = [random_density(d, int(rng.integers(1, d + 1)), int(s)).matrix for s in seeds]
        batch.append(p_guess_problem(probs, rhos))
    return batch


class TestSolveMany:
    # seeds whose batches stop at more than one iteration count
    @pytest.mark.parametrize("d, n, seed", [
        (2, 2, 22), (2, 3, 23), (3, 2, 132), (3, 3, 33), (4, 2, 242), (4, 3, 43)])
    def test_batch_matches_one_at_a_time(self, d, n, seed):
        batch = random_guessing_batch(d, n, 8, seed)
        sols = solve_many(batch)
        assert len(sols) == len(batch)
        for prob, sol in zip(batch, sols):
            assert_same_solution(sol, solve(prob))
        # the problems leave the stack at different iterations
        assert len({sol.iterations for sol in sols}) > 1

    def test_breakdown_pairs_in_one_batch(self):
        batch = [
            diamond_norm_program(
                maps.subtract(maps.random_cptp(3, 2, a), maps.random_cptp(3, 2, b)))
            for a, b in QUTRIT_BREAKDOWN_PAIRS
        ]
        for prob, sol in zip(batch, solve_many(batch)):
            assert sol.optimal
            assert_same_solution(sol, solve(prob))

    def test_infeasible_problem_leaves_the_others(self):
        feasible = [lambda_max_problem(random_hermitian(3, s)) for s in (40, 41)]
        p = feasible[0]
        infeasible = SdpProblem(C=p.C, A=p.A, b=[-1.0])
        batch = [feasible[0], infeasible, feasible[1]]
        sols = solve_many(batch)
        assert [s.status for s in sols] == ["optimal", "infeasible-detected", "optimal"]
        for prob, sol in zip(batch, sols):
            assert_same_solution(sol, solve(prob))

    def test_max_iter_exit(self, monkeypatch):
        # The solver's own exit, not a faked status: no program here is
        # optimal after 3 iterations.
        monkeypatch.setattr(sdp, "MAX_ITER", 3)
        batch = [lambda_max_problem(random_hermitian(3, s)) for s in (40, 41)]
        alone = [solve(p) for p in batch]
        for sol, ref in zip(solve_many(batch), alone):
            assert (ref.status, ref.iterations) == ("max_iter", 3)
            assert_same_solution(sol, ref)
        with pytest.raises(sdp.SdpError, match="'max_iter'"):
            sdp.solve_optimal(batch[0], "test-program")

    def test_rejects_mismatched_batches(self):
        a = random_hermitian(3, 42)
        base = lambda_max_problem(a)
        with pytest.raises(ValueError):
            solve_many([])
        with pytest.raises(ValueError, match="blocks"):
            solve_many([base, lambda_max_problem(random_hermitian(2, 43))])
        with pytest.raises(ValueError, match="constraint"):
            solve_many([base, SdpProblem(C=[a], A=2 * base.A, b=[1.0])])


def assert_certified_interior(sol):
    assert sol.optimal, f"status {sol.status}"
    assert sol.primal_residual <= GUARANTEE
    assert sol.dual_residual <= GUARANTEE
    assert abs(sol.gap) <= GUARANTEE * (1 + abs(sol.primal_value))
    for block in sol.X + sol.Z:
        assert np.linalg.eigvalsh(block)[0] > 0


ENDGAME = settings(max_examples=15, derandomize=True, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@ENDGAME
@given(d=st.sampled_from([2, 3]), n=st.sampled_from([2, 3]), seed=SEEDS)
def test_guessing_endgame_certified(d, n, seed):
    assert_certified_interior(solve(random_guessing_batch(d, n, 1, seed)[0]))


@ENDGAME
@given(d_b=st.sampled_from([2, 3]), rank=st.integers(1, 6), seed=SEEDS)
def test_min_entropy_endgame_certified(d_b, rank, seed):
    rho = random_density(2 * d_b, min(rank, 2 * d_b), seed)
    assert_certified_interior(solve(entropy.min_entropy_program(BipartiteState(2, d_b, rho))))


def count_linalg_calls(monkeypatch, problems):
    """Solve the batch and return np.linalg calls per iteration of the
    longest-running problem."""
    calls = [0]
    for name in ("cholesky", "inv", "solve", "eigvalsh", "eigh", "eig", "norm", "svd",
                 "qr", "det", "lstsq", "pinv"):
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, **kwargs):
            calls[0] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    sols = solve_many(problems)
    assert all(sol.optimal for sol in sols)
    return calls[0] / max(sol.iterations for sol in sols)


def test_linalg_calls_scale_with_block_sizes(monkeypatch):
    """Per iteration the solver makes a fixed number of LAPACK calls,
    whatever the number of blocks or problems."""
    batch = random_guessing_batch(4, 3, 16, seed=7)
    one = count_linalg_calls(monkeypatch, batch[:1])
    many = count_linalg_calls(monkeypatch, batch)
    assert one <= 7
    assert many <= one + 1


@pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3), (3, 2)])
def test_min_entropy_program_shape(d_a, d_b):
    rho = BipartiteState(d_a, d_b, random_density(d_a * d_b, 2, 3))
    prob = entropy.min_entropy_program(rho)
    assert prob.blocks == [d_a * d_b]
    assert prob.m == d_b**2


@pytest.mark.parametrize("d_out, d_in", [(1, 2), (2, 2), (3, 3), (2, 3), (3, 2), (2, 4)])
def test_output_identity_rows_equal_kron(d_out, d_in):
    h_out = hermitian_basis(d_out)
    traceless = h_out[1:].copy()
    traceless[: d_out - 1] -= h_out[0]
    d = d_out * d_in
    kron = np.kron(traceless[:, None], hermitian_basis(d_in)[None]).reshape(-1, d, d)
    assert_bits_equal(_output_identity_rows(d_out, d_in),
                      np.concatenate([kron, np.eye(d)[None]]))


def test_program_stack_hermitized_once(monkeypatch):
    # A three-block guessing program: the objective blocks as one stack, then
    # its one constraint stack, each through one hermitize call.
    rhos = [random_density(3, 2, s).matrix for s in (1, 2, 3)]
    hermitize, calls = linalg.hermitize, []

    def counted(m, tol=linalg.HERM_TOL):
        calls.append(np.shape(m))
        return hermitize(m, tol)

    monkeypatch.setattr(linalg, "hermitize", counted)
    prob = p_guess_problem([0.2, 0.3, 0.5], rhos)
    assert calls == [(3, 3, 3), (9, 3, 3)]
    assert prob.A.shape == (9, 3, 3)


@pytest.mark.parametrize("d_out, d_in", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_diamond_norm_program_shape(d_out, d_in):
    # X -> Tr(X) (s1 - s2), whose diamond norm is ||s1 - s2||_1
    diff = random_density(d_out, 2, 6).matrix - random_density(d_out, 1, 7).matrix
    m = maps.map_from_action(d_in, d_out, lambda x: np.trace(x) * diff)
    prob = diamond_norm_program(m)
    assert len(set(prob.blocks)) == 1
    assert prob.m == (d_out**2 - 1) * d_in**2 + 1
    sol = solve(prob)
    assert sol.optimal
    assert sol.primal_value == pytest.approx(linalg.trace_norm(diff), abs=1e-7)
