import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import dynamics, entropy, linalg, maps
from nonmarkov.discrimination import diamond_norm_program, guessing_program
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
    return SdpProblem(C=[a, -a], A=[h, h], b=b)


def lambda_max_problem(a):
    """max <A, X> s.t. Tr X = 1, X >= 0; optimum is the top eigenvalue."""
    d = a.shape[0]
    return SdpProblem(C=[a], A=[np.eye(d, dtype=complex)[None]], b=[1.0])


def p_guess_problem(probs, rhos):
    """max sum p_i <rho_i, E_i> s.t. sum E_i = I, E_i >= 0."""
    n = len(rhos)
    d = rhos[0].shape[0]
    h = hermitian_basis(d)
    c = [p * r for p, r in zip(probs, rhos)]
    return SdpProblem(C=c, A=[h] * n, b=np.trace(h, axis1=1, axis2=2).real)


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


class TestBasicPrograms:
    def test_min_trace_unit(self):
        # min <I, X> s.t. Tr X = 1, stated as max <-I, X>
        p = SdpProblem(
            C=[-np.eye(2, dtype=complex)],
            A=[np.eye(2, dtype=complex)[None]],
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
                got = sum(np.trace(a[i] @ x).real for a, x in zip(prob.A, sol.X))
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
            A=[np.stack([eye, 2 * eye])],
            b=[1.0, 2.0],
        )
        with pytest.raises(ValueError, match="dependent"):
            solve(p)

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            SdpProblem(
                C=[np.eye(2, dtype=complex)],
                A=[np.zeros((0, 2, 2), dtype=complex)],
                b=[],
            )

    def test_stack_rows_must_match_rhs(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="one row per right-hand side"):
            SdpProblem(C=[eye, eye], A=[eye[None], np.stack([eye, eye])], b=[1.0])

    def test_mixed_block_sizes_rejected(self):
        with pytest.raises(ValueError, match="share one size"):
            SdpProblem(C=[np.eye(4), np.eye(2), np.eye(1)],
                       A=[np.eye(4)[None], np.eye(2)[None], np.ones((1, 1, 1))], b=[1.0])

    def test_infeasible_detected(self):
        eye = np.eye(2, dtype=complex)
        p = SdpProblem(C=[eye], A=[eye[None]], b=[-1.0])
        sol = solve(p)
        assert sol.status in ("infeasible-detected", "max_iter")
        assert sol.status == "infeasible-detected"

    def test_json_round_trip(self):
        prob = trace_norm_problem(random_hermitian(2, 5))
        back = SdpProblem.from_json(prob.to_json())
        assert back.blocks == prob.blocks
        s1, s2 = solve(prob), solve(back)
        assert s1.primal_value == s2.primal_value
        # JSON that also records the block sizes loads to the same program
        doc = json.loads(prob.to_json())
        doc["blocks"] = [2, 2]
        assert solve(SdpProblem.from_json(json.dumps(doc))).primal_value == s1.primal_value

    def test_non_hermitian_data_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            SdpProblem(C=[bad], A=[np.eye(2, dtype=complex)[None]], b=[1.0])
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            SdpProblem(C=[eye], A=[np.stack([eye, bad])], b=[1.0, 0.0])
        for c, b in [(np.diag([np.nan, 1.0]), [1.0]), (eye, [np.nan]), (eye, [np.inf])]:
            with pytest.raises(ValueError, match="NaN or Inf"):
                SdpProblem(C=[c], A=[eye[None]], b=b)


# Seeds of random_cptp(3, 2) pairs whose diamond-norm iteration can break
# down after it meets the solver's guarantees; whether it does depends on the
# last bits of the arithmetic, and so on the BLAS thread count.  The first
# five were found on earlier forms of the solver and now meet the exit test;
# the sixth ends through the certified iterate at one BLAS thread (iteration
# 25), the seventh at two (iteration 22).
QUTRIT_BREAKDOWN_PAIRS = [
    (916926068, 1448099613),
    (2077510140, 314059661),
    (979858944, 828550811),
    (1333199765, 2106274943),
    (970959677, 1097537907),
    (1775320089, 1718133284),
    (106880952, 691699729),
]


class TestEndGame:
    @pytest.mark.parametrize("seed_a, seed_b", QUTRIT_BREAKDOWN_PAIRS)
    def test_returns_certified_iterate(self, seed_a, seed_b):
        delta = maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        prob = diamond_norm_program(delta)
        sol = solve(prob)
        assert sol.optimal, f"status {sol.status}"
        for i, b in enumerate(prob.b):
            got = sum(np.trace(a[i] @ x).real for a, x in zip(prob.A, sol.X))
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
    """Eternal-model inputs at the first step of time_grid(2, 11), built as
    the witness workload of benchmarks/workloads.py builds them at seed 0:
    the Choi state, a three-state ensemble and the step difference.  The
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


# primal_value.hex() and iterations of each builder's program at one BLAS
# thread: a change that keeps the solver's arithmetic leaves them as they are.
PINNED = {
    "min_entropy[t1]": ("0x1.ab9a1830b4f9ep+0", 9),
    "fidelity[t1]": ("0x1.1b6dcdb3beed7p+0", 10),
    "guessing[t1]": ("0x1.ec410ee18d12dp-1", 11),
    "diamond[t1]": ("0x1.51979f311708ap-2", 10),
    "diamond[qutrit]": ("0x1.f2e276511430fp+0", 16),
    "min_entropy[isotropic3]": ("0x1.199999995cc9cp+1", 10),
}

# The m = 73 qutrit program's GEMMs are large enough for OpenBLAS to split
# over threads, which changes its last bits (0x1.f2e2765091809p+0 with two
# threads); it is pinned to 1e-10 instead of bit for bit.
THREAD_SENSITIVE = {"diamond[qutrit]"}


@pytest.mark.parametrize("name", list(PINNED))
def test_builder_outputs_pinned(name):
    value_hex, iterations = PINNED[name]
    sol = solve(_pinned_program(name))
    assert sol.optimal
    assert sol.iterations == iterations
    if name in THREAD_SENSITIVE:
        pinned = float.fromhex(value_hex)
        assert abs(sol.primal_value - pinned) <= 1e-10 * abs(pinned)
    else:
        assert sol.primal_value.hex() == value_hex


def test_finished_solve_logged(caplog):
    rho, _, _ = _witness_t1()
    with caplog.at_level(logging.DEBUG, logger="nonmarkov.sdp"):
        entropy.h_min(rho)
    (record,) = caplog.records
    head, _, tail = record.getMessage().partition(": ")
    assert head == "optimal after 9 iterations"
    fields = {k: float(v) for k, v in (f.split("=") for f in tail.split())}
    assert set(fields) == {"primal_residual", "dual_residual", "gap"}
    assert max(fields["primal_residual"], fields["dual_residual"]) <= GUARANTEE


def test_channel_route_pinned():
    assert q_corr_channel_route(max_entangled(2)).hex() == "0x1.ffffffff8a12cp+0"


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

    def test_rejects_mismatched_batches(self):
        a = random_hermitian(3, 42)
        base = lambda_max_problem(a)
        with pytest.raises(ValueError):
            solve_many([])
        with pytest.raises(ValueError, match="blocks"):
            solve_many([base, lambda_max_problem(random_hermitian(2, 43))])
        with pytest.raises(ValueError, match="constraint"):
            solve_many([base, SdpProblem(C=[a], A=[2 * base.A[0]], b=[1.0])])


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
