import numpy as np
import pytest

from nonmarkov import linalg, maps
from nonmarkov.discrimination import diamond_norm_program
from nonmarkov.sdp import (
    SdpProblem,
    SdpSolution,
    embed_hermitian,
    hermitian_basis,
    solve,
)


def zeros(n):
    return np.zeros((n, n), dtype=complex)


def trace_norm_problem(a):
    """max <A, P - Q> s.t. P + Q = I, P, Q >= 0; optimum is ||A||_1."""
    d = a.shape[0]
    constraints = []
    for h in hermitian_basis(d):
        constraints.append(([h, h], float(np.trace(h @ np.eye(d)).real)))
    return SdpProblem(blocks=[d, d], C=[a, -a], constraints=constraints, sense="max")


def lambda_max_problem(a):
    """max <A, X> s.t. Tr X = 1, X >= 0; optimum is the top eigenvalue."""
    d = a.shape[0]
    return SdpProblem(
        blocks=[d], C=[a], constraints=[([np.eye(d, dtype=complex)], 1.0)], sense="max"
    )


def p_guess_problem(probs, rhos):
    """max sum p_i <rho_i, E_i> s.t. sum E_i = I, E_i >= 0."""
    n = len(rhos)
    d = rhos[0].shape[0]
    constraints = []
    for h in hermitian_basis(d):
        constraints.append(([h] * n, float(np.trace(h).real)))
    c = [p * r for p, r in zip(probs, rhos)]
    return SdpProblem(blocks=[d] * n, C=c, constraints=constraints, sense="max")


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestEmbedHermitian:
    def test_real_symmetric_duplicates(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
        e = embed_hermitian(a)
        assert np.allclose(e[:2, :2], a.real)
        assert np.allclose(e[2:, 2:], a.real)
        assert np.allclose(e[:2, 2:], 0)

    def test_pauli_y(self):
        sy = np.array([[0, -1j], [1j, 0]])
        e = embed_hermitian(sy)
        assert np.allclose(np.sort(np.linalg.eigvalsh(e)), [-1, -1, 1, 1])
        # off blocks are real antisymmetric
        assert np.allclose(e[:2, 2:], -sy.imag)
        assert np.allclose(e[2:, :2], sy.imag)

    def test_inner_product_factor_two(self):
        for seed in range(10):
            a = random_hermitian(3, seed)
            b = random_hermitian(3, seed + 50)
            lhs = np.tensordot(embed_hermitian(a), embed_hermitian(b), axes=2)
            rhs = 2 * np.trace(a @ b).real
            assert abs(lhs - rhs) < 1e-12

    def test_eigenvalues_duplicated(self):
        a = random_hermitian(4, 7)
        w = np.linalg.eigvalsh(a)
        we = np.linalg.eigvalsh(embed_hermitian(a))
        assert np.allclose(we, np.sort(np.repeat(w, 2)))


class TestBasicPrograms:
    def test_min_trace_unit(self):
        p = SdpProblem(
            blocks=[2],
            C=[np.eye(2, dtype=complex)],
            constraints=[([np.eye(2, dtype=complex)], 1.0)],
            sense="min",
        )
        sol = solve(p)
        assert sol.optimal
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)

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
            if prob.sense == "min":
                assert sol.dual_value <= sol.primal_value + 1e-9
            else:
                assert sol.primal_value <= sol.dual_value + 1e-9

    def test_solution_blocks_hermitian_and_psd(self):
        prob, _ = self.battery()[0]
        sol = solve(prob)
        for xb in sol.X:
            assert np.abs(xb - xb.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(xb)[0] >= -1e-9
        for zb in sol.Z:
            assert np.linalg.eigvalsh(zb)[0] >= -1e-9

    def test_constraint_feasibility(self):
        for prob, _ in self.battery()[:5]:
            sol = solve(prob)
            for (ab, b) in prob.constraints:
                got = sum(np.trace(a @ x).real for a, x in zip(ab, sol.X))
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
            blocks=[2],
            C=[eye],
            constraints=[([eye], 1.0), ([2 * eye], 2.0)],
            sense="min",
        )
        with pytest.raises(ValueError, match="dependent"):
            solve(p)

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError, match="at least one constraint"):
            SdpProblem(blocks=[2], C=[np.eye(2, dtype=complex)], constraints=[])

    def test_infeasible_detected(self):
        eye = np.eye(2, dtype=complex)
        p = SdpProblem(blocks=[2], C=[eye], constraints=[([eye], -1.0)], sense="min")
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
            SdpProblem(blocks=[2], C=[bad], constraints=[([np.eye(2, dtype=complex)], 1.0)])
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            SdpProblem(blocks=[2], C=[eye], constraints=[([eye], 1.0), ([bad], 0.0)])


# Seeds of random_cptp(3, 2) pairs whose diamond-norm iteration can break
# down after it meets the solver's guarantees; whether it does depends on the
# last bits of the arithmetic.
QUTRIT_BREAKDOWN_PAIRS = [
    (916926068, 1448099613),
    (2077510140, 314059661),
    (979858944, 828550811),
    (1333199765, 2106274943),
    (970959677, 1097537907),
]


class TestEndGame:
    @pytest.mark.parametrize("seed_a, seed_b", QUTRIT_BREAKDOWN_PAIRS)
    def test_returns_certified_iterate(self, seed_a, seed_b):
        delta = maps.subtract(maps.random_cptp(3, 2, seed_a), maps.random_cptp(3, 2, seed_b))
        prob = diamond_norm_program(delta)
        sol = solve(prob)
        assert sol.optimal, f"status {sol.status}"
        for (ab, b) in prob.constraints:
            got = sum(np.trace(a @ x).real for a, x in zip(ab, sol.X))
            assert abs(got - b) <= 1e-8 * max(1, abs(b))
        assert abs(sol.gap) <= 1e-8 * (1 + abs(sol.primal_value))
