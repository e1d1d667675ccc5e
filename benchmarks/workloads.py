"""The three benchmark workloads, built from a seed.

Each workload function returns a ``Workload``: the tasks one pass runs, in
order, and a check that runs after the pass, outside the timed region.  A
task is a closure over inputs that were built at set-up; it calls the
library through module attributes (``entropy.h_min``, not a captured
function) so that the tracer's wrappers see the call.

Why these three (each isolates one layer that later work will optimise, and
each is the no-change case for another workload's layer):

* ``divisibility``: ``divisibility_report`` on three library models.  Almost
  all of the pass is the k=1 multistart seesaw ``_accel.kpos_scan``; k=2 on a
  qubit takes the exact eigenvalue path, and no SDP is solved.
* ``witness``: entropic and discrimination witnesses along the eternal
  model's trajectory plus two qutrit programs with m = 81 and 82
  constraints.  Almost all of the pass is ``sdp.solve``; the m > 32 solves
  are dominated by the O(m^2) Schur-complement assembly.  ``_accel`` is
  never called.
* ``channels``: ancilla-assisted channel discrimination.  Many small solves
  (m = 4 and 16), each rebuilt and revalidated per seesaw step, so the
  per-solve fixed cost of ``sdp`` shows, plus ``_accel.tracenorm_scan``.
  The seesaw runs a fixed number of steps (``tol=-1``) so that every seed
  does the same number of solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nonmarkov import discrimination, dynamics, entropy, linalg, maps, states

DIVISIBLE = "k-divisible on grid"
NOT_DIVISIBLE = "not k-divisible on grid"

# Known verdicts of the library models (ks = 1, 2) on any grid over [0, 2]
# with at least one point past pi/2 (where the Jaynes-Cummings excitation
# revives).
EXPECTED_VERDICTS = {
    "eternal": {1: DIVISIBLE, 2: NOT_DIVISIBLE},
    "amplitude_damping": {1: DIVISIBLE, 2: DIVISIBLE},
    "jaynes_cummings_toy": {1: NOT_DIVISIBLE, 2: NOT_DIVISIBLE},
}

# Tolerances of the checks.  SDP values are accurate to about 1e-8.  The
# channel seesaw is a best-found lower bound: it may not exceed the Helstrom
# value (1 + channel_distance) / 2, and with the budgets of ``channels`` it
# reaches it only up to slow convergence: on seeds 0-17 and 30-47 it stopped
# at most 1.5e-5 below at k=1 (seed 37) and, on seeds 0-12 and 20-32, at most
# 8.2e-5 below at k=2 (seed 9).  With 4 restarts instead of 16 at k=1, every
# restart ended in a local optimum on some seeds (2.7e-2 below on seed 32).
SDP_TOL = 1e-6
HELSTROM_BELOW = 5e-4
BOUND_SLACK = 1e-7


@dataclass
class Task:
    name: str
    run: Callable[[], object]


class Checker:
    """Collects per-task values (compared with the reference) and problems."""

    def __init__(self):
        self.values: dict[str, dict] = {}
        self.problems: dict[str, list[str]] = {}

    def record(self, task: str, **values) -> None:
        self.values.setdefault(task, {}).update(values)

    def expect(self, task: str, ok: bool, message: str) -> None:
        if not ok:
            self.problems.setdefault(task, []).append(message)


@dataclass
class Workload:
    tasks: list[Task]
    # check(results, checker): results maps task name -> return value for
    # every task that did not raise.
    check: Callable[[dict, Checker], None]


def _trace_norm_on(delta: maps.QuantumMap, vec: np.ndarray) -> float:
    """||(id (x) delta)(|v><v|)||_1 for a unit vector on ancilla (x) input."""
    k = vec.size // delta.dimIn
    return linalg.trace_norm(maps.amplify(delta, k).apply(np.outer(vec, vec.conj())))


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# divisibility
# ---------------------------------------------------------------------------


def divisibility(seed: int, reduced: bool = False) -> Workload:
    steps, restarts = (4, 8) if reduced else (7, 40)
    grid = dynamics.time_grid(2.0, steps)
    models = {
        "eternal": dynamics.model("eternal"),
        "amplitude_damping": dynamics.model("amplitude_damping", {"gamma": 1.0}),
        "jaynes_cummings_toy": dynamics.model("jaynes_cummings_toy"),
    }

    def task(model):
        def run():
            if isinstance(model, dynamics.TotalSystemModel):
                dm = dynamics.reduce(model, grid)
            else:
                dm = dynamics.propagate(model, grid)
            return dynamics.divisibility_report(dm, ks=[1, 2], restarts=restarts, seed=seed)

        return run

    tasks = [Task(name, task(model)) for name, model in models.items()]

    def check(results, ck):
        for name, report in results.items():
            for k, expected in EXPECTED_VERDICTS[name].items():
                ck.expect(name, report.verdicts[k] == expected,
                          f"k={k} verdict {report.verdicts[k]!r}, expected {expected!r}")
            ck.record(
                name,
                **{f"verdict_k{k}": report.verdicts[k] for k in (1, 2)},
                **{f"min_value_k{k}": min(s.certificates[k].min_value for s in report.steps)
                   for k in (1, 2)},
            )

    return Workload(tasks, check)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def witness(seed: int, reduced: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    ens_seeds = _seeds(rng, 3)
    (probe_seed,) = _seeds(rng, 1)
    probs = rng.dirichlet(np.ones(3))
    dm = dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(2.0, 2 if reduced else 11))
    phi2 = states.max_entangled(2).matrix
    ens_states = [states.random_density(4, 2, s) for s in ens_seeds]

    tasks: list[Task] = []
    inputs: dict[str, tuple] = {}
    for j in range(1, len(dm)):
        big = maps.amplify(dm.maps[j], 2)
        rho = states.BipartiteState(2, 2, states.DensityOperator(big.apply(phi2)))
        ens = states.StateEnsemble(probs, [states.DensityOperator(big.apply(s.matrix))
                                           for s in ens_states])
        delta = maps.subtract(dm.maps[j], dm.maps[j - 1])
        tasks += [
            Task(f"h_min[t{j}]", lambda rho=rho: entropy.h_min(rho)),
            Task(f"h_max[t{j}]", lambda rho=rho: entropy.h_max(rho)),
            Task(f"p_guess[t{j}]", lambda ens=ens: discrimination.p_guess(ens)),
            Task(f"diamond_norm[t{j}]", lambda delta=delta: discrimination.diamond_norm(delta)),
        ]
        inputs[f"t{j}"] = (rho, ens, delta)

    # Qutrit programs: a diamond norm with m = 82 of the difference of two
    # seeded random_cptp(3, 2) channels, and a min-entropy with m = 81 on the
    # isotropic state (id (x) depolarizing(q))(Phi+), whose value has the
    # closed form -log2(d (1 - q + q / d^2)).  Known defect: for some pairs
    # (seeds 6, 15 and 21 of 0-29) sdp.solve ends in "numerical-failure" as
    # the final gap is a few 1e-10 below the solver's -1e-10 acceptance; the
    # task then raises SdpError and is counted as failed.
    qa, qb = _seeds(rng, 2)
    q_delta = maps.subtract(maps.random_cptp(3, 2, qa), maps.random_cptp(3, 2, qb))
    q_dep = 0.3
    iso = maps.amplify(maps.depolarizing(q_dep, 3), 3).apply(states.max_entangled(3).matrix)
    iso_state = states.BipartiteState(3, 3, states.DensityOperator(iso))
    if not reduced:
        tasks += [
            Task("diamond_norm[qutrit]", lambda: discrimination.diamond_norm(q_delta)),
            Task("h_min[isotropic3]", lambda: entropy.h_min(iso_state)),
        ]
    probe2 = states.random_pure_vector(4, probe_seed)

    def check(results, ck):
        for key, (rho, ens, delta) in inputs.items():
            lam = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
            # Bell-diagonal closed forms (the eternal model is a Pauli channel)
            hmin_exact = -math.log2(2.0 * lam.max())
            hmax_exact = math.log2(np.sqrt(lam).sum() ** 2 / 2.0)
            name = f"h_min[{key}]"
            if name in results:
                v = results[name]
                ck.record(name, value=v)
                ck.expect(name, abs(v - hmin_exact) <= SDP_TOL, f"h_min {v} != closed form {hmin_exact}")
            name = f"h_max[{key}]"
            if name in results:
                v = results[name]
                ck.record(name, value=v)
                ck.expect(name, abs(v - hmax_exact) <= SDP_TOL, f"h_max {v} != closed form {hmax_exact}")
                if f"h_min[{key}]" in results:
                    ck.expect(name, results[f"h_min[{key}]"] <= v + SDP_TOL, "h_min > h_max")
            name = f"p_guess[{key}]"
            if name in results:
                g = results[name]
                ck.record(name, value=g.value)
                ck.expect(name, abs(g.value - g.sdp_value) <= SDP_TOL,
                          f"projected POVM value {g.value} vs SDP value {g.sdp_value}")
                ck.expect(name, max(ens.probs) - SDP_TOL <= g.value <= 1.0 + SDP_TOL,
                          f"guessing probability {g.value} outside [max p, 1]")
            name = f"diamond_norm[{key}]"
            if name in results:
                v = results[name]
                ck.record(name, value=v)
                for vec in (states.max_entangled_vector(2), probe2):
                    lower = _trace_norm_on(delta, vec)
                    ck.expect(name, v >= lower - BOUND_SLACK,
                              f"diamond norm {v} below a fixed-input value {lower}")
        name = "diamond_norm[qutrit]"
        if name in results:
            v = results[name]
            ck.record(name, value=v)
            lower = _trace_norm_on(q_delta, states.max_entangled_vector(3))
            ck.expect(name, lower - BOUND_SLACK <= v <= 2.0 + BOUND_SLACK,
                      f"diamond norm {v} outside [{lower}, 2]")
        name = "h_min[isotropic3]"
        if name in results:
            v = results[name]
            ck.record(name, value=v)
            exact = -math.log2(3 * (1 - q_dep + q_dep / 9))
            ck.expect(name, abs(v - exact) <= SDP_TOL, f"h_min {v} != closed form {exact}")

    return Workload(tasks, check)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def channels(seed: int, reduced: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    s1, s2, s3, s4 = _seeds(rng, 4)
    p = float(rng.uniform(0.3, 0.7))
    pair_probs = [1.0 - p, p]
    triple_probs = rng.dirichlet(np.ones(3))
    e0, e1, e2 = maps.depolarizing(0.3), maps.random_cptp(2, 2, s1), maps.random_cptp(2, 2, s2)
    q1, q2 = maps.random_cptp(3, 2, s3), maps.random_cptp(3, 2, s4)
    # (restarts, seesaw steps) per guessing task: most solves go to the cheap
    # m = 4 program; 366 small solves in all.  The reduced size keeps the
    # budgets that HELSTROM_BELOW was set for.
    budgets = [(16, 20), (1, 40), (1, 2 if reduced else 6)]

    def guess(probs, chans, k, budget):
        restarts, iters = budget
        return lambda: discrimination.p_guess_channels(
            probs, chans, k, restarts=restarts, seed=seed, iters=iters, tol=-1.0)

    tasks = [
        Task("p_guess_channels[pair,k1]", guess(pair_probs, [e0, e1], 1, budgets[0])),
        Task("p_guess_channels[pair,k2]", guess(pair_probs, [e0, e1], 2, budgets[1])),
        Task("p_guess_channels[triple,k2]", guess(triple_probs, [e0, e1, e2], 2, budgets[2])),
        Task("channel_distance[pair,k1]", lambda: discrimination.channel_distance(e0, e1, p, 1, seed=seed)),
        Task("channel_distance[pair,k2]", lambda: discrimination.channel_distance(e0, e1, p, 2, seed=seed)),
    ]
    if not reduced:
        tasks.append(Task("channel_distance[qutrit,k3]",
                          lambda: discrimination.channel_distance(q1, q2, 0.5, 3, seed=seed)))

    @functools.cache
    def pair_diamond() -> float:
        """Exact optimum over all ancillas, solved at the first check."""
        return discrimination.diamond_norm(maps.weighted_difference(e0, e1, 1.0 - p, p))

    def check(results, ck):
        for name, v in results.items():
            ck.record(name, value=v)
        try:
            diamond = pair_diamond()
        except Exception as exc:  # noqa: BLE001 - the check's own solve failed: flag the tasks it bounds
            diamond = None
            for name in results:
                if "[pair," in name:
                    ck.expect(name, False, f"diamond-norm bound could not be solved: {exc}")
        for k in (1, 2):
            pg, cd = f"p_guess_channels[pair,k{k}]", f"channel_distance[pair,k{k}]"
            if pg in results and cd in results:
                helstrom = (1.0 + results[cd]) / 2.0
                ck.expect(pg, helstrom - HELSTROM_BELOW <= results[pg] <= helstrom + SDP_TOL,
                          f"{results[pg]} != Helstrom value {helstrom}")
            if pg in results and diamond is not None:
                ck.expect(pg, results[pg] <= (1.0 + diamond) / 2.0 + BOUND_SLACK,
                          "above the diamond-norm optimum")
            if cd in results and diamond is not None:
                ck.expect(cd, abs(1 - 2 * p) - BOUND_SLACK <= results[cd] <= diamond + BOUND_SLACK,
                          f"channel distance {results[cd]} outside [|1-2p|, diamond norm]")
        name = "p_guess_channels[triple,k2]"
        if name in results:
            ck.expect(name, max(triple_probs) - BOUND_SLACK <= results[name] <= 1.0 + BOUND_SLACK,
                      f"guessing probability {results[name]} outside [max p, 1]")
        name = "channel_distance[qutrit,k3]"
        if name in results:
            lower = _trace_norm_on(maps.weighted_difference(q1, q2, 0.5, 0.5),
                                   states.max_entangled_vector(3))
            ck.expect(name, lower - BOUND_SLACK <= results[name] <= 1.0 + BOUND_SLACK,
                      f"channel distance {results[name]} outside [{lower}, 1]")

    return Workload(tasks, check)


BY_NAME = {"divisibility": divisibility, "witness": witness, "channels": channels}
