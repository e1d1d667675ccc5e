"""Self-test of the benchmark; prints every metric of every workload.

    python3 benchmarks/selftest.py

Runs each workload at a reduced size, untraced and traced, and fails (exit
code 1) unless:

* every run passes its checks with no failed task;
* every metric that BENCHMARK.json names is emitted, with its unit;
* a deliberately wrong value (a perturbed reference value, a wrong expected
  divisibility verdict, and a channel-guessing probability moved off the
  Helstrom value) makes the check report a failure.
"""

from __future__ import annotations

import copy
import re
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 1


def reduced_run(workload: str, trace: bool, reference=None) -> tuple[dict, dict]:
    return run.run_benchmark(workload, SEED, seconds=0, trace=trace, reduced=True,
                             reference=reference, setup_samples=1, write_spans=False)


def main() -> int:
    problems = []
    spec = run.load_spec()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    if len(set(names)) != len(names) or not all(NAME.match(n) for n in names):
        problems.append("BENCHMARK.json metric names are not unique and well formed")

    values = {}
    for w in (wl["name"] for wl in spec["workloads"]):
        for trace in (False, True):
            result, details = reduced_run(w, trace)
            formatted = run.format_result(spec, result, trace)  # exits if a metric is missing
            for name, m in formatted["metrics"].items():
                print(f"{w:>12}  trace={int(trace)}  {name:<44} {m['value']:.6g} {m['unit']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w} trace={int(trace)}: checks failed: {details['failures']}")
            values[w] = details["tasks"]

    # The reference comparison accepts the values a run produced and rejects
    # a perturbed one; a wrong expected verdict is rejected too.
    import workloads

    w = "divisibility"
    reference = {"rel_tol": 1e-6, "values": values[w]}
    result, _ = reduced_run(w, False, reference)
    if not result["correct"]:
        problems.append("a run was rejected against its own values")
    wrong = copy.deepcopy(reference)
    wrong["values"]["eternal"]["min_value_k1"] += 1e-3
    result, details = reduced_run(w, False, wrong)
    if result["correct"] or not result["failed"]:
        problems.append("a wrong reference value was not reported as a failure")
    else:
        print(f"wrong reference value reported: {details['failures']}")

    saved = workloads.EXPECTED_VERDICTS["eternal"][1]
    workloads.EXPECTED_VERDICTS["eternal"][1] = workloads.NOT_DIVISIBLE
    try:
        result, details = reduced_run(w, False)
    finally:
        workloads.EXPECTED_VERDICTS["eternal"][1] = saved
    if result["correct"] or not result["failed"]:
        problems.append("a wrong expected verdict was not reported as a failure")
    else:
        print(f"wrong expected verdict reported: {details['failures']}")

    # A guessing probability moved off the Helstrom value (1 + distance) / 2
    # by more than the stated tolerance, either way, fails the check.
    chans = workloads.channels(SEED, reduced=True)
    results = {t.name: t.run() for t in chans.tasks}
    ck = workloads.Checker()
    chans.check(results, ck)
    if ck.problems:
        problems.append(f"channels failed its check unperturbed: {ck.problems}")
    task = "p_guess_channels[pair,k1]"
    for shift in (-2 * workloads.HELSTROM_BELOW, 1e-5):
        ck = workloads.Checker()
        chans.check({**results, task: results[task] + shift}, ck)
        if task not in ck.problems:
            problems.append(f"{task} shifted by {shift:g} passed the Helstrom check")
        else:
            print(f"{task} shifted by {shift:g} reported: {ck.problems[task]}")

    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
