"""Benchmark runner for ``nonmarkov``.

    python3 benchmarks/run.py --workload divisibility --seed 0 --seconds 30 --trace 0

Runs one workload from the checkout's ``src/`` as a closed loop on one
thread: one task at a time, the next starting when the previous returns.
Passes over the workload's tasks repeat until ``--seconds`` have elapsed,
after a discarded warm-up pass over the reduced workload.  Every pass is
checked after it ends, outside the timed region.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref``: median time of one checked pass, each task's time counted
  in units of a fixed reference kernel timed right before and after it (see
  ``ReferenceKernel``); the raw pass time ``wall_s`` is in the details;
* ``setup_s``: median over separate processes of the time from process
  start until the workload's inputs are built, each counted in units of the
  reference kernel timed right before and after it and converted back to
  seconds at ``REF_KERNEL_S`` per kernel run; the raw times are in the
  details;
* ``peak_rss_mb``: peak resident memory after the timed passes.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones (see ``tracing.py``), plus the tracing overhead.

Every metric is printed by name with its unit on standard error; the details
(environment, quartiles, per-task values, failures) are printed as one JSON
line, and the last line of standard output is the result object.  The spans
of the last traced pass are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# BLAS threading changes tiny-matrix kernels by two orders of magnitude, and
# numpy and scipy each load their own OpenBLAS, so pin it before either loads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("divisibility", "witness", "channels")
SETUP_SAMPLES = 7
# Median time of one ``ReferenceKernel.time()`` on a 2-vCPU shared VM at one
# BLAS thread: converts set-up times in kernel units back to seconds.
REF_KERNEL_S = 0.025
READY = "setup-ready"

# Which end-to-end metric each per-layer metric is expected to move, and on
# which workload (a prediction to test against, written before measuring).
MOVES = {
    "accel.kpos_scan": "wall_ref on divisibility; no change on witness and channels (0 calls)",
    "accel.tracenorm_scan": "wall_ref on channels (small share)",
    "sdp.solve.large": "wall_ref on witness (ms_per_iter: Schur assembly)",
    "sdp.solve.small": "wall_ref on channels (per-solve fixed cost)",
    "sdp.solve": "iterations must stay equal under an iterate-preserving refactor; "
                 "0 calls on divisibility",
    "sdp.SdpProblem": "wall_ref on channels (construction and validation)",
    "discrimination.p_guess_channels": "wall_ref on channels",
    "discrimination.p_guess": "wall_ref on channels (POVM projection)",
    "discrimination.diamond_norm": "wall_ref on witness",
    "discrimination.channel_distance": "wall_ref on channels",
    "entropy.h_min": "wall_ref on witness (self_s: program building)",
    "entropy.h_max": "wall_ref on witness (self_s: program building)",
    "dynamics.propagate": "wall_ref on divisibility (about 1% of the pass)",
    "dynamics.reduce": "wall_ref on divisibility",
    "dynamics.divisibility_report": "wall_ref on divisibility",
    "maps.k_positivity": "wall_ref on divisibility; nonzero sdp.solve.calls if it gains an SDP",
    "maps": "wall_ref on divisibility and channels",
    "linalg": "wall_ref on every workload (spectral helpers)",
    "trace": "tracing overhead: traced minus untraced pass time",
}


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    if not SPEC_FILE.is_file():
        _fail(f"{SPEC_FILE.name} not found at the checkout root")
    return json.loads(SPEC_FILE.read_text())


def _check_sources() -> None:
    if not (SRC / "nonmarkov" / "__init__.py").is_file():
        _fail(f"no library sources at {SRC}; run from a full checkout")


def _import_library():
    """Import ``nonmarkov`` from this checkout's ``src/``, never elsewhere."""
    _check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nonmarkov
    from nonmarkov import _accel, discrimination, dynamics, entropy, linalg, maps, sdp  # noqa: F401

    if Path(nonmarkov.__file__).resolve().parent != SRC / "nonmarkov":
        _fail(f"imported nonmarkov from {nonmarkov.__file__}, not from {SRC}")
    return nonmarkov


def environment(seed: int) -> dict:
    import numpy
    import scipy

    nonmarkov = sys.modules["nonmarkov"]

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "accel": nonmarkov._accel.ACCEL,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "loop": "closed, one client, one thread",
    }


def _setup_child(workload: str, seed: int) -> None:
    _import_library()
    import workloads

    workloads.BY_NAME[workload](seed)
    print(READY, flush=True)


def measure_setup(workload: str, seed: int, samples: int, kernel) -> tuple[list, list]:
    """Time fresh processes from spawn until their inputs are built.

    Returns the raw times and the same times in seconds at the nominal
    kernel speed (each divided by the mean of the kernel runs right before
    and after it, times ``REF_KERNEL_S``).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(samples):
        before = kernel.time()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line.strip() != READY or code != 0:
            _fail(f"set-up process exited with code {code} before building inputs")
        after = kernel.time()
        raw.append(elapsed)
        scaled.append(elapsed / ((before + after) / 2) * REF_KERNEL_S)
    return raw, scaled


def _quartiles(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class ReferenceKernel:
    """Fixed work timed before every task and after the last one.

    On a shared host, other tenants can slow a process by 20-50% for
    seconds to minutes at a time, which moves raw pass times between runs by
    more than any bound worth having.  The slowdown hits this kernel
    (small-matrix eigh and QR driven from Python, the same mix of interpreter
    and LAPACK work as the library) in about the same proportion: on a
    2-vCPU shared VM, median pass times moved 18-34% (IQR over median)
    across ten runs while the same times in kernel units moved 3-9%.  The
    kernel calls numpy only, so no change to the library can move it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        a = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
        self._mats = list(a + a.conj().transpose(0, 2, 1))
        self.checksum = 0.0

    def time(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = 0.0
        for _ in range(20):
            for m in self._mats:
                w, v = np.linalg.eigh(m)
                q, _ = np.linalg.qr(v)
                acc += w[0] + abs((q @ m)[0, 0])
        elapsed = time.perf_counter() - start
        self.checksum = acc
        return elapsed


@dataclass
class PassResult:
    wall: float  # summed task time, seconds
    wall_ref: float  # summed task time, each task in units of its adjacent kernel times
    refs: list  # reference-kernel times before each task and after the last
    results: dict
    errors: dict


def run_pass(workload, kernel: ReferenceKernel, tracer=None) -> PassResult:
    """Run every task once, timing the reference kernel between tasks."""
    results, errors, wall, wall_ref = {}, {}, 0.0, 0.0
    refs = [kernel.time()]
    for task in workload.tasks:
        if tracer is not None:
            tracer.task = task.name
        start = time.perf_counter()
        try:
            results[task.name] = task.run()
        except Exception as exc:  # noqa: BLE001 - a failing task is counted, the run goes on
            errors[task.name] = "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        refs.append(kernel.time())
        wall += elapsed
        # The host's speed changes on a scale of seconds, so each task is
        # measured against the kernel runs right before and after it.
        wall_ref += elapsed / ((refs[-2] + refs[-1]) / 2)
    return PassResult(wall, wall_ref, refs, results, errors)


def _close(a, b, rel_tol: float) -> bool:
    if isinstance(b, str) or isinstance(a, str):
        return a == b
    return abs(a - b) <= rel_tol * max(1.0, abs(b))


def check_pass(workload, p: PassResult, reference) -> tuple[dict, dict]:
    """Per-task problems of one pass, and the values the check recorded."""
    import workloads

    ck = workloads.Checker()
    try:
        workload.check(p.results, ck)
    except Exception as exc:  # noqa: BLE001 - a check that raises is a failure, the run goes on
        ck.expect("check", False, "raised " + "".join(traceback.format_exception_only(exc)).strip())
    problems = {name: [f"raised {msg}"] for name, msg in p.errors.items()}
    for name, msgs in ck.problems.items():
        problems.setdefault(name, []).extend(msgs)
    if reference is not None:
        rel_tol = reference["rel_tol"]
        for task in workload.tasks:
            expected = reference["values"].get(task.name)
            got = ck.values.get(task.name)
            if expected is None or got is None:
                if task.name not in p.errors:
                    problems.setdefault(task.name, []).append("no reference value")
                continue
            for key, want in expected.items():
                if key not in got or not _close(got[key], want, rel_tol):
                    problems.setdefault(task.name, []).append(
                        f"{key}={got.get(key)!r} differs from the reference {want!r}")
    return problems, ck.values


def load_reference(workload: str, seed: int, reduced: bool):
    """Values recorded at the reference seed; a value matches when it is
    within rel_tol * max(1, |recorded|) (1e-6), or equal for a verdict."""
    doc = json.loads(REFERENCE_FILE.read_text())
    if reduced or seed != doc["seed"]:
        return None
    return {"rel_tol": doc["rel_tol"], "values": doc["workloads"][workload]}


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  reduced: bool = False, reference: dict | None = None,
                  setup_samples: int = SETUP_SAMPLES, write_spans: bool = True) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, details).

    Values are compared with ``reference`` when given, else with the
    recorded ones at the reference seed and full size.
    """
    _check_sources()
    kernel = ReferenceKernel()
    setup_raw, setup_scaled = measure_setup(workload_name, seed, setup_samples, kernel)
    nonmarkov = _import_library()
    import tracing
    import workloads

    if reference is None:
        reference = load_reference(workload_name, seed, reduced)
    workload = workloads.BY_NAME[workload_name](seed, reduced)

    attempted = failed = 0
    failures: dict[str, list[str]] = {}
    values = {}

    def account(p: PassResult, wl=workload, ref=reference) -> bool:
        """Check one pass of ``wl``; True when every task in it passed."""
        nonlocal attempted, failed, values
        problems, values = check_pass(wl, p, ref)
        attempted += len(wl.tasks)
        failed += len(problems)
        for name, msgs in problems.items():
            seen = failures.setdefault(name, [])
            seen.extend(m for m in msgs if m not in seen)
        return not problems

    tracer = tracing.Tracer()
    # Warm-up: the first calls into each code path are ~20% slower, and a
    # pass over the reduced workload takes the same paths in less time.
    warm = workloads.BY_NAME[workload_name](seed, True)
    account(run_pass(warm, kernel), warm, None)

    untraced, traced, layer_samples = [], [], []

    def traced_pass():
        tracer.reset()
        tracer.install(nonmarkov)
        try:
            p = run_pass(workload, kernel, tracer)
        finally:
            tracer.uninstall()
        traced.append((p, account(p)))
        layer_samples.append(tracing.summarize(tracer.spans, p.wall))

    window_start = time.perf_counter()
    while True:
        # With tracing, untraced and traced passes alternate, swapping order
        # each round so that drift over the run does not bias the overhead.
        if trace and len(untraced) % 2:
            traced_pass()
        p = run_pass(workload, kernel)
        untraced.append((p, account(p)))
        if trace and len(untraced) % 2:
            traced_pass()
        elapsed = time.perf_counter() - window_start
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def checked(samples):
        """Passes whose checks all passed (all passes if none did)."""
        ok = [p for p, good in samples if good]
        return ok or [p for p, _ in samples]

    passes = checked(untraced)
    details = {
        "workload": workload_name,
        "env": environment(seed),
        "reduced": reduced,
        "reference_checked": reference is not None,
        "wall_s": _quartiles([p.wall for p in passes]),
        "ref_kernel_s": _quartiles([r for p in passes for r in p.refs]),
        "wall_ref": _quartiles([p.wall_ref for p in passes]),
        "setup_raw_s": _quartiles(setup_raw),
        "setup_s": _quartiles(setup_scaled),
        "tasks": values,
        "failures": failures,
    }
    if trace:
        metrics = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
        traced_passes = checked(traced)
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced_passes)
                                       - details["wall_s"]["median"])
        # The same difference in reference-kernel units, as a share of the
        # untraced pass: unlike the seconds, it does not move with the host.
        metrics["trace.overhead_ratio"] = (statistics.median(p.wall_ref for p in traced_passes)
                                           / details["wall_ref"]["median"] - 1.0)
        details["traced_wall_s"] = _quartiles([p.wall for p in traced_passes])
        details["layers"] = metrics
        details["moves"] = MOVES
        if write_spans:
            OUT_DIR.mkdir(exist_ok=True)
            out = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
            out.write_text(json.dumps(tracer.to_jsonable()))
            details["spans_file"] = str(out.relative_to(ROOT))
    else:
        metrics = {
            "wall_ref": details["wall_ref"]["median"],
            "setup_s": details["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, details


def format_result(spec: dict, result: dict, trace: bool) -> dict:
    """Keep exactly the metrics BENCHMARK.json names, with their units."""
    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in result["metrics"]:
            _fail(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    return {**result, "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.setup_only:
        _setup_child(args.workload, args.seed)
        return 0
    spec = load_spec()
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    result = format_result(spec, result, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{args.workload:>12}  {name:<44} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
