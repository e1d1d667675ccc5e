"""Span tracing installed from outside the library.

``Tracer.install`` replaces the public entry points listed in ``WRAPPED`` with
wrappers on their module attributes.  Every call inside the package goes
through a module attribute (``sdp.solve``, ``_accel.kpos_scan``, the module
global ``p_guess``), so the wrappers see every call, including the nested
ones.  ``sdp.SdpProblem`` is a class that callers construct and type-check,
so its ``__init__`` is wrapped instead of the name.  ``states`` is left alone
for the same reason: its entry points are dataclasses.

The wrappers are installed only around a traced pass, so untraced passes run
the library unchanged.  A span is ``(name, start, end, parent, task, attrs)``;
spans are kept in memory and summarised (or written out) after the pass.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field

# module attribute -> functions wrapped on it.  Metric prefixes drop the
# leading underscore of ``_accel`` because metric names must start with a
# letter.
WRAPPED = {
    "dynamics": ("propagate", "reduce", "divisibility_report"),
    "maps": ("k_positivity", "inverse", "is_cptp", "amplify", "adjoint"),
    "_accel": ("kpos_scan", "tracenorm_scan"),
    "sdp": ("solve",),
    "entropy": ("h_min", "h_max"),
    "discrimination": ("p_guess", "p_guess_channels", "channel_distance", "diamond_norm"),
    "linalg": ("eigh", "min_eig", "operator_norm", "trace_norm", "spectral_fn"),
}

# sdp.solve calls with m <= SMALL_M constraints count as "small".
SMALL_M = 32


def layer_of(module: str) -> str:
    return module.lstrip("_")


# Span attributes, read from a call's positional arguments (the package
# passes these positionally) and its result.
ATTRS = {
    "accel.kpos_scan": lambda args, result: {"restarts": int(args[4].shape[0])},
    "accel.tracenorm_scan": lambda args, result: {"restarts": int(args[1].shape[0])},
    "sdp.solve": lambda args, result: {
        "m": args[0].m, "iterations": result.iterations, "optimal": result.optimal},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    task: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span for every call to a wrapped function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task = ""
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.task)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            # A call that raised keeps empty attrs; summarize() reads them
            # with defaults and counts such a solve as non-optimal.
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        for module_name, names in WRAPPED.items():
            module = getattr(package, module_name)
            for fname in names:
                orig = getattr(module, fname)
                setattr(module, fname, self._wrap(f"{layer_of(module_name)}.{fname}", orig))
                self._restore.append((module, fname, orig))
        problem_cls = package.sdp.SdpProblem
        orig_init = problem_cls.__init__
        problem_cls.__init__ = self._wrap("sdp.SdpProblem", orig_init)
        self._restore.append((problem_cls, "__init__", orig_init))

    def uninstall(self) -> None:
        for owner, fname, orig in reversed(self._restore):
            setattr(owner, fname, orig)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def to_jsonable(self) -> list:
        return [asdict(s) for s in self.spans]


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list[Span], pass_wall: float) -> dict:
    """Per-layer numbers for one traced pass.

    ``busy_s`` is the summed duration of a function's spans, ``self_s`` that
    minus the time covered by its direct children, and ``<layer>.share`` the
    part of the pass covered by any span of that layer.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out: dict[str, float] = {}
    for module_name, names in WRAPPED.items():
        for fname in names:
            key = f"{layer_of(module_name)}.{fname}"
            out[f"{key}.calls"] = 0
            out[f"{key}.busy_s"] = 0.0
            out[f"{key}.self_s"] = 0.0
    out["sdp.SdpProblem.calls"] = 0
    out["sdp.SdpProblem.busy_s"] = 0.0
    out["sdp.SdpProblem.self_s"] = 0.0
    for i, s in enumerate(spans):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_s"] += s.duration
        out[f"{s.name}.self_s"] += s.duration - child_time[i]

    for key in ("accel.kpos_scan", "accel.tracenorm_scan"):
        restarts = sum(s.attrs.get("restarts", 0) for s in spans if s.name == key)
        out[f"{key}.restarts"] = restarts
        out[f"{key}.ms_per_restart"] = 1e3 * out[f"{key}.busy_s"] / restarts if restarts else 0.0

    solves = [s for s in spans if s.name == "sdp.solve"]
    for prefix, group in (
        ("sdp.solve", solves),
        ("sdp.solve.small", [s for s in solves if s.attrs.get("m", 0) <= SMALL_M]),
        ("sdp.solve.large", [s for s in solves if s.attrs.get("m", 0) > SMALL_M]),
    ):
        busy = sum(s.duration for s in group)
        iters = sum(s.attrs.get("iterations", 0) for s in group)
        out[f"{prefix}.calls"] = len(group)
        out[f"{prefix}.busy_s"] = busy
        out[f"{prefix}.iterations"] = iters
        out[f"{prefix}.ms_per_iter"] = 1e3 * busy / iters if iters else 0.0
        out[f"{prefix}.nonoptimal"] = sum(1 for s in group if not s.attrs.get("optimal"))

    linalg_spans = [s for s in spans if s.name.startswith("linalg.")]
    out["linalg.calls"] = len(linalg_spans)
    out["linalg.busy_s"] = sum(s.duration for s in linalg_spans)

    for module_name in WRAPPED:
        layer = layer_of(module_name)
        covered = _union_length(
            (s.start, s.end) for s in spans if s.name.split(".", 1)[0] == layer
        )
        out[f"{layer}.share"] = covered / pass_wall if pass_wall > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
