"""The benchmark tracer's contract with the library.

``benchmarks/tracing.py`` looks up every name in ``WRAPPED`` on the package's
modules and reads positional arguments of ``kpos_scan``, ``tracenorm_scan``
and ``sdp.solve``.  A few tiny traced calls check both, so that renaming or
deleting one of those entry points fails here and not only in a traced
benchmark run.
"""

import sys
from pathlib import Path

import nonmarkov
from nonmarkov import _accel, discrimination, dynamics, entropy, linalg, maps, sdp  # noqa: F401
from nonmarkov.states import max_entangled

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import tracing  # noqa: E402


def originals():
    """(owner, name, function) of everything ``Tracer.install`` replaces."""
    out = [(getattr(nonmarkov, m), f) for m, names in tracing.WRAPPED.items() for f in names]
    out.append((sdp.SdpProblem, "__init__"))
    return [(owner, f, getattr(owner, f)) for owner, f in out]


def test_traced_calls_report_their_attributes():
    before = originals()
    tracer = tracing.Tracer()
    tracer.install(nonmarkov)
    try:
        dm = dynamics.propagate(dynamics.model("eternal"), dynamics.time_grid(1.0, 3))
        dynamics.divisibility_report(dm, [1], restarts=2)
        discrimination.channel_distance(dm.maps[1], dm.maps[2], 0.5, 1, restarts=2)
        entropy.h_min(max_entangled(2))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, f) is fn for owner, f, fn in before)

    out = tracing.summarize(tracer.spans, 1.0)
    assert out["accel.tracenorm_scan.restarts"] == 2
    assert out["accel.kpos_scan.restarts"] > 0
    assert out["sdp.solve.calls"] == 1
    # The divisibility pass inverts its family through maps.inverse, and
    # propagate and the pass check and search their families through
    # maps.is_cptp and maps.k_positivity.
    assert out["maps.inverse.calls"] >= 1
    assert out["maps.is_cptp.calls"] >= 1
    assert out["maps.k_positivity.calls"] >= 1
