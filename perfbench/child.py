"""One benchmark process: set a workload up, measure it, check its outputs.

``run.py`` starts this script in a fresh interpreter per run (and per
extra set-up sample).  The last stdout line is one JSON object.

Untraced (``--trace 0``): set up, print nothing until done, measure for
``--seconds``, report the end-to-end metrics.  ``--setup-only`` stops
after set-up.  Traced (``--trace 1``): measure half the time untraced,
then patch spans around each layer's public functions, set up again and
measure the other half traced; report the per-layer metrics and the
throughput gap between the halves.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

from common import MIN_OPS_FOR_P99, WORKLOADS, emit, use_checkout_package


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def untraced(mod, workload: str, seed: int, seconds: float, spawned_at: float,
             setup_only: bool = False, min_ops: int = MIN_OPS_FOR_P99) -> dict:
    """Set up, then measure for ``seconds``.

    Set-up is timed from ``spawned_at`` (this process's start) for the
    in-process workloads, and from the server's start for serving.
    """
    if mod.__name__ == "serve":
        state = mod.setup(mod.make_stream(workload, seed, 0 if setup_only else seconds))
        spawned_at = state.server.spawned_at
    else:
        state = mod.setup(seed)
    out: dict = {"setup_s": time.monotonic() - spawned_at}
    if setup_only:
        if mod.__name__ == "serve":
            mod.teardown(state)
        return out
    try:
        phase = mod.run(state, seconds)
    finally:
        if mod.__name__ == "serve":
            mod.teardown(state)
    out.update(attempted=phase.attempted, failures=phase.failures, record=phase.record,
               speed=phase.speed)
    try:
        out["metrics"] = phase.end_to_end(min_ops)
    except ValueError as exc:  # too few ops for a percentile
        out["failures"] = phase.failures + [str(exc)]
    return out


def _traced(args, mod, base: dict) -> dict:
    from tracing import SpanRecorder

    half = args.seconds / 2.0
    if mod.__name__ == "serve":
        stream = mod.make_stream(args.workload, args.seed, half)
        phases = []
        for traced in (False, True):
            state = mod.setup(stream, traced)
            try:
                phases.append(mod.run(state, half))
                layers = mod.per_layer(state, phases[-1]) if traced else {}
            finally:
                mod.teardown(state)
        plain, traced_phase = phases
    else:
        plain = mod.run(mod.setup(args.seed), half)
        rec = SpanRecorder()
        counters = mod.instrument(rec)
        state = mod.setup(args.seed, rec)
        traced_phase = mod.run(state, half, rec)
        layers = mod.per_layer(state, traced_phase, rec.spans(), counters)
        layers["import.repro_s"] = base["import_s"]
        layers["import.scipy_stats_eager"] = float(base["scipy_stats_eager"])
    rate = [p.rate for p in (plain, traced_phase)]
    layers["trace.overhead_share"] = 1.0 - rate[1] / rate[0]
    base.update(
        attempted=plain.attempted + traced_phase.attempted,
        failures=plain.failures + traced_phase.failures,
        record={"untraced": plain.record, "traced": traced_phase.record, "throughput": rate},
        per_layer=layers,
    )
    return base


def workload_module(workload: str):
    if workload == "paper_fusion":
        import fusion as mod
    elif workload == "fleet_compile":
        import fleet as mod
    else:
        import serve as mod
    return mod


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warm", action="store_true", help="fill the dataset cache and exit")
    args = parser.parse_args(argv)

    use_checkout_package()
    if args.setup_only:
        # the package is imported inside set-up (in-process workloads) or
        # while the server starts (serving), as a user's process would
        mod = workload_module(args.workload)
        emit(untraced(mod, args.workload, args.seed, args.seconds, args.spawned_at, True))
        return 0
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package's cold import)

    base = {
        "import_s": time.perf_counter() - t0,
        "scipy_stats_eager": "scipy.stats" in sys.modules,
        "versions": _versions(),
    }
    if args.warm:
        import fusion

        fusion.warm()
        emit({"warmed": fusion.is_warm()})
        return 0
    mod = workload_module(args.workload)
    if args.trace:
        emit(_traced(args, mod, base))
    else:
        emit(dict(base, **untraced(mod, args.workload, args.seed, args.seconds, args.spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
