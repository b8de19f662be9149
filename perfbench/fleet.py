"""``fleet_compile``: cold compiles of the builtin scenario fleet, in-process.

Set-up expands ``builtin:ams_fleet`` into its 106 instances.  The timed
loop runs ``compile_instance`` over the fleet in whole passes, serially;
each pass compiles into a fresh empty cache directory, so every compile is
a miss (simulate, then an atomic ``.npz`` write).  The seed shuffles the
compile order of each pass.  Measuring ends at the first pass boundary
after the run's seconds, and not before ``MIN_PASSES`` passes, so every
circuit type is equally represented and a p99 has at least 1000 samples.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from common import OUT, Phase, peak_rss_mb
from tracing import SpanRecorder, Spans

DOCUMENT = "builtin:ams_fleet"
FLEET_SIZE = 106
MIN_PASSES = 10
CIRCUITS = ("adc", "r2r_dac", "sar_adc", "svf", "opamp", "ota")


def pass_order(seed: int, n_pass: int):
    """Compile order of the fleet's instances in pass ``n_pass``."""
    return np.random.default_rng([seed, n_pass]).permutation(FLEET_SIZE)


def input_digest(seed: int, passes: int = 20) -> str:
    """sha256 over the compile orders of the first ``passes`` passes."""
    return hashlib.sha256(b"".join(pass_order(seed, p).tobytes() for p in range(passes))).hexdigest()


class State:
    def __init__(self, seed: int, instances) -> None:
        self.seed = seed
        self.instances = instances


def setup(seed: int, rec: Optional[SpanRecorder] = None) -> State:
    from repro import scenarios

    expand = scenarios.expand if rec is None else rec.wrap(scenarios.expand, "scenarios.expand")
    instances = expand(scenarios.load_scenario_doc(scenarios.builtin_document_path(DOCUMENT)))
    hashes = {inst.config_hash for inst in instances}
    if len(instances) != FLEET_SIZE or len(hashes) != FLEET_SIZE:
        raise RuntimeError(
            f"{DOCUMENT}: {len(instances)} instances with {len(hashes)} distinct "
            f"config hashes, expected {FLEET_SIZE} of each"
        )
    return State(seed, instances)


def run(state: State, seconds: float, rec: Optional[SpanRecorder] = None) -> Phase:
    from repro.circuits.registry import get_circuit
    from repro.scenarios import compile_instance

    dims = {c: len(get_circuit(c).metric_names) for c in CIRCUITS}
    phase = Phase()
    cache_bytes = []
    scratch = Path(tempfile.mkdtemp(prefix="fleet-", dir=OUT / "tmp"))
    start = phase.start()
    n_pass = 0
    try:
        while n_pass < MIN_PASSES or time.perf_counter() - start < seconds:
            cache = scratch / f"pass-{n_pass}"
            for j in pass_order(state.seed, n_pass):
                phase.tick()
                inst = state.instances[j]
                if rec is not None:
                    rec.request_id = phase.attempted
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    ds, report = compile_instance(inst, cache_dir=cache)
                except Exception as exc:  # any exception is a failed op
                    phase.fail(f"{inst.name}: {type(exc).__name__}: {exc}")
                    continue
                phase.add(time.perf_counter() - t0)
                shape = (inst.n_samples, dims[inst.circuit])
                written = Path(report["cache_path"])
                if report["cache_hit"]:
                    phase.fail(f"{inst.name}: cache hit in a cold pass")
                elif ds.early.shape != shape or ds.late.shape != shape:
                    phase.fail(f"{inst.name}: dataset shape {ds.early.shape}, expected {shape}")
                elif not written.is_file():
                    phase.fail(f"{inst.name}: no cache entry written")
                else:
                    cache_bytes.append(written.stat().st_size)
            n_pass += 1
        phase.stop()
        phase.peak_rss_mb = peak_rss_mb()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if rec is not None:
        rec.request_id = -2
    phase.record["passes"] = n_pass
    phase.record["cache_bytes_per_instance"] = float(np.mean(cache_bytes)) if cache_bytes else 0.0
    return phase


def instrument(rec: SpanRecorder) -> Dict[str, int]:
    import repro.io
    from repro import scenarios
    from repro.scenarios import compiler

    rec.patch(compiler, "generate_dataset", lambda args, kwargs: f"circuits.generate.{args[0]}")
    rec.patch(repro.io, "save_dataset", "io.save_dataset")
    rec.patch(scenarios, "compile_instance", "scenarios.compile_instance")
    return {}


def per_layer(state: State, phase: Phase, spans: Spans, counters) -> Dict[str, float]:
    loop = spans.request >= 0
    report = spans.report(loop, phase.wall_s - phase.paused_s)
    phase.record["trace_report"] = report
    out = {
        "scenarios.expand_ms": spans.mean_ms("scenarios.expand", spans.request == -1),
        "io.save_dataset_ms": spans.mean_ms("io.save_dataset", loop),
        "io.cache_bytes_per_instance": phase.record["cache_bytes_per_instance"],
        "trace.uncovered_share": report["uncovered_share"],
    }
    for circuit in CIRCUITS:
        # time in generate_dataset minus its cache write (the only child span)
        out[f"circuits.generate_ms.{circuit}"] = spans.mean_ms(
            f"circuits.generate.{circuit}", loop, self_only=True
        )
    return out
