"""Shared pieces of the benchmark: paths, metric tables, statistics.

Everything here is stdlib-only so the orchestrator (``run.py``) can import
it without paying for NumPy or the package under test.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``BENCHMARK.json`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lands under here (listed in ``.gitignore``).
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("paper_fusion", "serve_ingest", "serve_query", "fleet_compile")

#: End-to-end metrics: name -> unit.  Every run reports all of them.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

_GENERATE = tuple(
    (f"circuits.generate_ms.{c}", "ms", ("fleet_compile",))
    for c in ("adc", "r2r_dac", "sar_adc", "svf", "opamp", "ota")
)
_SERVE = ("serve_ingest", "serve_query")

#: Per-layer metrics of the traced run: (name, unit, workloads exercising it).
#: A traced run reports every name; layers its workload does not exercise
#: read 0.
PER_LAYER: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("import.repro_s", "s", WORKLOADS),
    ("import.scipy_stats_eager", "bool", WORKLOADS),
    ("trace.overhead_share", "share", WORKLOADS),
    ("trace.uncovered_share", "share", WORKLOADS),
    ("io.load_dataset_ms", "ms", ("paper_fusion",)),
    ("core.pipeline.fit_ms", "ms", ("paper_fusion",)),
    ("core.preprocessing.transform_ms", "ms", ("paper_fusion",)),
    ("core.crossval.select_ms", "ms", ("paper_fusion",)),
    ("linalg.batched.cholesky_safe_ms", "ms", ("paper_fusion",)),
    ("linalg.batched.matrices_per_select", "count", ("paper_fusion",)),
    ("linalg.batched.bytes_per_select", "bytes", ("paper_fusion",)),
    ("linalg.batched.unusable_share", "share", ("paper_fusion",)),
    ("core.bmf.estimate_ms", "ms", ("paper_fusion",)),
    ("core.pipeline.self_ms", "ms", ("paper_fusion",)),
    ("core.crossval.edge_pick_share", "share", ("paper_fusion",)),
    ("serving.protocol.handle_read_ms", "ms", _SERVE),
    ("serving.protocol.handle_write_ms", "ms", _SERVE),
    ("serving.protocol.encode_ms", "ms", _SERVE),
    ("serving.router.ingest_ms", "ms", _SERVE),
    ("serving.router.flush_ms", "ms", _SERVE),
    ("serving.router.flush_calls", "count/kreq", _SERVE),
    ("serving.router.query_many_ms", "ms", _SERVE),
    ("serving.router.queries_per_call", "count", _SERVE),
    ("serving.worker.ingest_ms", "ms", _SERVE),
    ("serving.worker.rows_per_block", "count", _SERVE),
    ("serving.scoring.score_ms", "ms", _SERVE),
    ("serving.wal.append_us", "us", _SERVE),
    ("serving.wal.bytes_per_row", "bytes", _SERVE),
    ("serving.wal.flushes_per_krow", "count", _SERVE),
    ("serving.loop.busy_share", "share", _SERVE),
    ("client.busy_share", "share", _SERVE),
    ("serving.sessions_evicted", "count", _SERVE),
    ("serving.errors", "count", _SERVE),
    ("scenarios.expand_ms", "ms", ("fleet_compile",)),
    *_GENERATE,
    ("io.save_dataset_ms", "ms", ("fleet_compile",)),
    ("io.cache_bytes_per_instance", "bytes", ("fleet_compile",)),
)


def per_layer_units() -> Dict[str, str]:
    return {name: unit for name, unit, _ in PER_LAYER}


def complete_per_layer(workload: str, values: Dict[str, float]) -> Dict[str, float]:
    """All per-layer names: the workload's own must be present, others read 0."""
    out: Dict[str, float] = {}
    for name, _unit, users in PER_LAYER:
        if workload in users:
            if name not in values:
                raise KeyError(f"{workload}: traced run did not measure {name}")
            out[name] = float(values[name])
        else:
            out[name] = 0.0
    unknown = set(values) - set(out)
    if unknown:
        raise KeyError(f"{workload}: unlisted per-layer metrics {sorted(unknown)}")
    return out


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default) without NumPy."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


#: A p99 needs at least ten samples beyond it.
MIN_OPS_FOR_P99 = 1000


def latency_block(prefix: str, seconds: Sequence[float], min_ops: int = MIN_OPS_FOR_P99) -> Dict[str, float]:
    """``<prefix>_p50_ms`` and ``<prefix>_p99_ms`` from per-op seconds."""
    if len(seconds) < min_ops:
        raise ValueError(f"{prefix}: {len(seconds)} ops is too few for a p99 (need >= {min_ops})")
    ms = [s * 1e3 for s in seconds]
    return {f"{prefix}_p50_ms": percentile(ms, 50.0), f"{prefix}_p99_ms": percentile(ms, 99.0)}


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def child_env() -> Dict[str, str]:
    """Environment for every process a run starts: the checkout's package,
    all caches and temp files inside the checkout, single-threaded BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_DATASET_CACHE_DIR"] = str(OUT / "datasets")
    env["XDG_CACHE_HOME"] = str(OUT / "xdg")
    env["TMPDIR"] = str(OUT / "tmp")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def use_checkout_package() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; stop if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


def emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


#: Reference-loop iterations per second of the nominal machine that
#: reported times are scaled to (slices on the 2-vCPU build VM read 30k-65k).
REF_RATE = 40000.0
#: Length of one reference slice, and how often a timed phase takes one.
REF_SLICE_S = 0.03
CALIBRATE_EVERY_S = 1.0


def reference_rate(seconds: float) -> float:
    """Iterations per second of a fixed loop (interpreter work plus small
    NumPy/LAPACK calls) that does not touch the package under test.

    The host's CPU speed drifts by tens of percent over tens of seconds;
    this loop's rate tracks that drift (r = 0.92 against ``paper_fusion``
    throughput over ten runs), so times are reported scaled by it.
    """
    import numpy as np

    matrix = np.eye(5) + 0.1
    count = 0
    start = time.perf_counter()
    end = start + seconds
    while True:
        acc = 0
        for i in range(100):
            acc += i * i
        np.linalg.cholesky(matrix @ matrix.T)
        np.sum(matrix * 2.0)
        count += 1
        now = time.perf_counter()
        if now >= end:
            return count / (now - start)


class Phase:
    """Outcome of one measured phase of a workload.

    Reported times are scaled to the nominal machine (``REF_RATE``) by the
    reference slices taken during the phase, about one a second: each op
    and each stretch of measuring time between two slices is scaled by
    the median rate of the three slices nearest to it.
    """

    def __init__(self, split: bool = False) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.started_at = self.wall_s = 0.0
        #: Per-op seconds: ``all``, and by ``read``/``write`` class if ``split``.
        self.latency: Dict[str, List[float]] = {"all": []}
        if split:
            self.latency.update(read=[], write=[])
        #: For each op of ``latency``, the reference slice it followed.
        self.slice_of: Dict[str, List[int]] = {cls: [] for cls in self.latency}
        self.peak_rss_mb = 0.0
        #: Reference slices: rate, and when each began and ended.
        self.calibration: List[float] = []
        self._slices: List[Tuple[float, float]] = []
        self.paused_s = 0.0
        #: Facts worth keeping in the run record (digests, counts...).
        self.record: Dict[str, object] = {}

    def start(self) -> float:
        self.started_at = time.perf_counter()
        return self.started_at

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self.started_at

    def add(self, seconds: float, cls: Optional[str] = None) -> None:
        """Count one completed op that took ``seconds``."""
        current = len(self.calibration) - 1
        for key in ("all", cls) if cls is not None else ("all",):
            self.latency[key].append(seconds)
            self.slice_of[key].append(current)

    def calibration_due(self) -> bool:
        return not self._slices or time.perf_counter() >= self._slices[-1][1] + CALIBRATE_EVERY_S

    def calibrate(self, cpus: Sequence[int] = ()) -> None:
        """Take one reference slice (no op may be in flight): here, or
        the mean of one slice on each of ``cpus``."""
        t0 = time.perf_counter()
        if cpus:
            home = os.sched_getaffinity(0)
            rates = []
            try:
                for cpu in cpus:
                    os.sched_setaffinity(0, {cpu})
                    rates.append(reference_rate(REF_SLICE_S))
            finally:
                os.sched_setaffinity(0, home)
            self.calibration.append(sum(rates) / len(rates))
        else:
            self.calibration.append(reference_rate(REF_SLICE_S))
        t1 = time.perf_counter()
        self._slices.append((t0, t1))
        self.paused_s += t1 - t0

    def tick(self) -> None:
        """Between two ops: take a reference slice if one is due."""
        if self.calibration_due():
            self.calibrate()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def completed(self) -> int:
        return len(self.latency["all"])

    def _speeds(self) -> List[float]:
        """Machine speed after each slice, relative to ``REF_RATE``."""
        rates = self.calibration
        return [median(rates[max(0, k - 1) : k + 2]) / REF_RATE for k in range(len(rates))]

    def _nominal_seconds(self) -> float:
        """Measuring time (slices excluded) converted to the nominal machine."""
        ends = [begin for begin, _ in self._slices[1:]] + [self.started_at + self.wall_s]
        return sum((end - sl[1]) * speed for sl, end, speed in zip(self._slices, ends, self._speeds()))

    @property
    def speed(self) -> float:
        """Mean machine speed over the measuring time."""
        return self._nominal_seconds() / (self.wall_s - self.paused_s)

    @property
    def rate(self) -> float:
        """Ops per second, scaled to the nominal machine."""
        return self.completed / self._nominal_seconds()

    def end_to_end(self, min_ops: int = MIN_OPS_FOR_P99) -> Dict[str, float]:
        """Every end-to-end metric except ``setup_s``, scaled to the nominal
        machine (the unscaled values go to the run record).

        In-process workloads have one op class, so their ``read_*`` and
        ``write_*`` equal ``latency_*``.
        """
        speeds = self._speeds()
        unscaled: Dict[str, float] = {}
        out: Dict[str, float] = {}
        for prefix, cls in (("latency", "all"), ("read", "read"), ("write", "write")):
            key = cls if cls in self.latency else "all"
            raw = self.latency[key]
            unscaled.update(latency_block(prefix, raw, min_ops))
            scaled = [sec * speeds[k] for sec, k in zip(raw, self.slice_of[key])]
            out.update(latency_block(prefix, scaled, min_ops))
        unscaled["throughput_per_s"] = self.completed / (self.wall_s - self.paused_s)
        self.record["unscaled"] = unscaled
        self.record["machine_speed"] = self.speed
        out.update(throughput_per_s=self.rate, peak_rss_mb=self.peak_rss_mb)
        return out
