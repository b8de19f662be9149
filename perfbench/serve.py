"""``serve_ingest`` / ``serve_query``: JSON-lines traffic into ``repro serve``.

The server under test is ``python -m repro serve --flush-rows 64 --wal-dir
<fresh dir>`` (the durable coalescing deployment), one process on one
pipe pair.  This module is the load generator: one single-threaded
process keeping ``WINDOW`` request lines in flight (a closed loop), timing
each request from its line written to its response line read.

Inputs are a function of the seed alone: 1000 sessions with d=5 priors,
Zipf(1.2) key popularity, and a per-workload op mix.  Sample rows come
from a seeded pool and go on the wire as ``b64f64`` envelopes; ``stats``
ingests carry the sufficient statistics of a pool window.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from common import OUT, ROOT, Phase, child_env, peak_rss_mb
from tracing import Spans

D = 5
N_SESSIONS = 1000
WINDOW = 16
ZIPF_S = 1.2
KAPPA0, V0 = 4.0, 15.0
FLUSH_ROWS = 64
POOL_ROWS = 1 << 16
N_STATS = 2048
#: Sessions whose final estimate is checked against an offline MAP.
N_CHECKED = 48
#: Upper bound on the request rate, used to size the generated op stream.
MAX_RATE = 40000

KINDS = ("ingest", "stats", "estimate", "loglik", "yield")
READS = frozenset(("estimate", "loglik", "yield"))
MIX = {
    "serve_ingest": {"ingest": 0.87, "stats": 0.10, "estimate": 0.03},
    "serve_query": {"estimate": 0.60, "loglik": 0.15, "yield": 0.10, "ingest": 0.15},
}
PRELOAD_ROWS = {"serve_ingest": 0, "serve_query": 64}
SERVER_FLAGS = ["--flush-rows", str(FLUSH_ROWS)]


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _envelope(arr: np.ndarray) -> str:
    shape = ",".join(str(s) for s in arr.shape)
    return f'{{"data":"{_b64(arr)}","encoding":"b64f64","shape":[{shape}]}}'


class Stream:
    """The seeded request stream of one workload."""

    def __init__(self, workload: str, seed: int, n_ops: int) -> None:
        # one generator per array, so every array's prefix is the same
        # whatever ``n_ops`` is
        prior_rng, pool_rng, key_rng, kind_rng, row_rng, off_rng = (
            np.random.default_rng(s)
            for s in np.random.SeedSequence([seed, sorted(MIX).index(workload)]).spawn(6)
        )
        self.workload = workload
        self.keys = [f"die{k:04d}" for k in range(N_SESSIONS)]
        # priors differ little between sessions, so the cost of a query does
        # not hinge on which sessions a seed makes popular
        self.prior_mean = prior_rng.normal(0.0, 0.2, (N_SESSIONS, D))
        a = prior_rng.normal(0.0, 0.15, (N_SESSIONS, D, D))
        self.prior_cov = np.eye(D) + a @ np.swapaxes(a, 1, 2) / D
        rank_to_key = prior_rng.permutation(N_SESSIONS)
        others = np.setdiff1d(np.arange(N_SESSIONS), rank_to_key[:16])
        self.checked = sorted(
            rank_to_key[:16].tolist()
            + prior_rng.choice(others, N_CHECKED - 16, replace=False).tolist()
        )
        self.bounds = [
            f'"lower":{_envelope(m - 2.5)},"upper":{_envelope(m + 2.5)}' for m in self.prior_mean
        ]

        self.pool = pool_rng.normal(0.2, 1.0, (POOL_ROWS, D))
        self._pool_bytes = self.pool.astype("<f8").tobytes()
        # stats payloads: sufficient statistics of pool windows of 8..32 rows
        self.stats_windows = list(
            zip(
                pool_rng.integers(0, POOL_ROWS - 32, N_STATS).tolist(),
                pool_rng.integers(8, 33, N_STATS).tolist(),
            )
        )
        self._stats_json = [self._stats_payload(o, m) for o, m in self.stats_windows]
        self.preload_off = pool_rng.integers(0, POOL_ROWS - 64, N_SESSIONS)

        weights = 1.0 / np.arange(1, N_SESSIONS + 1) ** ZIPF_S
        self.op_key = rank_to_key[key_rng.choice(N_SESSIONS, n_ops, p=weights / weights.sum())]
        mix = MIX[workload]
        self.op_kind = kind_rng.choice(
            [KINDS.index(k) for k in mix], n_ops, p=list(mix.values())
        ).astype(np.int8)
        self.op_rows = row_rng.integers(1, 5, n_ops).astype(np.int8)
        self.op_off = off_rng.integers(0, POOL_ROWS - 32, n_ops)

    def _stats_payload(self, off: int, m: int) -> str:
        rows = self.pool[off : off + m]
        mean = rows.mean(axis=0)
        centered = rows - mean
        scatter = centered.T @ centered
        return f'{{"mean":{_envelope(mean)},"n":{m},"scatter":{_envelope(scatter)}}}'

    @property
    def n_ops(self) -> int:
        return self.op_key.size

    # -- request lines --------------------------------------------------
    def setup_requests(self) -> Iterator[Tuple[str, tuple]]:
        yield '{"op":"ping"}\n', ("ping", None, None)
        for k, key in enumerate(self.keys):
            yield (
                f'{{"kappa0":{KAPPA0},"key":"{key}","op":"create",'
                f'"prior_covariance":{_envelope(self.prior_cov[k])},'
                f'"prior_mean":{_envelope(self.prior_mean[k])},"v0":{V0}}}\n'
            ), ("create", key, None)
        rows = PRELOAD_ROWS[self.workload]
        if rows:
            for k, key in enumerate(self.keys):
                off = int(self.preload_off[k])
                yield self._ingest_line(key, off, rows), ("ingest", key, rows)

    def _ingest_line(self, key: str, off: int, rows: int) -> str:
        data = base64.b64encode(self._pool_bytes[off * 8 * D : (off + rows) * 8 * D]).decode("ascii")
        return (
            f'{{"key":"{key}","op":"ingest","samples":{{"data":"{data}",'
            f'"encoding":"b64f64","shape":[{rows},{D}]}}}}\n'
        )

    def request(self, j: int) -> Tuple[str, tuple]:
        kind = KINDS[self.op_kind[j]]
        key = self.keys[self.op_key[j]]
        off = int(self.op_off[j])
        if kind == "ingest":
            rows = int(self.op_rows[j])
            return self._ingest_line(key, off, rows), ("ingest", key, rows)
        if kind == "stats":
            s = off % N_STATS
            line = f'{{"key":"{key}","op":"ingest","stats":{self._stats_json[s]}}}\n'
            return line, ("ingest", key, self.stats_windows[s][1])
        if kind == "estimate":
            return f'{{"key":"{key}","op":"estimate"}}\n', ("estimate", key, None)
        if kind == "loglik":
            data = base64.b64encode(self._pool_bytes[off * 8 * D : (off + 8) * 8 * D]).decode("ascii")
            line = (
                f'{{"key":"{key}","op":"loglik","x":{{"data":"{data}",'
                f'"encoding":"b64f64","shape":[8,{D}]}}}}\n'
            )
            return line, ("loglik", key, None)
        line = f'{{"key":"{key}","op":"yield",{self.bounds[self.op_key[j]]}}}\n'
        return line, ("yield", key, None)

    def requests(self, count: int) -> Iterator[Tuple[str, tuple]]:
        for j in range(count):
            yield self.request(j)

    def digest(self, count: int) -> str:
        """sha256 over the set-up lines and the first ``count`` op lines."""
        h = hashlib.sha256()
        for line, _ in self.setup_requests():
            h.update(line.encode())
        for line, _ in self.requests(count):
            h.update(line.encode())
        return h.hexdigest()

    # -- offline reference ----------------------------------------------
    def offline_estimate(self, k: int, n_sent: int):
        """MAP moments from exactly the rows and stats sent to session ``k``
        in set-up and in the first ``n_sent`` ops."""
        from repro.core.bmf import map_moments_from_stats
        from repro.core.prior import PriorKnowledge
        from repro.stats.suffstats import SufficientStats, merge_all

        mine = np.nonzero(self.op_key[:n_sent] == k)[0]
        kinds = self.op_kind[mine]
        ingests = mine[kinds == KINDS.index("ingest")]
        offs, counts = self.op_off[ingests], self.op_rows[ingests].astype(np.int64)
        preload = PRELOAD_ROWS[self.workload]
        if preload:
            offs = np.concatenate(([self.preload_off[k]], offs))
            counts = np.concatenate(([preload], counts))
        starts = np.cumsum(counts) - counts
        rows = np.repeat(offs, counts) + np.arange(counts.sum()) - np.repeat(starts, counts)
        parts = [SufficientStats.from_samples(self.pool[rows])] if rows.size else []
        for j in mine[kinds == KINDS.index("stats")]:
            m = self.stats_windows[self.op_off[j] % N_STATS][1]
            payload = json.loads(self._stats_json[self.op_off[j] % N_STATS])
            parts.append(SufficientStats.from_dict({
                "n": m, "mean": _decode(payload["mean"]), "scatter": _decode(payload["scatter"]),
            }))
        stats = merge_all(parts) if parts else SufficientStats.empty(D)
        prior = PriorKnowledge(mean=self.prior_mean[k], covariance=self.prior_cov[k])
        mean, cov = map_moments_from_stats(prior, stats, KAPPA0, V0)
        return stats.n, mean, cov


def _decode(envelope: dict) -> np.ndarray:
    raw = base64.b64decode(envelope["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(envelope["shape"])


class Server:
    """One ``repro serve`` child on a pipe pair, driven in a closed loop."""

    def __init__(self, workload: str, traced: bool) -> None:
        self.scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT / "tmp"))
        flags = SERVER_FLAGS + ["--wal-dir", str(self.scratch / "wal")]
        self.trace_path = self.scratch / "spans.npz"
        if traced:
            shim = Path(__file__).with_name("serve_shim.py")
            argv = [sys.executable, str(shim), str(self.trace_path), "serve", *flags]
        else:
            argv = [sys.executable, "-m", "repro", "serve", *flags]
        self.log = open(self.scratch / "server.log", "wb")
        #: ``time.monotonic()`` just before the server process was started.
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            cwd=ROOT, env=child_env(),
        )
        self._fd = self.proc.stdin.fileno()
        self._out = self.proc.stdout
        #: Lines sent so far; the server numbers requests the same way.
        self.sent = 0

    def _send(self, line: str) -> None:
        data = line.encode("ascii")
        while data:
            data = data[os.write(self._fd, data):]
        self.sent += 1

    def pump(
        self,
        items: Iterable[Tuple[str, tuple]],
        on_reply: Callable[[tuple, bytes, float], None],
        deadline: Optional[float] = None,
        phase: Optional[Phase] = None,
    ) -> float:
        """Keep ``WINDOW`` lines in flight until ``items`` runs out or the
        deadline passes, then drain.  With a ``phase``, sending pauses when
        a reference slice is due, and the slice runs once nothing is in
        flight.  Returns the seconds spent blocked waiting for a response."""
        inflight: deque = deque()
        source = iter(items)
        open_ = True
        blocked = 0.0
        while True:
            pausing = phase is not None and phase.calibration_due()
            if pausing and not inflight:
                # the server may run on any CPU, so sample every one
                phase.calibrate(sorted(os.sched_getaffinity(0)))
                continue
            while open_ and not pausing and len(inflight) < WINDOW:
                if deadline is not None and time.perf_counter() >= deadline:
                    open_ = False
                    break
                item = next(source, None)
                if item is None:
                    open_ = False
                    break
                line, expect = item
                sent_at = time.perf_counter()
                self._send(line)
                inflight.append((sent_at, expect))
            if not inflight:
                return blocked
            t0 = time.perf_counter()
            raw = self._out.readline()
            t1 = time.perf_counter()
            blocked += t1 - t0
            if not raw:
                raise RuntimeError("server closed its output")
            sent_at, expect = inflight.popleft()
            on_reply(expect, raw, t1 - sent_at)

    def call(self, line: str) -> dict:
        replies: List[bytes] = []
        self.pump([(line, None)], lambda e, raw, dt: replies.append(raw))
        return json.loads(replies[0])

    def close(self) -> int:
        """Shut the server down; returns its exit code."""
        try:
            if self.proc.poll() is None:
                self.call('{"op":"shutdown"}\n')
                self.proc.stdin.close()
            return self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Checker:
    """Validates every response line; collects per-class latencies."""

    def __init__(self, phase: Phase, canonical: Callable[[dict], str]) -> None:
        self.phase = phase
        self.canonical = canonical

    def __call__(self, expect: tuple, raw: bytes, seconds: float) -> None:
        kind, key, rows = expect
        line = raw.decode("utf-8").rstrip("\n")
        try:
            resp = json.loads(line)
        except ValueError:
            self.phase.fail(f"{kind} {key}: unparseable response")
            return
        if resp.get("ok") is not True:
            self.phase.fail(f"{kind} {key}: {resp.get('error')}: {resp.get('message')}")
        elif self.canonical(resp) != line:
            self.phase.fail(f"{kind} {key}: response is not canonical JSON")
        elif resp.get("op") != kind or (key is not None and resp.get("key") != key):
            self.phase.fail(f"{kind} {key}: response for {resp.get('op')} {resp.get('key')}")
        elif rows is not None and resp.get("ingested") != rows:
            self.phase.fail(f"{kind} {key}: ingested {resp.get('ingested')} of {rows} rows")
        self.phase.add(seconds, "read" if kind in READS else "write")


class State:
    def __init__(self, stream: Stream, server: Server) -> None:
        self.stream = stream
        self.server = server
        self.setup_lines = 0
        self.stats_before: dict = {}
        self.stats_after: dict = {}
        self.client_busy_share = 0.0
        self.exit_code: Optional[int] = None


def make_stream(workload: str, seed: int, seconds: float) -> Stream:
    """The op stream for a phase of ``seconds`` (sized for ``MAX_RATE``)."""
    return Stream(workload, seed, int(seconds * MAX_RATE) + 1000)


def setup(stream: Stream, traced: bool = False) -> State:
    """Start a server and send it the set-up traffic (sessions, preload)."""
    server = Server(stream.workload, traced)
    try:
        from repro.schemas import canonical_json

        phase = Phase(split=True)
        server.pump(stream.setup_requests(), Checker(phase, canonical_json))
        if phase.failures:
            raise RuntimeError(f"set-up traffic failed: {phase.failures[:3]}")
    except BaseException:
        server.close()
        server.cleanup()
        raise
    return State(stream, server)


def run(state: State, seconds: float) -> Phase:
    from repro.schemas import canonical_json

    server, stream = state.server, state.stream
    phase = Phase(split=True)
    state.stats_before = server.call('{"op":"stats"}\n')["stats"]
    state.setup_lines = server.sent
    check = Checker(phase, canonical_json)
    start = phase.start()
    ops = stream.requests(stream.n_ops)
    blocked = server.pump(ops, check, deadline=start + seconds, phase=phase)
    phase.stop()
    phase.attempted = server.sent - state.setup_lines
    state.client_busy_share = 1.0 - blocked / (phase.wall_s - phase.paused_s)
    if phase.attempted >= stream.n_ops:
        phase.fail("op stream exhausted before the deadline; raise MAX_RATE")

    state.stats_after = server.call('{"op":"stats"}\n')["stats"]
    n_sent = phase.attempted
    for k in stream.checked:
        key = stream.keys[k]
        resp = server.call(f'{{"key":"{key}","op":"estimate"}}\n')
        n, mean, cov = stream.offline_estimate(k, n_sent)
        if not resp.get("ok"):
            phase.fail(f"final estimate {key}: {resp.get('message')}")
            continue
        got_mean, got_cov = np.asarray(resp["mean"]), np.asarray(resp["covariance"])
        tol_mean = 1e-10 * np.maximum(1.0, np.abs(mean))
        tol_cov = 1e-10 * np.maximum(1.0, np.abs(cov))
        if resp["n"] != n or np.any(np.abs(got_mean - mean) > tol_mean) or np.any(np.abs(got_cov - cov) > tol_cov):
            phase.fail(f"final estimate {key} differs from the offline MAP of the rows sent")
    for name in ("errors", "sessions_evicted"):
        if state.stats_after[name]:
            phase.fail(f"server reports {name}={state.stats_after[name]}")
    phase.peak_rss_mb = peak_rss_mb(server.proc.pid)
    state.exit_code = server.close()
    if state.exit_code != 0:
        phase.fail(f"server exited with code {state.exit_code}")
    phase.record.update(
        requests=phase.attempted,
        checked_sessions=len(stream.checked),
        input_digest=stream.digest(1000),
        stats=state.stats_after,
    )
    return phase


def teardown(state: State) -> None:
    if state.exit_code is None:
        state.exit_code = state.server.close()
    state.server.cleanup()


def per_layer(state: State, phase: Phase) -> Dict[str, float]:
    spans = Spans.load(state.server.trace_path)
    first, last = state.setup_lines, state.setup_lines + phase.attempted
    window = (spans.request >= first) & (spans.request < last)
    got = np.asarray(spans.extra["line_got"])[first:last]
    freed = np.asarray(spans.extra["line_freed"])[first:last]
    wall = float(freed[-1] - got[0]) - phase.paused_s  # the server idles while the generator calibrates
    report = spans.report(window, wall)
    phase.record["trace_report"] = report

    before, after = state.stats_before["shards"][0], state.stats_after["shards"][0]
    delta = {k: after[k] - before[k] for k in ("ingest_calls", "ingested_samples", "wal_bytes", "wal_flushes")}
    rows = delta["ingested_samples"]
    query_calls = spans.mask("serving.router.query_many") & window
    flushes = spans.count("serving.router.flush", window)
    return {
        "import.repro_s": spans.extra["import_s"],
        "import.scipy_stats_eager": float(spans.extra["scipy_stats_eager"]),
        "serving.protocol.handle_read_ms": spans.mean_ms("serving.protocol.handle.read", window),
        "serving.protocol.handle_write_ms": spans.mean_ms("serving.protocol.handle.write", window),
        "serving.protocol.encode_ms": spans.mean_ms("serving.protocol.encode", window),
        "serving.router.ingest_ms": spans.mean_ms("serving.router.ingest", window),
        "serving.router.flush_ms": spans.mean_ms("serving.router.flush", window),
        "serving.router.flush_calls": flushes * 1000.0 / phase.attempted,
        "serving.router.query_many_ms": spans.mean_ms("serving.router.query_many", window),
        "serving.router.queries_per_call": float(spans.value[query_calls].mean()),
        "serving.worker.ingest_ms": spans.mean_ms("serving.worker.ingest", window),
        "serving.worker.rows_per_block": rows / delta["ingest_calls"],
        "serving.scoring.score_ms": spans.mean_ms("serving.scoring.score", window),
        "serving.wal.append_us": spans.mean_ms("serving.wal.append", window) * 1e3,
        "serving.wal.bytes_per_row": delta["wal_bytes"] / rows,
        "serving.wal.flushes_per_krow": delta["wal_flushes"] * 1000.0 / rows,
        "serving.loop.busy_share": float((freed - got).sum() / wall),
        "client.busy_share": state.client_busy_share,
        "serving.sessions_evicted": float(state.stats_after["sessions_evicted"]),
        "serving.errors": float(state.stats_after["errors"]),
        "trace.uncovered_share": report["uncovered_share"],
    }
