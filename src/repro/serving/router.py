"""Shard router: the one serving front door.

:class:`ShardedMomentService` serves every deployment, from the default
single process (``n_shards=1``) to N
:class:`~repro.serving.worker.ShardWorker` slices:

* **Placement** — a sha256-based consistent-hash ring
  (:class:`HashRing`) maps each session key to its home shard.  The ring
  is a pure function of ``(n_shards, virtual_nodes, key)`` — stable
  across processes, platforms, and ``PYTHONHASHSEED`` — so any router
  instance (or an offline tool reading a WAL) computes the same
  placement.  A session lives on its home shard only: the MAP update
  needs just the additive statistics ``(n, X̄, S)``, so one worker holds
  everything a query needs.
* **Ingest coalescing** — accepted sample blocks are buffered per key
  and flushed to the owning worker as one stacked block once
  ``flush_rows`` rows accumulate (or at any read barrier: queries,
  checkpoints, listings).  This turns per-row Welford updates into block
  Chan merges; the rounding difference is covered by the documented
  1e-10 equivalence bound.  ``flush_rows=1`` hands every block straight
  to its worker unchanged.
* **Queries** — one path for every shard count: kinds are validated and
  :class:`~repro.serving.scoring.Request` objects built once, grouped by
  home shard, and each worker counts, logs, and scores its group through
  the shared :class:`~repro.serving.scoring.BatchScorer`.  Answers come
  back in submission order.
* **Checkpoint layout** — a one-shard service without a WAL checkpoints
  to a single ``repro.serving-checkpoint.v1`` file (the bare worker's
  bytes); every other service writes a manifest directory.
  :meth:`ShardedMomentService.restore` reads either.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.core.estimators import MomentEstimate
from repro.core.prior import PriorKnowledge
from repro.exceptions import ConfigError
from repro.io import check_schema_version, write_json_atomic
from repro.schemas import MANIFEST_SCHEMA
from repro.serving.checkpoint import load_checkpoint
from repro.serving.counters import QUERY_KINDS, ServiceCounters, latency_summary
from repro.serving.scoring import Request
from repro.serving.sessions import Session
from repro.serving.wal import DEFAULT_FLUSH_BYTES, WriteAheadLog
from repro.serving.worker import ShardWorker
from repro.stats.suffstats import SufficientStats

__all__ = ["HashRing", "ShardedMomentService", "MANIFEST_SCHEMA"]

#: ``MANIFEST_SCHEMA`` (re-exported in ``__all__``) comes from
#: :mod:`repro.schemas`, the version-string source of truth.

#: Structural version of the manifest layout.
MANIFEST_SCHEMA_VERSION = 1

#: The placement policy manifests record (the only one there is).
PLACEMENT = "hash"

#: WAL on-disk formats the router can create (existing logs auto-detect).
WAL_FORMATS = ("v1", "v2")

PathLike = Union[str, Path]


def _stable_hash(text: str) -> int:
    """First 64 bits of sha256 — stable everywhere, unlike ``hash()``."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def _resolve_wal_flush(
    wal_version: int,
    flush_records: Optional[int],
    flush_bytes: Optional[int],
) -> Tuple[int, int]:
    """Group-commit bounds: v1 defaults to flush-per-record, v2 to 64."""
    if flush_records is None:
        flush_records = 1 if wal_version == 1 else 64
    if flush_bytes is None:
        flush_bytes = DEFAULT_FLUSH_BYTES
    if int(flush_records) < 1:
        raise ConfigError(f"wal_flush_records must be >= 1, got {flush_records}")
    if int(flush_bytes) < 1:
        raise ConfigError(f"wal_flush_bytes must be >= 1, got {flush_bytes}")
    return int(flush_records), int(flush_bytes)


class HashRing:
    """Consistent-hash ring over shard indices.

    Each shard contributes ``virtual_nodes`` points at
    ``sha256("shard:<i>:vnode:<j>")``; a key lands on the first point at
    or clockwise of ``sha256("key:<key>")``.  Virtual nodes keep the load
    split near-uniform, and consistency means resizing from N to N+1
    shards relocates only ~1/(N+1) of the keys — the property that makes
    offline re-sharding of WALs tractable.
    """

    def __init__(self, n_shards: int, virtual_nodes: int = 64) -> None:
        if n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
        if virtual_nodes < 1:
            raise ConfigError(f"virtual_nodes must be >= 1, got {virtual_nodes}")
        self.n_shards = int(n_shards)
        self.virtual_nodes = int(virtual_nodes)
        points: List[Tuple[int, int]] = []
        for shard in range(self.n_shards):
            for vnode in range(self.virtual_nodes):
                points.append((_stable_hash(f"shard:{shard}:vnode:{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, key: str) -> int:
        """Home shard of a session key (pure, stable, O(log n))."""
        if self.n_shards == 1:
            return 0
        point = _stable_hash(f"key:{key}")
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._shards[index]


class ShardedMomentService:
    """The serving stack: N shard workers behind one interface.

    Parameters
    ----------
    n_shards:
        Worker count (default ``1``, the single-process service).
    max_sessions_per_shard, ttl_ops:
        Per-shard store bounds.
    flush_rows:
        Ingest-coalescing threshold in rows.  ``None`` resolves to ``1``
        (no coalescing) for ``n_shards == 1`` and ``64`` otherwise.
    wal_dir:
        Directory for per-shard write-ahead logs (``shard-NNN.wal``).
        ``None`` disables logging.  Fresh logs only — recovering existing
        logs goes through :meth:`restore` or :meth:`recover`.
    wal_format:
        On-disk format of *new* logs: ``"v2"`` (default — binary frames,
        raw float64 buffers, the ingest fast path) or ``"v1"`` (JSON
        lines, greppable).  Existing logs auto-detect on open.
    wal_flush_records, wal_flush_bytes:
        Group-commit bounds per shard log (see
        :class:`~repro.serving.wal.WriteAheadLog`).  ``None`` resolves
        ``wal_flush_records`` to ``1`` for v1 (the original
        flush-per-record durability) and ``64`` for v2, and
        ``wal_flush_bytes`` to 256 KiB.  Checkpoints always barrier
        (``sync``) first, so coalesced flushing never weakens what a
        checkpoint claims to cover.
    wal_delta_rows:
        Suffstats-delta threshold forwarded to every worker: 2-D ingest
        blocks with at least this many rows are logged as ``O(d^2)``
        sufficient statistics instead of raw samples.  ``None`` disables
        delta logging.
    virtual_nodes:
        Ring resolution (see :class:`HashRing`).
    """

    def __init__(
        self,
        n_shards: int = 1,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        flush_rows: Optional[int] = None,
        wal_dir: Optional[PathLike] = None,
        wal_format: str = "v2",
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
        virtual_nodes: int = 64,
    ) -> None:
        if wal_format not in WAL_FORMATS:
            raise ConfigError(
                f"unknown wal_format {wal_format!r}; expected one of {WAL_FORMATS}"
            )
        self.ring = HashRing(n_shards, virtual_nodes=virtual_nodes)
        if flush_rows is None:
            flush_rows = 1 if n_shards == 1 else 64
        if int(flush_rows) < 1:
            raise ConfigError(f"flush_rows must be >= 1, got {flush_rows}")
        self.flush_rows = int(flush_rows)
        self.workers: List[ShardWorker] = []
        for shard in range(self.ring.n_shards):
            wal: Optional[WriteAheadLog] = None
            if wal_dir is not None:
                wal = _create_wal(
                    Path(wal_dir), shard, wal_format, wal_flush_records, wal_flush_bytes
                )
            self.workers.append(
                ShardWorker(
                    shard_id=shard,
                    max_sessions=max_sessions_per_shard,
                    ttl_ops=ttl_ops,
                    wal=wal,
                    wal_delta_rows=wal_delta_rows,
                )
            )
        # Router-level ingest totals (accepted calls, before coalescing);
        # request, error, and latency counts live on the workers.
        self.counters = ServiceCounters()
        # Ingest-side shared state below is mutated by whichever thread
        # calls ingest/flush/drop (protocol loops, load generators, tests
        # with client pools), so every mutation holds this lock — worker
        # folds happen under it too, which serialises router-side ingest
        # but keeps drain + apply atomic per key (reprolint RPL007 pins
        # the discipline).
        self._ingest_lock = threading.Lock()
        # per-key ingest buffers: list of (n, d) blocks + pending row count
        self._buffers: Dict[str, List[np.ndarray]] = {}
        self._buffered_rows: Dict[str, int] = {}
        # per-key rows routed through this router (monotone; survives flushes)
        self._routed_rows: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.ring.n_shards

    def shard_for(self, key: str) -> int:
        """Home shard of a key under the current ring."""
        return self.ring.shard_for(str(key))

    def _home(self, key: str) -> ShardWorker:
        return self.workers[self.ring.shard_for(key)]

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def create_session(
        self,
        key: str,
        prior: PriorKnowledge,
        kappa0: Optional[float] = None,
        v0: Optional[float] = None,
        exist_ok: bool = False,
    ) -> Session:
        """Register a population with its early-stage prior on its home shard.

        ``(kappa0, v0)`` default to the weakly-informative corner
        ``(1, d + 1)`` — streaming cannot re-run the paper's CV per die;
        pin values selected offline for production use.
        """
        key = str(key)
        return self._home(key).create_session(
            key, prior, kappa0=kappa0, v0=v0, exist_ok=exist_ok
        )

    def drop_session(self, key: str) -> bool:
        """Remove a session; returns whether it existed.

        Pending buffered rows for the key are flushed first — a drop
        covers everything accepted before it, in order.
        """
        key = str(key)
        with self._ingest_lock:
            self._flush_key_locked(key)
        return self._home(key).drop_session(key)

    def session_keys(self) -> List[str]:
        """Sorted union of live keys across shards (buffers flushed first)."""
        self.flush()
        keys: Set[str] = set()
        for worker in self.workers:
            keys.update(worker.session_keys())
        return sorted(keys)

    # ------------------------------------------------------------------
    # ingest (coalesced)
    # ------------------------------------------------------------------
    def ingest(self, key: str, samples: ArrayLike) -> int:
        """Accept a sample block for a session; returns a running row count.

        With ``flush_rows == 1`` the block goes straight to the owning
        worker and the return value is the session's new total.  With
        ``flush_rows > 1`` the rows are buffered and folded into the
        worker as one stacked block later (next threshold crossing or
        read barrier) — numerically a Chan block merge instead of per-row
        Welford updates, within the 1e-10 serving bound — and the return
        value counts the rows accepted for the key through this router.
        """
        key = str(key)
        arr = np.asarray(samples, dtype=float)
        rows = 1 if arr.ndim == 1 else arr.shape[0]
        self.counters.record_ingest(rows)
        with self._ingest_lock:
            if self.flush_rows == 1:
                return self._home(key).ingest(key, arr)
            block = arr[None, :] if arr.ndim == 1 else arr
            self._buffers.setdefault(key, []).append(block)
            pending = self._buffered_rows.get(key, 0) + int(block.shape[0])
            self._buffered_rows[key] = pending
            self._routed_rows[key] = self._routed_rows.get(key, 0) + rows
            if pending >= self.flush_rows:
                self._flush_key_locked(key)
            return self._routed_rows[key]

    def ingest_stats(self, key: str, stats: SufficientStats) -> int:
        """Merge pre-accumulated statistics into the owning worker.

        Statistics merge exactly in any order, so these bypass the row
        buffer (flushing the key first keeps arrival order intact).
        """
        key = str(key)
        stats.validate()
        self.counters.record_ingest(stats.n)
        with self._ingest_lock:
            self._flush_key_locked(key)
            self._routed_rows[key] = self._routed_rows.get(key, 0) + stats.n
            return self._home(key).ingest_stats(key, stats)

    def _flush_key_locked(self, key: str) -> None:
        """Fold ``key``'s buffered blocks into its worker (lock held)."""
        blocks = self._buffers.pop(key, [])
        self._buffered_rows.pop(key, None)
        if not blocks:
            return
        stacked = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
        self._home(key).ingest(key, stacked)

    def flush(self) -> None:
        """Flush every ingest buffer (deterministic key order)."""
        with self._ingest_lock:
            for key in sorted(self._buffers):
                self._flush_key_locked(key)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query_many(self, queries: Sequence[Tuple[str, str, Any]]) -> List[Any]:
        """Score ``(kind, key, payload)`` queries; answers in submission order.

        Ingest buffers are flushed first (read-your-writes).  Every kind
        is validated before anything is counted or scored; then each home
        shard's worker scores its requests as one grouped batch.  Raises
        the first request error encountered, in submission order.
        """
        self.flush()
        now = time.perf_counter()
        requests: List[Request] = []
        for kind, key, payload in queries:
            if kind not in QUERY_KINDS:
                raise ConfigError(
                    f"unknown request kind {kind!r}; expected {QUERY_KINDS}"
                )
            requests.append(
                Request(kind=kind, key=str(key), payload=payload, submitted_at=now)
            )
        by_shard: Dict[int, List[Request]] = {}
        for request in requests:
            by_shard.setdefault(self.ring.shard_for(request.key), []).append(request)
        for shard, batch in by_shard.items():
            self.workers[shard].score_requests(batch)
        return [request.future.result() for request in requests]

    def estimate(self, key: str) -> MomentEstimate:
        """MAP-estimate query for one session."""
        result: MomentEstimate = self.query_many([("estimate", key, None)])[0]
        return result

    def loglik(self, key: str, x: ArrayLike) -> float:
        """Log-likelihood of ``x`` under the session's MAP."""
        return float(self.query_many([("loglik", key, np.asarray(x, dtype=float))])[0])

    def yield_prob(self, key: str, lower: ArrayLike, upper: ArrayLike) -> float:
        """Parametric-yield query against spec box bounds."""
        payload = (np.asarray(lower, dtype=float), np.asarray(upper, dtype=float))
        return float(self.query_many([("yield", key, payload)])[0])

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Fleet totals plus per-shard snapshots.

        Requests, errors, and latencies are summed (pooled) over the
        shards; ``ingest_calls``/``ingested_samples`` count calls accepted
        by this router, before coalescing.
        """
        self.flush()
        shards = [worker.stats() for worker in self.workers]
        out = self._counter_state()
        out["requests_total"] = sum(out["requests"].values())
        out.update(
            latency_summary(
                [t for worker in self.workers for t in worker.counters.latencies()]
            )
        )
        out["n_shards"] = self.ring.n_shards
        out["placement"] = PLACEMENT
        out["flush_rows"] = self.flush_rows
        out["sessions_live"] = sum(s["sessions_live"] for s in shards)
        out["sessions_evicted"] = sum(s["sessions_evicted"] for s in shards)
        # WAL append/flush gauges accrue on the worker counters (each log
        # observes its worker)
        for gauge in ("wal_records", "wal_bytes", "wal_flushes"):
            out[gauge] = sum(s[gauge] for s in shards)
        out["shards"] = shards
        return out

    def _counter_state(self) -> Dict[str, Any]:
        """Cumulative fleet counters in ``ServiceCounters.state_dict`` form:
        request and error sums over the shards, ingest totals of the router."""
        requests: Dict[str, int] = {kind: 0 for kind in QUERY_KINDS}
        errors = 0
        for worker in self.workers:
            state = worker.counters.state_dict()
            for kind, count in state["requests"].items():
                requests[kind] = requests.get(kind, 0) + count
            errors += state["errors"]
        out = self.counters.state_dict()
        out["requests"] = requests
        out["errors"] = errors
        return out

    def _reconcile_counters(self, base: Optional[Dict[str, Any]] = None) -> None:
        """Rebuild the router's counters after a restore or recovery.

        Worker counters are exact post-replay state, so the router's
        ingest totals start as their sum.  ``base`` (a manifest
        ``counters`` state dict) is folded in by elementwise max: the
        router counts accepted calls while workers count post-coalescing
        blocks, so the checkpointed value is the better one until a WAL
        tail outgrows it.  Manifests written before workers counted their
        own requests hold multi-shard request and error counts only at
        the top level; any excess over the shard sums is credited to
        shard 0, so the fleet totals survive the restore.
        """
        calls = sum(w.counters.ingest_calls for w in self.workers)
        samples = sum(w.counters.ingested_samples for w in self.workers)
        if base is not None:
            calls = max(calls, int(base["ingest_calls"]))
            samples = max(samples, int(base["ingested_samples"]))
            fleet = self._counter_state()
            shard0 = self.workers[0].counters.state_dict()
            for kind, count in base["requests"].items():
                missing = int(count) - fleet["requests"].get(str(kind), 0)
                if missing > 0:
                    shard0["requests"][str(kind)] = shard0["requests"].get(str(kind), 0) + missing
            shard0["errors"] += max(int(base["errors"]) - fleet["errors"], 0)
            self.workers[0].counters.load_state_dict(shard0)
        self.counters.load_state_dict(
            {"requests": {}, "errors": 0, "ingest_calls": calls, "ingested_samples": samples}
        )

    # ------------------------------------------------------------------
    # checkpoint / restore / compaction
    # ------------------------------------------------------------------
    def _save(self, path: PathLike, save: Callable[[ShardWorker, Path], str]) -> str:
        """Write the checkpoint layout this service owns; returns its sha256.

        A one-shard service without a WAL writes the bare worker's single
        file.  Every other service writes one checkpoint per shard plus a
        manifest binding them (per-shard sha256 and the WAL offset each
        covers) and returns the manifest's sha256.
        """
        self.flush()
        target = Path(path)
        if self.ring.n_shards == 1 and self.workers[0].wal is None:
            return save(self.workers[0], target)
        if target.is_file():
            raise ConfigError(
                f"{target} is a single-file checkpoint; a service with "
                f"{self.ring.n_shards} shard(s) and write-ahead logs "
                "checkpoints to a manifest directory"
            )
        target.mkdir(parents=True, exist_ok=True)
        shas = [
            save(worker, target / _shard_file(shard))
            for shard, worker in enumerate(self.workers)
        ]
        entries: List[Dict[str, Any]] = []
        for shard, worker in enumerate(self.workers):
            wal_entry: Optional[Dict[str, Any]] = None
            if worker.wal is not None:
                wal_entry = {"file": worker.wal.path.name, "seq": worker.wal.last_seq}
            entries.append(
                {
                    "shard": shard,
                    "file": _shard_file(shard),
                    "sha256": shas[shard],
                    "wal": wal_entry,
                }
            )
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "n_shards": self.ring.n_shards,
            "virtual_nodes": self.ring.virtual_nodes,
            "placement": PLACEMENT,
            "shards": entries,
            "counters": self._counter_state(),
        }
        encoded = write_json_atomic(manifest, target / "manifest.json")
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def checkpoint(self, path: PathLike) -> str:
        """Snapshot the full service state (see :meth:`_save` for the
        layout); returns the sha256.  Buffers are flushed first and every
        file is individually atomic and self-verifying."""
        return self._save(path, ShardWorker.checkpoint)

    def compact(self, path: PathLike) -> str:
        """Checkpoint, then truncate each shard's replayed WAL prefix.

        Equivalent to :meth:`checkpoint` followed by per-shard
        ``truncate_through(covered_seq)``; a manifest records the
        post-compaction (empty-tail) WAL offsets.
        """
        return self._save(path, ShardWorker.compact)

    @classmethod
    def restore(
        cls,
        path: PathLike,
        wal_dir: Optional[PathLike] = None,
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
    ) -> "ShardedMomentService":
        """Rebuild a service from a single-file or manifest checkpoint.

        Each shard restores from its (self-verifying) checkpoint; when
        ``wal_dir`` is given, each shard's log is recovered (torn tails
        dropped, chains verified, on-disk format auto-detected) and only
        the records past the checkpoint's covered offset are replayed —
        the tail, not the whole history.  A single-file checkpoint
        restored with a ``wal_dir`` that holds no log yet starts a fresh
        v2 log there, numbered on from the offset the file covers.  Group
        commit resumes with the log format's defaults unless
        ``wal_flush_records``/``wal_flush_bytes`` override them.
        """
        target = Path(path)
        if target.is_file():
            wal: Optional[WriteAheadLog] = None
            if wal_dir is not None:
                logs = sorted(Path(wal_dir).glob("shard-*.wal"))
                if len(logs) > 1:
                    raise ConfigError(
                        f"{target} is a one-shard checkpoint but {wal_dir} "
                        f"holds {len(logs)} shard logs"
                    )
                if logs:
                    wal = WriteAheadLog.open(
                        logs[0], flush_records=wal_flush_records, flush_bytes=wal_flush_bytes
                    )
                else:
                    covered = int(load_checkpoint(target).get("wal", {}).get("seq", 0))
                    wal = _create_wal(
                        Path(wal_dir), 0, "v2", wal_flush_records, wal_flush_bytes, covered
                    )
            service = cls(flush_rows=flush_rows)
            service.workers[0] = ShardWorker.restore(
                target, wal=wal, wal_delta_rows=wal_delta_rows
            )
            service._reconcile_counters()
            return service

        try:
            manifest = json.loads((target / "manifest.json").read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"no shard manifest in {target}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"shard manifest in {target} is not valid JSON") from exc
        if not isinstance(manifest, dict) or manifest.get("schema") != MANIFEST_SCHEMA:
            raise ConfigError(
                f"{target} does not hold a sharded-serving checkpoint "
                f"(expected schema {MANIFEST_SCHEMA!r})"
            )
        check_schema_version(manifest, MANIFEST_SCHEMA_VERSION, "shard manifest")
        if manifest.get("placement") != PLACEMENT:
            raise ConfigError(
                f"shard manifest field 'placement' is {manifest.get('placement')!r}; "
                f"only {PLACEMENT!r} placement is supported"
            )
        service = cls(
            n_shards=int(manifest["n_shards"]),
            flush_rows=flush_rows,
            virtual_nodes=int(manifest["virtual_nodes"]),
        )
        for shard, entry in enumerate(manifest["shards"]):
            wal = None
            if wal_dir is not None and entry.get("wal") is not None:
                wal_path = Path(wal_dir) / str(entry["wal"]["file"])
                if wal_path.exists():
                    wal = WriteAheadLog.open(
                        wal_path,
                        flush_records=wal_flush_records,
                        flush_bytes=wal_flush_bytes,
                    )
            service.workers[shard] = ShardWorker.restore(
                target / str(entry["file"]),
                shard_id=shard,
                wal=wal,
                wal_delta_rows=wal_delta_rows,
            )
        # WAL tails may have advanced the workers past the manifest's
        # counters; reconcile rather than loading the stale snapshot.
        service._reconcile_counters(base=manifest["counters"])
        return service

    @classmethod
    def recover(
        cls,
        wal_dir: PathLike,
        max_sessions_per_shard: int = 1024,
        ttl_ops: Optional[int] = None,
        flush_rows: Optional[int] = None,
        wal_flush_records: Optional[int] = None,
        wal_flush_bytes: Optional[int] = None,
        wal_delta_rows: Optional[int] = None,
        virtual_nodes: int = 64,
    ) -> "ShardedMomentService":
        """Rebuild a service from its WALs alone (no checkpoint).

        The crash-before-first-checkpoint path: every ``shard-NNN.wal``
        in the directory is recovered (torn tail dropped, chain
        verified) and replayed from the beginning.  Store bounds
        (``max_sessions_per_shard``, ``ttl_ops``) are runtime
        configuration the WAL does not carry — supply the values the
        original service ran with, or eviction decisions will diverge.
        Recovered logs stay attached, so serving continues appending
        where the dead process stopped.
        """
        directory = Path(wal_dir)
        wal_paths = sorted(directory.glob("shard-*.wal"))
        if not wal_paths:
            raise ConfigError(f"no shard-*.wal files to recover in {directory}")
        service = cls(
            n_shards=len(wal_paths),
            max_sessions_per_shard=max_sessions_per_shard,
            ttl_ops=ttl_ops,
            flush_rows=flush_rows,
            virtual_nodes=virtual_nodes,
        )
        for shard, path in enumerate(wal_paths):
            wal = WriteAheadLog.open(
                path,
                flush_records=wal_flush_records,
                flush_bytes=wal_flush_bytes,
            )
            worker = ShardWorker(
                shard_id=shard,
                max_sessions=max_sessions_per_shard,
                ttl_ops=ttl_ops,
                wal=wal,
                wal_delta_rows=wal_delta_rows,
            )
            worker.replay(wal)
            service.workers[shard] = worker
        # Router ingest totals are not logged anywhere; the shard sums are
        # the best WAL-only reconstruction (they count post-coalescing
        # blocks rather than accepted calls).
        service._reconcile_counters()
        return service

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush buffers and close every shard WAL (idempotent)."""
        self.flush()
        for worker in self.workers:
            if worker.wal is not None:
                worker.wal.close()

    def __enter__(self) -> "ShardedMomentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _shard_file(shard: int) -> str:
    return f"shard-{shard:03d}.ckpt"


def _create_wal(
    directory: Path,
    shard: int,
    wal_format: str,
    flush_records: Optional[int],
    flush_bytes: Optional[int],
    base_seq: int = 0,
) -> WriteAheadLog:
    """Start shard ``shard``'s log in ``directory`` (created if missing)."""
    version = 2 if wal_format == "v2" else 1
    records, nbytes = _resolve_wal_flush(version, flush_records, flush_bytes)
    directory.mkdir(parents=True, exist_ok=True)
    return WriteAheadLog.create(
        directory / f"shard-{shard:03d}.wal",
        shard_id=shard,
        base_seq=base_seq,
        version=version,
        flush_records=records,
        flush_bytes=nbytes,
    )
