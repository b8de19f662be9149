"""Launch ``repro serve`` with spans around the serving layers.

Usage: ``python serve_shim.py SPANS.npz serve [serve flags...]``

Wraps the public functions of the protocol, router, worker, scorer and
write-ahead-log layers, then calls ``repro.cli.main`` with the remaining
arguments, so the traced server takes the same CLI path as an untraced
``python -m repro serve``.  The request id of a span is the 0-based
number of the input line being handled.  Spans are written to
``SPANS.npz`` when the loop ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

from common import use_checkout_package

READ_OPS = frozenset(("estimate", "loglik", "yield"))


class TimedLines:
    """Iterates stdin, stamping when each line arrived and when the loop
    came back for the next one (the server's busy interval for that line)."""

    def __init__(self, stream, rec) -> None:
        self.stream = stream
        self.rec = rec
        self.got = array("d")
        self.freed = array("d")

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if len(self.freed) < len(self.got):
            self.freed.append(time.perf_counter())
        line = self.stream.readline()
        if not line:
            raise StopIteration
        self.got.append(time.perf_counter())
        self.rec.request_id += 1
        return line


def _handle_kind(response, args, kwargs) -> str:
    op = response.get("op")
    kind = "read" if op in READ_OPS else "write" if op == "ingest" else "other"
    return f"serving.protocol.handle.{kind}"


def _batch_size(result, args, kwargs) -> float:
    return float(len(args[1]))


def main(argv) -> int:
    spans_path = Path(argv[0])
    use_checkout_package()
    t0 = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t0
    scipy_stats_eager = "scipy.stats" in sys.modules
    from repro.serving import protocol
    from repro.serving.router import ShardedMomentService
    from repro.serving.scoring import BatchScorer
    from repro.serving.wal import WriteAheadLog
    from repro.serving.worker import ShardWorker
    from tracing import SpanRecorder

    rec = SpanRecorder()
    rec.patch(protocol, "handle_request", "serving.protocol.handle", _handle_kind)
    rec.patch(protocol, "canonical_json", "serving.protocol.encode")
    rec.patch(ShardedMomentService, "ingest", "serving.router.ingest")
    rec.patch(ShardedMomentService, "ingest_stats", "serving.router.ingest")
    rec.patch(ShardedMomentService, "flush", "serving.router.flush")
    rec.patch(ShardedMomentService, "query_many", "serving.router.query_many", _batch_size)
    rec.patch(ShardWorker, "ingest", "serving.worker.ingest")
    rec.patch(ShardWorker, "ingest_stats", "serving.worker.ingest")
    rec.patch(BatchScorer, "score", "serving.scoring.score")
    rec.patch(WriteAheadLog, "append", "serving.wal.append")
    lines = TimedLines(sys.stdin, rec)
    sys.stdin = lines
    try:
        return repro.cli.main(argv[1:])
    finally:
        rec.dump(
            spans_path,
            {"import_s": import_s, "scipy_stats_eager": scipy_stats_eager},
            line_got=lines.got,
            line_freed=lines.freed,
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
