"""Span recorder for traced runs.

Spans are recorded around calls into each layer's public functions by
patching them from the benchmark's own files (nothing under ``src/``
changes).  A span is ``(name, start, end, parent, request id)``; spans are
kept in flat in-memory arrays and written out once, at exit.

Self time is a span's duration minus the time its children cover.  Every
traced process is single-threaded, so children never overlap and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import array
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

#: A span name, or a function of the call's ``(args, kwargs)`` giving one.
SpanName = Union[str, Callable[[tuple, dict], str]]
#: Called after a traced call with ``(result, args, kwargs)``.  It may
#: return a new name for the span (e.g. to split requests by kind) or a
#: number to store as the span's value (e.g. a batch size).
Observer = Callable[[Any, tuple, dict], Union[None, str, float]]


class SpanRecorder:
    """In-memory spans of one process, in flat arrays (about 36 bytes each)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.request = array.array("q")
        self.value = array.array("d")
        #: Stamped on every span opened from now on; -1 means set-up.
        self.request_id = -1
        self._stack: List[int] = []

    def _name(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: SpanName, observe: Optional[Observer] = None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if observe is not None:
                note = observe(result, args, kwargs)
                if isinstance(note, str):
                    rec.name_id[idx] = rec._name(note)
                elif note is not None:
                    rec.value[idx] = float(note)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: SpanName, observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a traced twin."""
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, observe)))
        else:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, observe))

    def spans(self) -> "Spans":
        return Spans(list(self.names), *(np.array(getattr(self, field)) for field in Spans.FIELDS))

    def dump(self, path: Path, extra: Optional[dict] = None, **arrays: array.array) -> None:
        """Write every span, JSON-safe ``extra`` and named ``arrays`` to one ``.npz``."""
        header = json.dumps({"names": self.names, "extra": extra or {}, "arrays": sorted(arrays)})
        fields = {field: np.array(getattr(self, field)) for field in Spans.FIELDS}
        fields.update({f"extra_{name}": np.array(values) for name, values in arrays.items()})
        np.savez(path, header=np.array(header), **fields)


class Spans:
    """Recorded spans as NumPy arrays, with the self-time arithmetic."""

    FIELDS = ("name_id", "start", "end", "parent", "request", "value")

    def __init__(self, names, name_id, start, end, parent, request, value, extra=None):
        self.names = names
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.value = value
        self.extra = extra or {}

    @classmethod
    def load(cls, path: Path) -> "Spans":
        with np.load(path, allow_pickle=False) as data:
            header = json.loads(str(data["header"]))
            extra = dict(header["extra"])
            extra.update({name: data[f"extra_{name}"] for name in header["arrays"]})
            return cls(header["names"], *(data[f] for f in cls.FIELDS), extra=extra)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur - covered

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def mean_ms(self, name: str, within: Optional[np.ndarray] = None, self_only: bool = False) -> float:
        """Mean (self or inclusive) milliseconds per call of ``name``."""
        sel = self.mask(name) if within is None else self.mask(name) & within
        if not sel.any():
            raise ValueError(f"no spans named {name!r} in the traced window")
        times = self.self_time() if self_only else self.duration
        return float(times[sel].mean() * 1e3)

    def count(self, name: str, within: Optional[np.ndarray] = None) -> int:
        sel = self.mask(name) if within is None else self.mask(name) & within
        return int(sel.sum())

    def report(self, within: np.ndarray, wall_s: float) -> Dict[str, Any]:
        """Per-name calls, inclusive and self milliseconds, and the share of
        ``wall_s`` that no root span covers."""
        dur = self.duration
        own = self.self_time()
        layers: Dict[str, Dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            sel = (self.name_id == idx) & within
            if sel.any():
                layers[name] = {
                    "calls": int(sel.sum()),
                    "total_ms": float(dur[sel].sum() * 1e3),
                    "self_ms": float(own[sel].sum() * 1e3),
                    "self_share": float(own[sel].sum() / wall_s),
                }
        roots = within & (self.parent < 0)
        covered = float(dur[roots].sum())
        return {
            "wall_s": wall_s,
            "uncovered_share": max(0.0, 1.0 - covered / wall_s),
            "layers": layers,
        }
