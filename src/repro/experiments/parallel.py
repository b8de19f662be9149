"""Process-based replication engine for the experiment harnesses.

The paper's figures average ~100 independent repetitions per sample size;
each repetition is pure given its :class:`numpy.random.SeedSequence` child,
so they parallelise embarrassingly.  :func:`replicate` fans a task list out
over a ``ProcessPoolExecutor`` and returns results **in task order**, which
— together with per-task child seeds — makes the output bit-identical
regardless of the worker count.

Two practical constraints shape the implementation:

* Experiment callables close over unpicklable state (estimator factories
  are lambdas, datasets are large arrays).  The pool therefore uses the
  ``fork`` start method and passes the callable and task list to workers
  through a module-level global captured at fork time; only task *indices*
  travel over the pipe, and only results travel back.
* On platforms without ``fork`` (or when ``n_jobs == 1``) the engine falls
  back to a plain serial loop, which is also the reference semantics the
  determinism tests compare against.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence

from repro.exceptions import DimensionError

__all__ = ["replicate", "resolve_n_jobs", "fork_available"]

#: Callable + task list inherited by forked workers (never pickled).
_FORK_STATE: dict = {}


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    positive values are taken literally.  ``0`` and values below ``-1``
    are rejected — they are invariably typos.
    """
    if n_jobs is None:
        return 1
    jobs = int(n_jobs)
    if jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if jobs < 1:
        raise DimensionError(f"n_jobs must be a positive int or -1, got {n_jobs}")
    return jobs


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def _call_indexed(index: int) -> Any:
    """Worker entry point: run the fork-inherited callable on task ``index``."""
    return _FORK_STATE["fn"](_FORK_STATE["tasks"][index])


def replicate(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    n_jobs: Optional[int] = 1,
) -> List[Any]:
    """Evaluate ``fn(task)`` for every task, order-preserving.

    ``fn`` must be pure in its task (any randomness derived from seed
    material inside the task, e.g. a ``SeedSequence`` child), so the result
    list is bit-identical for every ``n_jobs`` — the serial path *is* the
    specification.  ``fn`` may be a closure or bound method over arbitrary
    unpicklable state; only the returned values must pickle.
    """
    jobs = resolve_n_jobs(n_jobs)
    task_list = list(tasks)
    if jobs <= 1 or len(task_list) <= 1 or not fork_available():
        return [fn(task) for task in task_list]

    _FORK_STATE["fn"] = fn
    _FORK_STATE["tasks"] = task_list
    try:
        context = multiprocessing.get_context("fork")
        workers = min(jobs, len(task_list))
        chunksize = max(1, len(task_list) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(
                pool.map(_call_indexed, range(len(task_list)), chunksize=chunksize)
            )
    finally:
        _FORK_STATE.clear()
