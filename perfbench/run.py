"""Repository benchmark: one workload, one run, one JSON result line.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper_fusion --seed 1 --seconds 20 --trace 0

Workloads: ``paper_fusion``, ``serve_ingest``, ``serve_query``,
``fleet_compile`` (see ``perfbench/README.md``).  Every process runs the
package from the checkout's ``src/``; every file a run writes lands under
``.perfbench_out/``.  With ``--trace 0`` the result carries every
end-to-end metric; ``setup_s`` is the median over ``SETUP_SAMPLES``
fresh interpreters.  With ``--trace 1`` it carries every per-layer metric.
The full run record (environment, checks, trace report) is written to
``.perfbench_out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402  (path set above)
    END_TO_END,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    child_env,
    complete_per_layer,
    emit,
    median,
    per_layer_units,
    with_units,
)

#: Fresh interpreters whose set-up time is measured per untraced run.
SETUP_SAMPLES = 3
#: Every run ends within this many seconds, or fails.
RUN_BUDGET_S = 170.0
CHILD = Path(__file__).resolve().with_name("child.py")


class ChildFailed(RuntimeError):
    pass


def spawn(args, extra, deadline: float) -> dict:
    spawned_at = time.monotonic()
    argv = [
        sys.executable, str(CHILD),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(spawned_at), *extra,
    ]
    # own process group, so an overrun also stops the server a child started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{' '.join(extra) or 'measured'} child overran the run budget")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    for sub in ("tmp", "datasets", "runs", "xdg"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment_before": environment()}
    if args.workload == "paper_fusion" and not (OUT / "datasets" / ".warm").exists():
        if not spawn(args, ["--warm"], deadline)["warmed"]:
            raise ChildFailed("dataset cache did not warm")
        (OUT / "datasets" / ".warm").touch()
    if args.trace:
        result = spawn(args, [], deadline)
        metrics = with_units(complete_per_layer(args.workload, result["per_layer"]), per_layer_units())
    else:
        samples = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, [], deadline)
        samples.append(result)
        setups = [s["setup_s"] for s in samples]
        # scaled like every other time, by the machine speed the timed phase saw
        values = dict(result.get("metrics", {}), setup_s=median(setups) * result["speed"])
        record["setup_unscaled_s"] = setups
        metrics = with_units(values, END_TO_END) if set(values) == set(END_TO_END) else {}
    failures = result["failures"]
    record.update(
        environment_after=environment(),
        versions=result["versions"],
        import_s=result["import_s"],
        scipy_stats_eager=result["scipy_stats_eager"],
        failures=failures[:50],
        checks=result["record"],
    )
    summary = {
        "correct": not failures and bool(metrics),
        "attempted": int(result["attempted"]),
        "failed": len(failures),
        "metrics": metrics,
    }
    record["result"] = summary
    path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    for line in failures[:5]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        summary = measure(args)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
