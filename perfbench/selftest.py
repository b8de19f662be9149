"""Self-tests of the benchmark itself.

Run from the checkout root (takes about a minute)::

    python3 perfbench/selftest.py

Checks that the same seed gives a byte-identical input stream and another
seed a different one, that the metric names the benchmark emits equal
``BENCHMARK.json``, and that a smoke-sized run of every workload passes
all its output checks with zero failures, untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402  (path set above)
    END_TO_END,
    OUT,
    ROOT,
    WORKLOADS,
    child_env,
    per_layer_units,
    use_checkout_package,
)

SMOKE_SECONDS = 2.0


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_benchmark_json_matches_emitted_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names differ")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    _check(e2e == END_TO_END, f"end_to_end differs: {sorted(set(e2e) ^ set(END_TO_END))}")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    units = per_layer_units()
    _check(layers == units, f"per_layer differs: {sorted(set(layers) ^ set(units))}")


def test_inputs_are_a_function_of_the_seed() -> None:
    import fleet
    import fusion
    import serve

    digests = {
        "paper_fusion": fusion.input_digest,
        "fleet_compile": fleet.input_digest,
        "serve_ingest": lambda seed: serve.Stream("serve_ingest", seed, 2000).digest(2000),
        "serve_query": lambda seed: serve.Stream("serve_query", seed, 2000).digest(2000),
    }
    for workload, digest in digests.items():
        first, again, other = digest(1), digest(1), digest(2)
        _check(first == again, f"{workload}: same seed, different input stream")
        _check(first != other, f"{workload}: different seeds, same input stream")


def test_smoke_untraced() -> None:
    from child import untraced, workload_module

    import fusion

    fusion.warm()
    for workload in WORKLOADS:
        out = untraced(workload_module(workload), workload, 7, SMOKE_SECONDS, time.monotonic(), min_ops=1)
        _check(not out["failures"], f"{workload}: {out['failures'][:3]}")
        names = set(out["metrics"]) | {"setup_s"}
        _check(names == set(END_TO_END), f"{workload}: emitted {sorted(names)}")
        _check(all(v > 0 for v in out["metrics"].values()), f"{workload}: a metric reads 0")


def test_smoke_traced() -> None:
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "4", "--trace", "1"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=180,
        )
        _check(proc.returncode == 0, f"{workload}: traced run failed\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _check(result["correct"] and result["failed"] == 0, f"{workload}: {result}")
        _check(set(result["metrics"]) == set(per_layer_units()), f"{workload}: per-layer names differ")
        if workload.startswith("serve_"):
            m = result["metrics"]
            _check(m["client.busy_share"]["value"] < m["serving.loop.busy_share"]["value"],
                   f"{workload}: the load generator is busier than the server")


def main() -> int:
    use_checkout_package()
    for sub in ("tmp", "datasets"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    tests = [
        test_benchmark_json_matches_emitted_names,
        test_inputs_are_a_function_of_the_seed,
        test_smoke_untraced,
        test_smoke_traced,
    ]
    failed = 0
    for test in tests:
        t0 = time.perf_counter()
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__} ({time.perf_counter() - t0:.1f}s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
