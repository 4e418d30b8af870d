"""Smoke-run the throughput benchmark under plain pytest.

A tiny (hundreds of packets) pass over every workload of
``benchmarks/bench_throughput.py``, so the benchmark script itself —
router construction, workload generators, the batch/sequential timing
paths, the forwarded-counter sanity check — is exercised on every test
run, not only when someone invokes the benchmark by hand.
"""

import importlib.util
import os

import pytest

_BENCH_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "bench_throughput.py"
)


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_throughput", _BENCH_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.smoke
@pytest.mark.bench
@pytest.mark.parametrize(
    "workload",
    ["cached_hit", "cache_miss", "gates3", "miss_churn", "filters256"],
)
@pytest.mark.parametrize("use_batch", [True, False], ids=["batch", "sequential"])
def test_bench_throughput_smoke(workload, use_batch):
    bench = _load_bench()
    pps = bench.run_workload(workload, n=300, reps=1, use_batch=use_batch)
    assert pps > 0


@pytest.mark.smoke
@pytest.mark.bench
def test_bench_churn_pair_smoke():
    bench = _load_bench()
    steady, churn = bench.run_churn_pair(n=600, reps=1)
    assert steady > 0 and churn > 0
