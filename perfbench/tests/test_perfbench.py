"""Tests of the benchmark itself: its statistics, its failure accounting,
its span arithmetic, and a tiny run of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench_run  # noqa: E402
from measure import (  # noqa: E402
    Spans,
    Tally,
    covered,
    min_samples_for,
    self_times,
    tail_percentile,
)
from systems import FORWARDED, Stream  # noqa: E402


# -- percentile rule ----------------------------------------------------
def test_p99_needs_ten_samples_beyond_it():
    assert min_samples_for(0.99) == 1000
    assert tail_percentile(list(range(999)), 0.99) is None
    assert tail_percentile(list(range(1000)), 0.99) == 989
    # exactly ten samples lie above the reported value
    values = list(range(1000))
    p99 = tail_percentile(values, 0.99)
    assert sum(1 for v in values if v > p99) == 10


def test_percentile_is_nearest_rank_and_order_free():
    values = [5, 1, 4, 2, 3] * 40          # 200 samples
    assert tail_percentile(values, 0.9) == 5
    assert tail_percentile(values, 0.5) == 3
    assert tail_percentile([], 0.5) is None
    with pytest.raises(ValueError):
        tail_percentile(values, 1.0)


def test_timed_phase_always_supports_p99():
    assert bench_run.MIN_BURSTS >= min_samples_for(0.99)


# -- fail_ratio accounting ----------------------------------------------
def test_tally_counts_packets_verbs_and_checks():
    tally = Tally()
    assert tally.packets(["a", "b", "c"], ["a", "x", "c"], "burst") == 1
    assert tally.packets(["a"], ["a", "a"], "short") == 1   # missing result

    def boom():
        raise RuntimeError("no such instance")

    assert tally.verb("bind", lambda: None)
    assert not tally.verb("unbind", boom)
    assert tally.check(True, "fine")
    assert not tally.check(False, "rx != dispositions")
    assert tally.attempted == 3 + 2 + 2 + 2
    assert tally.failed == 1 + 1 + 1 + 1
    assert tally.ratio == pytest.approx(4 / 9)
    assert any("unbind raised RuntimeError" in n for n in tally.notes)


def test_tally_of_nothing_is_zero():
    assert Tally().ratio == 0.0


# -- self-time subtraction ----------------------------------------------
def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered((0, 100), [(10, 20), (15, 30), (90, 150), (200, 300)]) == 30
    assert covered((0, 100), []) == 0


def test_self_time_subtracts_direct_children_only():
    rows = [
        # name, start, end, parent, burst
        ["resv.setup", 0, 100, -1, 0],
        ["mgr.create_instance", 10, 30, 0, 0],
        ["mgr.bind", 40, 90, 0, 0],
        ["inner", 50, 60, 2, 0],
    ]
    totals = self_times(rows)
    assert totals["resv.setup"] == 100 - 20 - 50
    assert totals["mgr.create_instance"] == 20
    assert totals["mgr.bind"] == 50 - 10
    assert totals["inner"] == 10


def test_spans_nest_and_serialise():
    spans = Spans()
    spans.burst = 7
    outer = spans.open("outer")
    (value, ns) = spans.call("inner", lambda x: x * 2, 21)
    spans.close(outer)
    assert value == 42 and ns >= 0
    name, start, end, parent, burst = spans.rows[1]
    assert (name, parent, burst) == ("inner", 0, 7)
    out = spans.to_dict()
    assert set(out["self_time_ns"]) == {"outer", "inner"}
    with pytest.raises(RuntimeError):
        index = spans.open("a")
        spans.open("b")
        spans.close(index)


# -- inputs -------------------------------------------------------------
def test_stream_is_a_function_of_its_seed():
    a, b, c = Stream("edge", 3), Stream("edge", 3), Stream("edge", 4)
    first = [a.take() for _ in range(4)]
    assert first == [b.take() for _ in range(4)]
    assert first != [c.take() for _ in range(4)]
    # fresh packet objects every time, equal contents
    p, q = a.packets(first[0][:2]), a.packets(first[0][:2])
    assert p[0] is not q[0] and p[0].src == q[0].src


def test_chain_stream_first_pass_covers_every_flow():
    stream = Stream("chain", 1)
    seen = set(stream.take()) | set(stream.take())
    assert seen == set(range(len(stream.flows)))
    assert set(stream.expected(range(len(stream.flows)))) == {FORWARDED}


# -- tiny runs of every workload ------------------------------------------
@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_is_correct(workload, traced, tmp_path):
    out = io.StringIO()
    result = bench_run.run(workload, seed=5, seconds=0, traced=traced,
                           out_dir=str(tmp_path), stdout=out, min_bursts=12)
    text = out.getvalue()
    assert result["failed"] == 0, text
    assert result["correct"] and result["attempted"] > 12 * 256
    assert "fail_ratio = 0 ratio" in text
    names = bench_run.PER_LAYER if traced else bench_run.END_TO_END
    assert set(result["metrics"]) == set(names)
    json.dumps(result)
    if traced:
        dumped = json.loads(next(tmp_path.iterdir()).read_text())
        assert dumped["spans"] and dumped["self_time_ns"]
    else:
        # 12 bursts cannot support a p99: it is withheld, and the sample
        # count is stated beside it.
        assert "burst_p99_us (us, not gated): n/a  (12 bursts; raw n/a)" in text
        assert result["metrics"]["fwd_pps"]["value"] > 0
