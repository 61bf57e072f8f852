"""Tests of the benchmark's own machinery (not of the program under test).

    python3 -m pytest perfbench/tests -q
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import common
import loadgen
import offline
import serving

ROOT = Path(__file__).resolve().parents[2]


def _inputs(seed):
    """Every input a run derives from its seed, as bytes."""
    from repro.datasets.splits import fraction_split

    _, data = common.load_data("ALL-scaled")
    splits = [
        fraction_split(data, common.TRAIN_FRACTION, seed=k)
        for k in offline.split_order(seed, 25.0)
    ]
    order = common.stream_order(seed, 16, 500)
    bodies = [common.request_body(frozenset({i, 3 * i})) for i in order]
    return (data.values.tobytes(), repr(splits).encode(), b"".join(bodies))


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7) == _inputs(7)
    assert _inputs(7) != _inputs(8)


def test_stream_sends_every_query_equally_often():
    order = common.stream_order(3, 16, 16 * 5 + 3)
    counts = np.bincount(order, minlength=16)
    assert counts.max() - counts.min() <= 1


class _StalledClient:
    """A fake server connection whose first answer stalls."""

    def __init__(self, stall):
        self.stall = stall
        self.calls = 0

    def call(self, body):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        return b"{}"

    def close(self):
        pass


def test_open_loop_charges_a_stall_from_the_due_time():
    outcomes, late_ms = loadgen.open_loop(
        lambda: _StalledClient(0.5), [b"q"], rate=20.0, seconds=1.0,
        connections=1,
    )
    assert len(outcomes) == 20 and all(o.ok for o in outcomes)
    queued = outcomes[1]
    # sent only once the stalled first request returned ...
    assert queued.sent - queued.due >= 0.4
    # ... answered at once, yet charged the wait behind the stall
    assert queued.done - queued.sent < 0.1
    assert queued.latency_ms >= 400.0
    # the schedule itself ran on time: the stall is the server's
    assert max(late_ms) < 100.0


def test_percentile_refuses_p99_below_1000_samples():
    values = list(range(999))
    with pytest.raises(ValueError):
        common.percentile(values, 99)
    assert common.percentile(values + [999], 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        common.percentile(values[:99], 90)
    assert common.percentile(values[:100], 90) == pytest.approx(89.1)


def _deployment():
    expected = np.array([[0.75, 0.375], [0.2, 0.6]])
    return serving.Deployment(
        "m", Path("m.npz"), [frozenset({0}), frozenset({1})], [0, 1],
        expected, fit_s=1.0, refresh_s=1.0,
    )


def _answer(values, label):
    return json.dumps({"prediction": label, "values": values}).encode()


def test_corrupted_answer_counts_as_failure():
    dep = _deployment()
    now = time.perf_counter()
    good = [
        loadgen.Outcome(i, now, now, now + 0.01, True,
                        _answer(list(dep.expected[i % 2]), i % 2))
        for i in range(200)
    ]
    corrupted = [
        loadgen.Outcome(200, now, now, now + 0.01, True,
                        _answer([0.75, 0.375 + 1e-3], 0)),
        loadgen.Outcome(201, now, now, now + 0.01, True,
                        _answer(list(dep.expected[1]), 0)),
        loadgen.Outcome(202, now, now, now + 0.01, True, b"not json"),
        loadgen.Outcome(203, now, now, now + 0.01, False, None),
    ]
    order = [i % 2 for i in range(204)]
    result = serving.summarize(
        dep, order, [0.5], good + corrupted, [], 0, None, "http_toy_1c"
    )
    assert result["attempted"] == 204
    assert result["failed"] == 4
    assert result["metrics"]["slo_frac"] == pytest.approx(200 / 204)


def test_answer_check_allows_ties_within_tolerance():
    expected = np.array([0.5, 0.5 + 1e-7])
    assert serving.answer_ok(_answer([0.5, 0.5], 0), expected)
    assert serving.answer_ok(_answer([0.5, 0.5], 1), expected)
    assert not serving.answer_ok(_answer([0.5, 0.5], 2), expected)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == common.END_TO_END
    assert layers == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "offline_pc", "http_toy_1c", "http_pc_open"
    ]
