"""Tests of the benchmark's own helpers (no Spark session needed).

    python3 -m pytest perfbench -q

The repository's pytest configuration collects ``tests/`` and
``benchmarks/`` only, so these never join the per-figure suite.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import count_plan  # noqa: E402
from spans import Span, Tracer, percentile, self_time_by_name, self_times  # noqa: E402
from steady import drift, spread, verdicts  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ------------------------------------------------------------ percentile

@pytest.mark.parametrize("n", [1, 2, 7, 100, 101])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy(n, q):
    xs = np.random.default_rng(n).exponential(size=n).tolist()
    assert percentile(xs, q) == pytest.approx(np.percentile(xs, q))


def test_percentile_small_cases():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile(range(1, 101), 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        percentile([], 50)


# ------------------------------------------------------------- self time

def test_self_time_subtracts_children_once():
    clock = FakeClock()
    tr = Tracer(clock)
    root = tr.begin("batch", root=True)
    clock.now = 1.0
    with tr.span("a"):
        clock.now = 3.0
    clock.now = 4.0
    with tr.span("b"):
        clock.now = 5.0
        with tr.span("c"):
            clock.now = 6.0
        clock.now = 8.0
    clock.now = 10.0
    tr.end(root)
    own = self_time_by_name(tr.spans)
    assert own == {"batch": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    # Self times partition the root's interval.
    assert sum(own.values()) == root.seconds


def test_self_time_uses_union_of_overlapping_children():
    spans = [Span(0, "p", 1, None, 0.0, 10.0),
             Span(1, "x", 1, 0, 2.0, 6.0),
             Span(2, "y", 1, 0, 4.0, 8.0),     # overlaps x by 2
             Span(3, "z", 1, 0, 9.0, 12.0)]    # runs past the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_groups_and_parents():
    tr = Tracer(FakeClock())
    for _ in range(2):
        with tr.span("batch", root=True):
            with tr.span("inner", root=True):  # nested root: same group
                pass
    groups = [(s.name, s.group, s.parent) for s in tr.spans]
    assert groups == [("batch", 1, None), ("inner", 1, 0),
                      ("batch", 2, None), ("inner", 2, 2)]


def test_tracer_wrap_records_and_returns():
    tr = Tracer(FakeClock())
    assert tr.wrap("f", lambda x: x + 1)(1) == 2
    assert [s.name for s in tr.spans] == ["f"]


def test_tracer_rejects_out_of_order_end():
    tr = Tracer(FakeClock())
    outer = tr.begin("outer")
    tr.begin("inner")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def test_tracer_dump_round_trips(tmp_path):
    tr = Tracer(FakeClock())
    with tr.span("a", root=True):
        pass
    tr.dump(tmp_path / "spans.json")
    [row] = json.loads((tmp_path / "spans.json").read_text())
    assert row["name"] == "a" and row["group"] == 1 and row["parent"] is None


# ------------------------------------------------------------ plan shape

PLAN = """AdaptiveSparkPlan isFinalPlan=false
+- FlatMapGroupsInPandas [anchor#1L], fn(...)
   +- Exchange hashpartitioning(anchor#1L, 4), ENSURE_REQUIREMENTS
      +- SortMergeJoin [t#2L], [t#3L], Inner
         :- Exchange hashpartitioning(t#2L, 4), ENSURE_REQUIREMENTS
         :  +- InMemoryTableScan [t#2L]
         :     +- InMemoryRelation [t#2L], StorageLevel(disk, memory)
         :           +- FlatMapCoGroupsInPandas [t#4L], [t#5L], fn(...)
         :              +- Exchange hashpartitioning(t#4L, 4)
         +- ReusedExchange [t#3L], Exchange hashpartitioning(t#2L, 4)
"""


def test_count_plan_skips_cached_subtrees_and_reused_exchanges():
    assert count_plan(PLAN) == (2, 1)


# ------------------------------------------------------------- steadiness

def test_spread_and_drift():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert drift(100.0, 110.0) == pytest.approx(0.10)
    assert drift(100.0, 90.0) == pytest.approx(0.10)


def _runs(name, values):
    return [{name: {"value": v, "unit": "s"}} for v in values]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_verdicts_are_two_sided(better):
    spec = {"end_to_end": [{"name": "x", "unit": "s", "better": better,
                            "bound": 0.1}]}
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdicts(spec, _runs("x", steady), _runs("x", steady))[0]["agree"]
    half = [v / 2 for v in steady]
    assert not verdicts(spec, _runs("x", steady), _runs("x", half))[0]["agree"]
    assert not verdicts(spec, _runs("x", half), _runs("x", steady))[0]["agree"]


def test_verdicts_check_every_spread_setup_s_too():
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower",
                            "bound": 0.25}]}
    wide = [5.0, 10.0, 15.0, 10.0, 10.0, 5.0, 15.0]
    row = verdicts(spec, _runs("setup_s", wide), _runs("setup_s", wide))[0]
    assert row["drift"] == 0 and not row["agree"]


# ------------------------------------------------------------------- gate

@pytest.fixture(scope="module")
def tiny_inputs():
    from repro.trajgen import TrajConfig
    from workloads import Workload, make_inputs

    cfg = TrajConfig(n_objects=40, n_snapshots=20, n_groups=3, seed=5,
                     cohesion=0.4, grouped_frac=0.9, churn=0.02)
    w = Workload("tiny", "stream", cfg, "vba", latency_limit_s=1.0,
                 rate=100.0, jitter=2.0)
    return w, make_inputs(w, seed=3)


def test_gate_fires_on_corrupted_pattern_set(tiny_inputs):
    from workloads import Gate

    _, inputs = tiny_inputs
    gate = Gate(inputs)
    expected = set(gate.expected)
    assert expected, "the tiny input must contain patterns"
    some = next(iter(expected))
    assert gate.check({k: () for k in expected})
    assert not gate.check(expected - {some})                    # one lost
    assert not gate.check(expected | {frozenset({-1, -2})})     # one extra
    assert not gate.check(expected - {some} | {some - {min(some)}})
    assert (gate.checks, gate.mismatches) == (4, 3)


def test_gate_matches_the_streaming_kernels(tiny_inputs):
    """The in-process engine over the same snapshots passes the gate."""
    from repro.experiments import fast_clusters
    from repro.enumeration.engine import EnumerationEngine
    from repro.enumeration.partition import id_partitions_py
    from workloads import Gate

    w, inputs = tiny_inputs
    parts = id_partitions_py(fast_clusters(inputs.snapshots, inputs.params),
                             inputs.params.m)
    engine = EnumerationEngine(inputs.params, w.enum_method)
    for t in range(1, inputs.n_snapshots + 1):
        engine.step(t, {a: d[t] for a, d in parts.items() if t in d})
    engine.finish()
    assert Gate(inputs).check(engine.patterns)


def test_inputs_depend_only_on_seed(tiny_inputs):
    from workloads import make_inputs

    w, a = tiny_inputs
    b = make_inputs(w, seed=3)
    c = make_inputs(w, seed=4)
    assert a.snapshots.equals(b.snapshots) and a.arrivals.equals(b.arrivals)
    assert not a.snapshots.equals(c.snapshots)
    # Relabelling keeps the id order, so the work is the same.
    key = ["t", "x", "y"]
    sa = a.snapshots.sort_values(key, ignore_index=True)
    sc = c.snapshots.sort_values(key, ignore_index=True)
    assert sa[key].equals(sc[key])
    assert (sa["oid"].rank().to_numpy() == sc["oid"].rank().to_numpy()).all()


def test_arrivals_are_bounded_out_of_order(tiny_inputs):
    w, inputs = tiny_inputs
    arr = inputs.arrivals
    assert arr["due"].is_monotonic_increasing
    lag = arr["due"] * w.rate - arr["t"]
    assert lag.between(0.0, w.jitter).all()
    assert not arr["t"].is_monotonic_increasing  # really out of order


# --------------------------------------------------------- missing program

def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
