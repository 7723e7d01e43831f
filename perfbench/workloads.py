"""The benchmark's workloads, their seeded inputs and the reference gate.

Each workload fixes a generator preset (so the pattern population, and
with it the amount of work, is the same for every seed). The workload
seed then varies what a real deployment does not control:

- the object ids, relabelled to sorted random integers: the id order
  (and with it every anchor, DBSCAN tie-break and pattern) stays the
  same, while every hash-partitioned key moves to another task;
- the row order of the input;
- for stream workloads, each record's timestamp inside its interval
  and its bounded out-of-order arrival delay.

The gate runs the exhaustive miner (``core.reference``) over
``experiments.fast_clusters`` of the same relabelled snapshots, outside
every timed region.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro import trajgen
from repro.core.reference import reference_patterns
from repro.experiments import fast_clusters, params_for
from repro.params import CPParams
from repro.trajgen import TrajConfig


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "stream" (StreamingDetector) or "batch" (detect)
    config: TrajConfig
    enum_method: str
    latency_limit_s: float    # a snapshot (or detect call) slower than this fails
    rate: float = 0.0         # open loop: snapshots due per second
    jitter: float = 0.0       # max arrival delay, in snapshot periods
    n_files: int = 0          # closed loop: parquet files, one per trigger


WORKLOADS = {
    # Per-micro-batch clustering jobs set the latency; records arrive out
    # of order, so SnapshotBuffer reorders and holds them. Closed loop:
    # 8 files, one per trigger, as in the repo's own stream driver
    # (experiments.run_detection, n_batches=8). Open loop: 3.5 snapshots/s,
    # half the closed-loop capacity at the commit that introduced the
    # benchmark, on a 4-core x86 container (7.0 snapshots/s with 8
    # files). Jitter: each snapshot's records arrive over 2 periods, the
    # smallest whole number at which the arrival windows of neighbouring
    # snapshots overlap (at 1 or less records arrive in snapshot order).
    "taxi-stream": Workload(
        "taxi-stream", "stream", trajgen.taxi_like(), "vba",
        latency_limit_s=10.0, rate=3.5, jitter=2.0, n_files=8,
    ),
    # Enumeration, JSON pattern encoding and collect_patterns dominate
    # (about 53k patterns); SnapshotBuffer is never touched.
    "groups-batch": Workload(
        "groups-batch", "batch", replace(trajgen.taxi_like(), churn=0.04),
        "fba", latency_limit_s=60.0,
    ),
}


@dataclass
class Inputs:
    params: CPParams
    snapshots: pd.DataFrame            # (oid, t, x, y), relabelled, shuffled
    n_snapshots: int
    records: pd.DataFrame | None = None   # stream: (oid, ts, x, y, last_t)
    arrivals: pd.DataFrame | None = None  # stream: (oid, t, x, y, last_t, due)


def make_inputs(w: Workload, seed: int) -> Inputs:
    pdf = trajgen.generate(w.config)
    rng = np.random.default_rng(seed)
    relabel = np.sort(rng.choice(1 << 40, w.config.n_objects, replace=False))
    pdf = pdf.assign(oid=relabel[pdf["oid"].to_numpy()])
    pdf = pdf.iloc[rng.permutation(len(pdf))].reset_index(drop=True)
    inputs = Inputs(params_for(w.config), pdf, int(pdf["t"].nunique()))
    if w.kind == "stream":
        inputs.records = trajgen.to_records(pdf, jitter_seed=seed)
        inputs.arrivals = arrival_schedule(pdf, w.rate, w.jitter, rng)
    return inputs


def arrival_schedule(snapshots: pd.DataFrame, rate: float, jitter: float,
                     rng: np.random.Generator) -> pd.DataFrame:
    """Open-loop schedule: snapshot t is due at t / rate, and each record
    arrives up to ``jitter`` snapshot periods after that, so records of
    neighbouring snapshots interleave. Sorted by due time (seconds)."""
    df = trajgen.with_last_time(snapshots)
    delay = rng.uniform(0.0, jitter, len(df))
    df["due"] = (df["t"].to_numpy() + delay) / rate
    return df.sort_values("due", kind="stable", ignore_index=True)


class Gate:
    """Expected pattern key set of one input; counts every check."""

    def __init__(self, inputs: Inputs) -> None:
        clusters = fast_clusters(inputs.snapshots, inputs.params)
        self.expected = frozenset(reference_patterns(clusters, inputs.params))
        self.checks = 0
        self.mismatches = 0

    def check(self, patterns) -> bool:
        self.checks += 1
        ok = set(patterns) == self.expected
        self.mismatches += not ok
        return ok
