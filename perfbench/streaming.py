"""Stream workloads: open-loop latency and closed-loop capacity.

Open loop: a single-threaded source in this process makes every record
due on a fixed schedule (``workloads.arrival_schedule``) and never
slows down when the detector does. At each trigger it hands every due
record to ``StreamingDetector.process_batch``. A snapshot's latency
runs from the due time of its last record until ``buffer.released_until``
first covers it after ``process_batch`` (or ``finish``) returns.

Closed loop: the real Structured Streaming query
(``run_structured_stream``: parquet file source → Catalyst
``discretize`` → ``foreachBatch``) drains pre-written files as fast as
it can; capacity is snapshots ÷ wall time.

With a ``Tracer`` the detector's layer calls are wrapped from outside:
``process_batch``/``finish`` open one span group per micro-batch.
"""
from __future__ import annotations

import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql.streaming import StreamingQueryListener

import repro.stream.pipeline as pipeline
from repro.stream.pipeline import (StreamingDetector, run_structured_stream,
                                   write_stream_files)

from spans import Tracer

# The prefix source (the first files of the stream) serves the warm-up
# and the tracing-overhead pairs, which need the query's code paths but
# not the whole stream.
PREFIX_FILES = 2


def detector(spark, w, inputs) -> StreamingDetector:
    return StreamingDetector(
        spark, inputs.params, enum_method=w.enum_method,
        expected_oids=inputs.snapshots["oid"].unique(),
    )


# ------------------------------------------------------------- tracing

class _TracedFrame:
    """Stands in for the DataFrame ``cluster_stream`` returns, so that
    the span opened at the call closes once ``collect`` has run."""

    def __init__(self, df, tracer: Tracer, span) -> None:
        self._df, self._tracer, self._span = df, tracer, span

    def collect(self):
        try:
            return self._df.collect()
        finally:
            self._tracer.end(self._span)


@contextmanager
def instrumented(det: StreamingDetector, tracer: Tracer):
    """Record a span around every layer call the detector makes."""
    det.process_batch = tracer.wrap("pipeline.process_batch",
                                    det.process_batch, root=True)
    det.finish = tracer.wrap("pipeline.finish", det.finish, root=True)
    buf = det.buffer
    buf.ingest = tracer.wrap("ordering.ingest", buf.ingest)
    buf.release = tracer.wrap("ordering.release", buf.release)
    buf.flush_all = tracer.wrap("ordering.flush", buf.flush_all)
    det.engine.step = tracer.wrap("engine.step", det.engine.step)
    cluster_stream = pipeline.cluster_stream
    id_partitions_py = pipeline.id_partitions_py

    def traced_cluster_stream(*args, **kwargs):
        span = tracer.begin("cluster.cluster_stream")
        return _TracedFrame(cluster_stream(*args, **kwargs), tracer, span)

    pipeline.cluster_stream = traced_cluster_stream
    pipeline.id_partitions_py = tracer.wrap("partition.id_partitions_py",
                                            id_partitions_py)
    try:
        yield det
    finally:
        pipeline.cluster_stream = cluster_stream
        pipeline.id_partitions_py = id_partitions_py


class ProgressListener(StreamingQueryListener):
    """Keeps ``durationMs`` of every ``StreamingQueryProgress``."""

    def __init__(self) -> None:
        self.durations: list[dict] = []

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        self.durations.append(dict(event.progress.durationMs))

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        pass

    def wait_for(self, n: int, timeout: float = 10.0) -> None:
        """Progress events arrive asynchronously after the query ends."""
        deadline = time.monotonic() + timeout
        while len(self.durations) < n and time.monotonic() < deadline:
            time.sleep(0.05)


# --------------------------------------------------------- closed loop

def write_source(w, inputs, directory: str) -> tuple[str, str]:
    """Write the parquet source, ``w.n_files`` files split along ``ts``,
    and a prefix source holding copies of its first ``PREFIX_FILES``
    files. Returns (source dir, prefix dir)."""
    shutil.rmtree(directory, ignore_errors=True)
    full = os.path.join(directory, "full")
    prefix = os.path.join(directory, "prefix")
    paths = write_stream_files(inputs.records, full, n_files=w.n_files)
    os.makedirs(prefix)
    for p in paths[:PREFIX_FILES]:
        shutil.copy(p, prefix)
    return full, prefix


def closed_loop(spark, w, inputs, src_dir: str, ckpt_dir: str,
                tracer: Tracer | None = None):
    """One pass of the real query; returns (wall seconds, detector)."""
    det = detector(spark, w, inputs)
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    with _maybe(det, tracer):
        start = time.perf_counter()
        run_structured_stream(det, src_dir, checkpoint_dir=ckpt_dir,
                              max_files_per_trigger=1)
        wall = time.perf_counter() - start
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    return wall, det


@contextmanager
def _maybe(det, tracer):
    if tracer is None:
        yield det
    else:
        with instrumented(det, tracer):
            yield det


# ----------------------------------------------------------- open loop

@dataclass
class OpenLoopResult:
    detector: StreamingDetector
    latencies_s: list[float]            # per snapshot in t order; NaN: never
    batches: int = 0
    records_per_batch: list[int] = field(default_factory=list)
    backlog_max: int = 0                # records due but not yet delivered
    lag_s: list[float] = field(default_factory=list)    # delivery − due
    held: list[int] = field(default_factory=list)       # buffered records
    wait_snap: list[int] = field(default_factory=list)  # newest t − released


def open_loop(spark, w, inputs, tracer: Tracer | None = None) -> OpenLoopResult:
    arr = inputs.arrivals
    due = arr["due"].to_numpy()
    ts = arr["t"].to_numpy()
    n_snap = int(ts.max())
    last_due = np.zeros(n_snap + 1)
    np.maximum.at(last_due, ts, due)
    per_t = np.bincount(ts, minlength=n_snap + 1)
    released_rows = np.cumsum(per_t)  # records with t' <= t
    frame = arr[["oid", "t", "x", "y", "last_t"]]
    det = detector(spark, w, inputs)
    res = OpenLoopResult(det, [float("nan")] * (n_snap + 1))
    done_until = 0
    newest = 0

    def settle(now: float) -> None:
        nonlocal done_until
        upto = det.buffer.released_until
        for t in range(done_until + 1, upto + 1):
            res.latencies_s[t] = now - last_due[t]
        done_until = max(done_until, upto)

    with _maybe(det, tracer):
        start = time.perf_counter()
        i, n = 0, len(due)
        while i < n:
            now = time.perf_counter() - start
            if due[i] > now:
                time.sleep(due[i] - now)
                continue
            j = int(np.searchsorted(due, now, side="right"))
            res.batches += 1
            res.records_per_batch.append(j - i)
            res.backlog_max = max(res.backlog_max, j - i)
            res.lag_s.extend((now - due[i:j]).tolist())
            newest = max(newest, int(ts[i:j].max()))
            det.process_batch(frame.iloc[i:j])
            i = j
            settle(time.perf_counter() - start)
            res.held.append(i - int(released_rows[det.buffer.released_until]))
            res.wait_snap.append(newest - det.buffer.released_until)
        det.finish()
        settle(time.perf_counter() - start)
    res.latencies_s = res.latencies_s[1:]
    return res
