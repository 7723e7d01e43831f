"""Layer-by-layer measurements on a cached input (traced runs only).

- ``staged``: each stage of the batch dataflow runs once through its
  public function on the cached output of the stage before it, inside
  its own span, and its work counters are taken at the same boundary.
- ``front_door``: ``cluster_stream`` and ``detect`` end to end, with
  the Spark jobs and tasks ``detect`` launched.
- ``kernels``: the single-threaded, in-process baseline of the same
  work (``cluster_snapshot``, ``id_partitions_py``, ``fba_enumerate`` /
  ``vba_enumerate`` and ``EnumerationEngine``), so Spark scheduling time
  can be told apart from kernel time.
- ``plan_shape``: ``Exchange`` and pandas-UDF operators in a plan.
"""
from __future__ import annotations

import time

from pyspark.sql import functions as F

from repro.cluster import cluster_stream
from repro.cluster.dbscan import cluster_snapshot, dbscan
from repro.cluster.grid import allocate
from repro.cluster.rangejoin import grid_sync, rjc_pairs
from repro.core.icpe import detect
from repro.enumeration.engine import EnumerationEngine
from repro.enumeration.fba import fba_enumerate
from repro.enumeration.partition import id_partitions, id_partitions_py
from repro.enumeration.runner import collect_patterns, enumerate_patterns
from repro.enumeration.vba import vba_enumerate

from spans import Tracer

# Self-time of these spans makes up each layer's share of a traced path.
SHARE_SPANS = {
    "cluster": ("cluster.cluster_stream", "grid.allocate",
                "rangejoin.rjc_pairs", "rangejoin.grid_sync", "dbscan.dbscan"),
    "enumerate": ("engine.step", "partition.id_partitions_py",
                  "partition.id_partitions", "enumerate.enumerate_patterns",
                  "enumerate.collect_patterns"),
    "ordering": ("ordering.ingest", "ordering.release", "ordering.flush"),
}


def plan_shape(df) -> tuple[int, int]:
    """(Exchange nodes, pandas-UDF operators) of the physical plan."""
    return count_plan(df._jdf.queryExecution().executedPlan().toString())


def count_plan(plan: str) -> tuple[int, int]:
    """Count ``Exchange`` and ``...InPandas`` operators in a plan string.

    The plan of a cached input is printed under its ``InMemoryRelation``
    but does not run again, so that subtree is left out; a
    ``ReusedExchange`` does not shuffle again and is not counted.
    """
    exchanges = udfs = 0
    skip_below = None
    for line in plan.splitlines():
        node = line.lstrip(" :+-")
        depth = len(line) - len(node)
        if skip_below is not None and depth > skip_below:
            continue
        skip_below = depth if node.startswith("InMemoryRelation") else None
        name = node.split(" ", 1)[0]
        exchanges += name == "Exchange"
        udfs += name.endswith("InPandas")
    return exchanges, udfs


def staged(sdf, inputs, w, tracer: Tracer, gate) -> tuple[dict, dict]:
    """Run every stage once on cached input; returns (metrics, carry)
    where ``carry`` holds the pairs the kernel baseline reuses."""
    p = inputs.params
    t_end = inputs.n_snapshots
    n_points = len(inputs.snapshots)
    m: dict[str, float] = {}
    cached = []

    def keep(df):
        cached.append(df.cache())
        return df

    with tracer.span("detect.staged", root=True):
        with tracer.span("grid.allocate") as s:
            m["grid.gridobjects"] = allocate(sdf, lg=p.lg, eps=p.eps).count()
        m["grid.allocate_s"] = s.seconds
        with tracer.span("rangejoin.rjc_pairs") as s:
            pairs = keep(rjc_pairs(sdf, eps=p.eps, lg=p.lg))
            m["rangejoin.pairs"] = pairs.count()
        m["rangejoin.query_s"] = s.seconds
        with tracer.span("rangejoin.grid_sync") as s:
            sym = keep(grid_sync(pairs))
            sym.count()
        m["rangejoin.sync_s"] = s.seconds
        with tracer.span("dbscan.dbscan") as s:
            clusters = keep(dbscan(sdf, sym, min_pts=p.min_pts))
            m["dbscan.clustered_rows"] = clusters.count()
        m["dbscan.s"] = s.seconds
        with tracer.span("partition.id_partitions") as s:
            parts = keep(id_partitions(clusters, p.m))
            m["partition.rows"] = parts.count()
        m["partition.s"] = s.seconds
        with tracer.span("enumerate.enumerate_patterns") as s:
            pats = keep(enumerate_patterns(parts, p, method=w.enum_method,
                                           t_end=t_end))
            pats.count()
        m["enumerate.s"] = s.seconds
        with tracer.span("enumerate.collect_patterns") as s:
            patterns = collect_patterns(pats)
        m["enumerate.collect_s"] = s.seconds
    gate.check(patterns)
    m["enumerate.patterns"] = len(patterns)
    m["grid.replication"] = m["grid.gridobjects"] / n_points
    m["rangejoin.pairs_per_point"] = m["rangejoin.pairs"] / n_points
    m["dbscan.clusters"] = clusters.select("t", "cid").distinct().count()
    m["enumerate.output_bytes"] = pats.agg(
        F.sum(F.length("objs") + F.length("times"))).collect()[0][0] or 0
    carry = {"pairs": pairs.toPandas()}
    for df in cached:
        df.unpersist()
    return m, carry


def front_door(spark, sdf, inputs, w, tracer: Tracer) -> tuple[dict, dict]:
    """Returns (metrics, the patterns ``detect`` found)."""
    p = inputs.params
    m: dict[str, float] = {}
    with tracer.span("cluster.front_door", root=True) as s:
        cluster_stream(sdf, p).count()
    m["cluster.s"] = s.seconds
    sc = spark.sparkContext
    group = f"perfbench-detect-{time.monotonic_ns()}"
    sc.setJobGroup(group, "detect")
    with tracer.span("detect.detect", root=True) as s:
        result = detect(sdf, p, enum_method=w.enum_method)
    sc.setLocalProperty("spark.jobGroup.id", None)
    m["detect.s"] = s.seconds
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        for sid in (info.stageIds if info else []):
            stage = tracker.getStageInfo(sid)
            tasks += stage.numTasks if stage else 0
    m["detect.jobs"] = len(jobs)
    m["detect.tasks"] = tasks
    # Plan shapes of the uncached chain; id_partitions' self-join plans
    # the clustering subtree a second time, so its share counts that too.
    plain = cluster_stream(sdf, p)
    parts = id_partitions(plain, p.m)
    full = enumerate_patterns(parts, p, method=w.enum_method,
                              t_end=inputs.n_snapshots)
    m["cluster.exchanges"], m["cluster.python_udfs"] = plan_shape(plain)
    m["partition.exchanges"] = plan_shape(parts)[0] - m["cluster.exchanges"]
    m["detect.exchanges"], m["detect.python_udfs"] = plan_shape(full)
    return m, result.patterns


def kernels(inputs, w, pairs, gate) -> dict:
    """Single-threaded in-process run of the clustering and enumeration
    kernels over the same snapshots and neighbour pairs."""
    p = inputs.params
    t_end = inputs.n_snapshots
    oids = {int(t): g.tolist()
            for t, g in inputs.snapshots.groupby("t")["oid"]}
    sym: dict[int, list[tuple[int, int]]] = {t: [] for t in oids}
    for t, a, b in pairs[["t", "a", "b"]].itertuples(index=False):
        sym[int(t)] += [(int(a), int(b)), (int(b), int(a))]
    m: dict[str, float] = {}

    start = time.perf_counter()
    labels = {t: cluster_snapshot(oids[t], sym[t], p.min_pts) for t in oids}
    m["dbscan.kernel_s"] = time.perf_counter() - start

    start = time.perf_counter()
    parts = id_partitions_py(labels, p.m)
    m["partition.kernel_s"] = time.perf_counter() - start

    start = time.perf_counter()
    found = set()
    for anchor, by_t in parts.items():
        if w.enum_method == "fba":
            out = fba_enumerate(by_t, p)
        else:
            out = vba_enumerate(by_t, p, t_end=t_end)
        found.update(O | {anchor} for O in out)
    m["enumerate.kernel_s"] = time.perf_counter() - start
    gate.check(found)

    engine = EnumerationEngine(p, w.enum_method)
    for t in range(1, t_end + 1):
        engine.step(t, {a: d[t] for a, d in parts.items() if t in d})
    engine.finish()
    gate.check(engine.patterns)
    m["engine.step_ms"] = 1000.0 * sum(engine.step_seconds) / t_end
    m["engine.reports"] = len(engine.patterns)
    return m
