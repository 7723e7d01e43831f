"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload taxi-stream --seed 1 --seconds 10 --trace 0

Run from the repository root. Metric names and units come from
``BENCHMARK.json``. With ``--trace 0`` the last line of standard output
carries every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric of a separate, traced run, and the spans are written
to ``.perfbench_out/spans-<workload>-seed<n>.json``. Every pattern set
the program returns is checked against the exhaustive reference miner;
a mismatch makes the run exit with status 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time

import runtime
from spans import Tracer, median, percentile, self_time_by_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_DETECT = 2
SETUP_REPEATS = 3
OVERHEAD_PAIRS = 3

STREAM_ONLY = (
    "source.", "ordering.", "query.", "pipeline.",
)


class Run:
    """Counts operations and failures; collects the gate verdicts."""

    def __init__(self, w, inputs, gate) -> None:
        self.w, self.inputs, self.gate = w, inputs, gate
        self.attempted = 0
        self.failed = 0
        self.delays: set[float] = set()
        self.errors: list[str] = []
        self.session_s = 0.0
        self.last_patterns = None

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def correct(self) -> bool:
        return (self.gate.mismatches == 0 and len(self.delays) <= 1
                and not self.errors)


def log(msg: str) -> None:
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr,
          flush=True)


# ---------------------------------------------------------------- set-up

def setup_stream(spark, run, work_dir: str) -> tuple[float, str, str]:
    """Write the parquet source (median of 3 writes), then run the real
    query over its prefix once so that the measured passes start warm.
    Returns (seconds, source dir, prefix dir)."""
    import streaming

    preps = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        src, prefix = streaming.write_source(
            run.w, run.inputs, os.path.join(work_dir, "source"))
        preps.append(time.perf_counter() - start)
    start = time.perf_counter()
    streaming.closed_loop(spark, run.w, run.inputs, prefix,
                          os.path.join(work_dir, "ckpt"))
    warm = time.perf_counter() - start
    log(f"stream set-up: source files {median(preps):.3f} s, warm-up {warm:.2f} s")
    return median(preps) + warm, src, prefix


def setup_batch(spark, run) -> tuple[float, object]:
    """Cache the input (median of 3), then run ``detect`` on it once."""
    from repro.core.icpe import detect

    preps, sdf = [], None
    for _ in range(SETUP_REPEATS):
        if sdf is not None:
            sdf.unpersist()
        start = time.perf_counter()
        sdf = cached_snapshots(spark, run.inputs)
        preps.append(time.perf_counter() - start)
    start = time.perf_counter()
    detect(sdf, run.inputs.params, enum_method=run.w.enum_method)
    warm = time.perf_counter() - start
    log(f"batch set-up: input cache {median(preps):.3f} s, warm-up {warm:.2f} s")
    return median(preps) + warm, sdf


def cached_snapshots(spark, inputs):
    from repro import trajgen

    sdf = trajgen.to_spark(spark, inputs.snapshots).cache()
    sdf.count()
    return sdf


# ------------------------------------------------------- measured passes

def closed_pass(spark, run, src, work_dir, tracer=None) -> float:
    import streaming

    wall, det = streaming.closed_loop(
        spark, run.w, run.inputs, src, os.path.join(work_dir, "ckpt"), tracer)
    run.op(run.gate.check(det.patterns))
    run.delays.add(det.metrics.avg_delay_snapshots)
    return wall


def open_pass(spark, run, tracer=None):
    import streaming

    res = streaming.open_loop(spark, run.w, run.inputs, tracer)
    run.gate.check(res.detector.patterns)
    run.delays.add(res.detector.metrics.avg_delay_snapshots)
    for lat in res.latencies_s:
        run.op(not math.isnan(lat) and lat <= run.w.latency_limit_s)
    return res


def batch_delay(patterns, params, t_end: int) -> float:
    """Mean detection delay when every pattern is reported at stream end."""
    from repro.core import bitstring as bs

    delays = []
    for seq in patterns.values():
        lo, width = seq[0], seq[-1] - seq[0] + 1
        tau = bs.first_valid_prefix(bs.from_times(seq, lo, width), width,
                                    params.k, params.l, params.g)
        delays.append(t_end - (lo + (tau if tau is not None else width - 1)))
    return sum(delays) / len(delays) if delays else 0.0


def detect_call(run, sdf) -> float:
    from repro.core.icpe import detect

    start = time.perf_counter()
    try:
        result = detect(sdf, run.inputs.params, enum_method=run.w.enum_method)
    except Exception as e:  # a raising call is a failed operation
        run.errors.append(f"detect raised {type(e).__name__}: {e}")
        run.op(False)
        return float("nan")
    wall = time.perf_counter() - start
    ok = run.gate.check(result.patterns) and wall <= run.w.latency_limit_s
    run.op(ok)
    if result.patterns != run.last_patterns:  # same witnesses, same delay
        run.last_patterns = result.patterns
        run.delays.add(batch_delay(result.patterns, run.inputs.params,
                                   run.inputs.n_snapshots))
    return wall


# ----------------------------------------------------------- end to end

def end_to_end(spark, run, seconds: float, work_dir: str) -> tuple[dict, dict]:
    """Untraced run: returns (metrics, sample counts)."""
    n = run.inputs.n_snapshots
    if run.w.kind == "stream":
        setup_s, src, _ = setup_stream(spark, run, work_dir)
        walls, lats = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(closed_pass(spark, run, src, work_dir))
            log(f"closed pass {walls[-1]:.2f} s")
            lats += open_pass(spark, run).latencies_s
            log(f"open pass, {len(lats)} latencies")
        lats = [x for x in lats if not math.isnan(x)] or [float("nan")]
        capacity = n / median(walls)
        samples = {"snapshots_per_s": len(walls), "latency": len(lats)}
    else:
        setup_s, sdf = setup_batch(spark, run)
        walls = []
        start = time.perf_counter()
        while (len(walls) < MIN_DETECT
               or time.perf_counter() - start < seconds):
            walls.append(detect_call(run, sdf))
            log(f"detect {walls[-1]:.2f} s")
        lats = [x for x in walls if not math.isnan(x)] or [float("nan")]
        capacity = n / median(lats)
        samples = {"snapshots_per_s": len(walls), "latency": len(lats)}
    metrics = {
        "setup_s": run.session_s + setup_s,
        "snapshots_per_s": capacity,
        "latency_p50_ms": 1000.0 * percentile(lats, 50),
        "latency_p90_ms": 1000.0 * percentile(lats, 90),
        "delay_snap": next(iter(run.delays), float("nan")),
        "peak_rss_mb": runtime.peak_rss_mb(spark),
    }
    return metrics, samples


# ---------------------------------------------------------------- traced

def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def stream_layers(spark, run, work_dir: str, tracer: Tracer) -> dict:
    import streaming

    _, _, prefix = setup_stream(spark, run, work_dir)
    ckpt = os.path.join(work_dir, "ckpt")
    listener = streaming.ProgressListener()
    spark.streams.addListener(listener)
    overheads = []
    try:
        # Alternating untraced/traced passes of the real query over the
        # prefix, the listener attached to both: median of the pairs.
        for k in range(OVERHEAD_PAIRS):
            walls = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                walls[traced], _ = streaming.closed_loop(
                    spark, run.w, run.inputs, prefix, ckpt,
                    Tracer() if traced else None)
            overheads.append(100.0 * (walls[True] - walls[False]) / walls[False])
        # one trigger per file
        listener.wait_for(2 * OVERHEAD_PAIRS * streaming.PREFIX_FILES)
    finally:
        spark.streams.removeListener(listener)
    log(f"tracing overhead per pair {[round(x, 1) for x in overheads]} %")
    res = open_pass(spark, run, tracer)
    det = res.detector
    clustering = {s.parent for s in tracer.named("cluster.cluster_stream")}
    batch_ms = [1000.0 * s.seconds for s in tracer.named("pipeline.process_batch")
                if s.sid in clustering] or [0.0]
    cms = det.metrics.cluster_seconds
    trig = [d.get("triggerExecution", 0) for d in listener.durations]
    addb = [d.get("addBatch", 0) for d in listener.durations]
    return {
        "trace.overhead_pct": median(overheads),
        "source.backlog_max": res.backlog_max,
        "source.lag_ms": 1000.0 * _mean(res.lag_s),
        "source.batches": res.batches,
        "source.records_per_batch": _mean(res.records_per_batch),
        "ordering.ingest_ms": _mean(1000.0 * s.seconds
                                    for s in tracer.named("ordering.ingest")),
        "ordering.release_ms": _mean(1000.0 * s.seconds
                                     for s in tracer.named("ordering.release")),
        "ordering.held_max": max(res.held, default=0),
        "ordering.wait_snap": _mean(res.wait_snap),
        "query.trigger_ms": _mean(trig),
        "query.addbatch_ms": _mean(addb),
        "query.overhead_ms": _mean(t - a for t, a in zip(trig, addb)),
        "pipeline.batch_ms_p50": percentile(batch_ms, 50),
        "pipeline.batch_ms_p90": percentile(batch_ms, 90),
        "pipeline.snapshots_per_batch": run.inputs.n_snapshots / max(len(cms), 1),
        "pipeline.cluster_ms": 1000.0 * _mean(cms),
        "pipeline.enum_ms": 1000.0 * _mean(det.metrics.snapshot_seconds),
    }


def layer_metrics(spark, run, work_dir: str) -> tuple[dict, Tracer]:
    """Traced run: every per-layer metric plus the tracing overhead."""
    import layers

    tracer = Tracer()
    if run.w.kind == "stream":
        m = stream_layers(spark, run, work_dir, tracer)
        path = list(tracer.spans)  # the traced open-loop pass
        sdf = cached_snapshots(spark, run.inputs)
    else:
        _, sdf = setup_batch(spark, run)
        m = {}
        path = None
    door, patterns = layers.front_door(spark, sdf, run.inputs, run.w, tracer)
    m.update(door)
    ok = run.gate.check(patterns)
    if run.w.kind == "batch":  # the traced run's one detect call
        run.op(ok and door["detect.s"] <= run.w.latency_limit_s)
        run.delays.add(batch_delay(patterns, run.inputs.params,
                                   run.inputs.n_snapshots))
    n_before = len(tracer.spans)
    staged, carry = layers.staged(sdf, run.inputs, run.w, tracer, run.gate)
    m.update(staged)
    if path is None:  # the batch path is the staged detect
        path = tracer.spans[n_before:]
    m.update(layers.kernels(run.inputs, run.w, carry["pairs"], run.gate))
    own = self_time_by_name(path)
    total = sum(own.values())
    for layer, names in layers.SHARE_SPANS.items():
        m[f"share.{layer}"] = sum(own.get(n, 0.0) for n in names) / total
    m["trace.spans"] = len(tracer.spans)
    return m, tracer


# ------------------------------------------------------------------ main

def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: program source src/repro not found", file=sys.stderr)
        return 2

    work_dir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    runtime.configure(ROOT, work_dir)
    from workloads import WORKLOADS, Gate, make_inputs

    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed)
    run = Run(w, inputs, Gate(inputs))
    log(f"inputs and reference gate ready ({len(run.gate.expected)} patterns)")
    spark, run.session_s = runtime.start_spark()
    log(f"spark session {run.session_s:.2f} s")
    try:
        machine = runtime.machine_block(spark, ROOT, w.name, args.seed)
        if args.trace:
            metrics, tracer = layer_metrics(spark, run, work_dir)
            if w.kind == "batch":
                # Not exercised; nor is the tracing overhead measured: the
                # batch path carries one span per stage, too few to show.
                metrics.update({n["name"]: 0 for n in spec["per_layer"]
                                if n["name"].startswith(STREAM_ONLY)
                                or n["name"] == "trace.overhead_pct"})
            wanted = spec["per_layer"]
            samples = {}
        else:
            metrics, samples = end_to_end(spark, run, args.seconds, work_dir)
            wanted = spec["end_to_end"]
            tracer = None
    finally:
        runtime.stop_spark(spark)
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.json"))

    print("machine " + json.dumps(machine))
    print(f"gate: {run.gate.checks} pattern sets checked, "
          f"{run.gate.mismatches} mismatched; expected "
          f"{len(run.gate.expected)} patterns; delay values {sorted(run.delays)}")
    print(f"failed_frac {run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.4f} ratio")
    for e in run.errors:
        print("error: " + e)
    if samples:
        print("samples " + json.dumps(samples))
    out = {}
    for spec_m in wanted:
        name = spec_m["name"]
        value = float(metrics[name])
        out[name] = {"value": value, "unit": spec_m["unit"]}
        print(f"{name} {value:.6g} {spec_m['unit']}")
    correct = run.correct and all(math.isfinite(v["value"]) for v in out.values())
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
