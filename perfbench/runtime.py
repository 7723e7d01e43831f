"""Spark session, process bookkeeping and the machine/config block.

Spark master and shuffle partitions are pinned to the usable CPU count.
``src/`` goes on ``PYTHONPATH`` in the environment before the JVM starts,
because Spark's Python workers inherit that environment and the
``repro`` package is not installed. All scratch files (Spark local dir,
JVM and Python temp dirs, checkpoints) live under the run's work
directory inside the checkout.
"""
from __future__ import annotations

import hashlib
import os
import platform
import shlex
import subprocess
import sys
import time

DRIVER_MEMORY = "2g"
# A fixed-size heap and young generation make the JVM's resident set
# depend on the work done, not on when the collector resized the heap.
# -UsePerfData keeps the JVM from writing /tmp/hsperfdata_<user>.
JVM_OPTIONS = f"-Xms{DRIVER_MEMORY} -Xmn512m -XX:-UsePerfData"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def configure(root: str, work_dir: str) -> None:
    """Environment for the driver, the JVM and the Python workers."""
    src = os.path.join(root, "src")
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    sys.path.insert(0, src)
    tmp = os.path.join(work_dir, "tmp")
    local = os.path.join(work_dir, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{nproc()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(local)}",
        "--driver-java-options",
        shlex.quote(f"-Djava.io.tmpdir={tmp} {JVM_OPTIONS}"),
        "pyspark-shell",
    ])


def start_spark():
    """Start the session; returns (session, seconds it took)."""
    from pyspark.sql import SparkSession

    start = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(nproc()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - start


def _hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(d))
    return out


def _descendants(pid: int) -> list[int]:
    out, todo = [], [pid]
    while todo:
        kids = _children(todo.pop())
        out += kids
        todo += kids
    return out


def peak_rss_mb(spark) -> float:
    """High-water RSS of this driver process plus the Spark JVM."""
    jvm = spark.sparkContext._gateway.proc.pid
    return (_hwm_kb(os.getpid()) + _hwm_kb(jvm)) / 1024.0


def stop_spark(spark, timeout: float = 30.0) -> None:
    """Stop the session and wait for the JVM and its Python workers."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = gateway.proc
    procs = _descendants(proc.pid)
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + timeout
    for pid in procs:
        while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
            time.sleep(0.05)
        if os.path.exists(f"/proc/{pid}"):
            os.kill(pid, 9)


def src_digest(root: str) -> str:
    """SHA-1 over the program's source files (the checkout has no .git)."""
    h = hashlib.sha1()
    src = os.path.join(root, "src")
    for d, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, src).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not itself a git repo."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2:
        return None
    top, sha = lines
    return sha if os.path.realpath(top) == os.path.realpath(root) else None


def machine_block(spark, root: str, workload: str, seed: int) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": nproc(),
        "cpu": platform.processor() or platform.machine(),
        "spark_master": sc.master,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": DRIVER_MEMORY,
        "jvm_options": JVM_OPTIONS,
        "pyspark": pyspark.__version__,
        "java": sc._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "git_sha": git_sha(root),
        "src_sha1": src_digest(root),
        "workload": workload,
        "seed": seed,
    }
