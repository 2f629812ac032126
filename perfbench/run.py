"""Flagship extraction benchmark.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop: a single client submits one batch job
(read_parquet -> url dedup -> gate -> extract -> normalise -> route ->
write_parquet, or ``checkpoint.run_partitioned`` for office_partitioned),
waits for it to finish, and repeats until ``--seconds`` have passed. All of
it happens in one Ray session sized to the CPUs this process may use.

``--trace 0`` prints the end-to-end metrics (medians over the jobs):
docs_per_s, setup_s and peak_rss_mb. ``--trace 1`` prints the per-layer
metrics: Ray Data operator stats of the same untraced jobs, plus a traced
single-process run that times each layer's public call (traced.py).
Either way the output of one job is checked against the single-process
reference ``pipeline.extract_table`` on the same input, and the last
stdout line is the result JSON; the line before it is a report with the
host stamp, input statistics, failed_frac and per-job figures. Run from
the repository root; ``--workload all`` runs every workload in turn.
BENCHMARK.json lists crawl_mix and office_partitioned; recrawl_reject
(the dedup/gate workload and parser control) is run by name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")   # all run output, ignored by git
WORKLOADS = ("crawl_mix", "recrawl_reject", "office_partitioned")
SETUPS = 3                     # Ray sessions started per run for setup_s
OBJECT_STORE_BYTES = 256 << 20

# --- processes ----------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def descendants() -> list[int]:
    kids = _children_map()
    out, stack = [], [os.getpid()]
    while stack:
        for c in kids.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def ray_workers() -> list[int]:
    """Ray worker processes of this session (their titles start 'ray::')."""
    out = []
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read(5) == b"ray::":
                    out.append(pid)
        except OSError:
            pass
    return out


def reset_peak_rss(pids: list[int]) -> None:
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")  # resets VmHWM to the current RSS
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] not in "ZX"


def wait_gone(pids: list[int], timeout: float = 30.0) -> None:
    """Wait for ``pids`` to end; kill whatever outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except OSError:
                pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)


# --- Ray session ----------------------------------------------------------


def ray_temp_dir() -> str | None:
    """Session files go inside the checkout unless the path would push
    Ray's unix sockets past the 107-byte limit."""
    d = os.path.join(WORK, "ray")
    return d if len(d) + 64 <= 107 else None


def start_ray(cpus: int) -> None:
    import ray
    from ray.data import DataContext

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=ray_temp_dir())
    DataContext.get_current().enable_progress_bars = False


def stop_ray() -> None:
    import ray

    procs = descendants()
    ray.shutdown()
    wait_gone(procs)


# --- one job --------------------------------------------------------------


def run_job(workload: str, src: str, out_dir: str):
    """One batch job over ``src`` into the absent ``out_dir``; returns the
    checkpoint manifest for office_partitioned, else None."""
    import ray.data as rd

    from webxtract import checkpoint, pipeline

    if workload == "office_partitioned":
        return checkpoint.run_partitioned(src, out_dir)
    ds = rd.read_parquet(src)
    pipeline.extract_pipeline(ds, source_path=src).write_parquet(out_dir)
    return None


def read_job_output(workload: str, out_dir: str):
    import pyarrow.parquet as pq

    from webxtract import checkpoint

    if workload == "office_partitioned":
        return checkpoint.read_output(out_dir)
    return pq.read_table(out_dir)


class WriteStats:
    """Collects the Ray Data stats of every Dataset written while active
    (run_partitioned builds its Dataset internally)."""

    def __enter__(self):
        import ray.data as rd

        self.written = []
        self._orig = orig = rd.Dataset.write_parquet
        written = self.written

        def write_parquet(ds, *a, **kw):
            r = orig(ds, *a, **kw)
            written.append(ds)
            return r

        rd.Dataset.write_parquet = write_parquet
        return self

    def __exit__(self, *exc):
        import ray.data as rd

        rd.Dataset.write_parquet = self._orig

    def busy(self) -> tuple[float, float, int]:
        """(read busy s, other operators busy s, tasks) summed over the
        written Datasets: Σ remote wall time per operator."""
        read = other = 0.0
        tasks = 0
        for ds in self.written:
            stack = [ds._write_ds._get_stats_summary()]
            while stack:
                s = stack.pop()
                stack.extend(s.parents)
                for op in s.operators_stats:
                    busy = op.wall_time.get("sum", 0.0) if op.wall_time else 0.0
                    if op.operator_name.startswith("Read"):
                        read += busy
                    else:
                        other += busy
                    tasks += (op.task_rows or {}).get("count", 0)
        return read, other, tasks


def _files_under(d: str) -> int:
    return sum(len(fs) for _, _, fs in os.walk(d))


def timed_jobs(workload: str, inp, seconds: float, cpus: int,
               with_stats: bool) -> tuple[list[dict], int, str | None]:
    """Closed loop of jobs for ``seconds``. Returns (one record per
    finished job, jobs that raised, output dir of the last finished job,
    which no later job overwrites)."""
    jobs, raised, last = [], 0, None
    deadline = time.perf_counter() + seconds
    while True:
        out_dir = os.path.join(WORK, "out", "job0")
        if out_dir == last:
            out_dir = os.path.join(WORK, "out", "job1")
        shutil.rmtree(out_dir, ignore_errors=True)
        reset_peak_rss([os.getpid()] + ray_workers())
        try:
            with (WriteStats() if with_stats
                  else contextlib.nullcontext()) as stats:
                t0 = time.perf_counter()
                manifest = run_job(workload, inp.src, out_dir)
                wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc(file=sys.stderr)
            raised += 1
            if time.perf_counter() >= deadline:
                break
            continue
        rec = {"wall_s": wall, "docs_per_s": inp.rows / wall,
               "peak_rss_mb": peak_rss_mb([os.getpid()] + ray_workers())}
        if stats:
            read, other, tasks = stats.busy()
            rec.update({"pipeline.read.busy_s": read,
                        "pipeline.map.busy_s": other,
                        "pipeline.tasks": tasks,
                        "pipeline.idle_frac": 1 - (read + other) / (wall * cpus)})
            if manifest is not None:
                rec.update({"checkpoint.partitions": len(manifest),
                            "checkpoint.s_per_partition": wall / len(manifest),
                            "checkpoint.files_written": _files_under(out_dir)})
        jobs.append(rec)
        last = out_dir
        if time.perf_counter() >= deadline:
            break
    return jobs, raised, last


def setup(workload: str, inp, cpus: int) -> float:
    """ray.init plus one untimed warm job over a small slice of the input:
    worker spawn, imports and the extractor build of the first worker.
    Workers that Ray adds later warm up inside the first timed jobs,
    which the median over the jobs absorbs."""
    out_dir = os.path.join(WORK, "out", "warm")
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    start_ray(cpus)
    run_job(workload, inp.warm, out_dir)
    return time.perf_counter() - t0


# --- reporting ----------------------------------------------------------


def host_stamp(args) -> dict:
    import pyarrow
    import ray

    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__}


def _median(jobs: list[dict], key: str) -> float:
    vals = [j[key] for j in jobs if key in j]
    return statistics.median(vals) if vals else 0.0


def run_one(args) -> int:
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)
    from perfbench import inputs, metrics as M, traced

    cpus = len(os.sched_getaffinity(0))
    inp = inputs.prepare(args.workload, args.seed)
    report = {"host": host_stamp(args), "input": inp.stats}
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)

    # Each setup starts a fresh Ray session; the timed jobs run in the
    # last one. (Splitting them over all sessions was tried: the first
    # jobs of a session run slower while Ray's worker pool settles.)
    setups = []
    try:
        for k in range(1 if args.trace else SETUPS):
            if k:
                stop_ray()
            setups.append(setup(args.workload, inp, cpus))
        jobs, raised, last = timed_jobs(args.workload, inp, args.seconds,
                                        cpus, bool(args.trace))
    finally:
        stop_ray()
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    bad = (inputs.bad_rows(inp.ref, read_job_output(args.workload, last))
           if last else 0)
    expected = inp.expected_rows
    attempted = expected * ((1 if last else 0) + raised)
    failed = bad + expected * raised
    report["jobs"] = jobs
    report["jobs_raised"] = raised
    report["setup_s_each"] = setups

    if args.trace:
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        layer, treport, out = traced.layer_metrics(
            inputs.read_input(inp.src), inp.src,
            os.path.join(trace_dir, f"{args.workload}-s{args.seed}.jsonl"))
        traced_bad = inputs.bad_rows(inp.ref, out)
        attempted += expected
        failed += traced_bad
        treport["traced_output_bad_rows"] = traced_bad
        report["trace"] = treport
        for name in ("pipeline.read.busy_s", "pipeline.map.busy_s",
                     "pipeline.tasks", "pipeline.idle_frac",
                     "checkpoint.partitions", "checkpoint.s_per_partition",
                     "checkpoint.files_written"):
            layer[name] = _median(jobs, name)
        metrics = {m[0]: {"value": layer[m[0]], "unit": m[1]}
                   for m in M.PER_LAYER}
    else:
        values = {"docs_per_s": _median(jobs, "docs_per_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": _median(jobs, "peak_rss_mb")}
        metrics = {m[0]: {"value": values[m[0]], "unit": m[1]}
                   for m in M.END_TO_END}
    report[M.FAILED_FRAC[0]] = {"value": failed / attempted,
                                "unit": M.FAILED_FRAC[1]}

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump({"report": report, "metrics": metrics}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and bool(jobs),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of their metrics."""
    rc = 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode or len(lines) < 2:
            print(f"{w}: failed (exit {p.returncode})")
            rc = 1
            continue
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        rows = dict(result["metrics"])
        rows["failed_frac"] = report["failed_frac"]
        for n, m in rows.items():
            print(f"{w:20s} {n:30s} {m['value']:14.6g} {m['unit']}")
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "webxtract")):
        print(f"no webxtract package under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
