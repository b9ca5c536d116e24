"""vpvlab benchmark.

Usage, from the root of a vpvlab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog, oracle, deep (see perfbench/README.md). Each pass runs
in a fresh interpreter (perfbench/worker.py), as a user's `vpvlab verify`
starts cold. The seed shuffles item order inside each pass.

With `--trace 0` the run measures for `--seconds`: set-up samples, then one
full pass, then further passes until the time is up; the last one stops
after the item that crosses the deadline, so it may be partial. Every item
thus has one or more samples. The run reports the end-to-end metrics:
`setup_s`, `wall_s` (the sum over items of each item's median time),
`item_p50_s` (the median over items of the same medians) and `peak_rss_mb`.

With `--trace 1` every pass is run twice, untraced and traced, and the run
reports the per-layer metrics of the traced passes plus
`trace.overhead_ratio`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A run in which any item
fails its check is invalid: it reports no metrics and exits with code 1.
Everything else the run measured (seed, host record, item order and times,
sample counts, the item tail) goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 4      # set-up-only interpreters before and after the passes
RUN_LIMIT_S = 170      # every run must end within 180 s
TAIL_BEYOND = 10       # item_tail_s leaves this many items above it


class BenchError(Exception):
    pass


def calibrate():
    """Seconds for a fixed pure-Python loop; recorded, never used to scale."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_record():
    try:
        with open("/proc/loadavg", "r", encoding="ascii") as handle:
            load = [float(x) for x in handle.read().split()[:3]]
    except OSError:
        load = None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": load, "calibration_s": calibrate()}


def unit(name):
    if name.endswith("pairs_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    if name.endswith("_mb"):
        return "MB"
    return "count"


class Runner:
    """Spawns worker interpreters; each is killed if the run overruns
    RUN_LIMIT_S."""

    def __init__(self, root, scratch, workload, seed):
        self.root, self.scratch = root, scratch
        self.workload, self.seed = workload, seed
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.started = time.monotonic()  # reset when measuring begins
        self.calls = 0

    def spawn(self, setup_only=False, pass_index=0, trace=False, spans=None,
              deadline=None):
        self.calls += 1
        spec = {"root": self.root, "workload": self.workload, "seed": self.seed,
                "pass": pass_index, "trace": trace, "setup_only": setup_only,
                "scratch": self.scratch, "spans": spans, "deadline": deadline,
                "out": os.path.join(self.scratch, f"result-{self.calls}.json")}
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)],
                                cwd=self.root, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.kill_at - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"a pass of {self.workload} overran the "
                             f"{RUN_LIMIT_S} s run limit")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        with open(spec["out"], "r", encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup_s"] = result["ready"] - start
        return result

    def setup(self):
        """Seconds from spawning an interpreter until vpvlab is imported and
        the catalog built."""
        return self.spawn(setup_only=True)["setup_s"]


def tail(times):
    """The highest percentile of the item times that has TAIL_BEYOND items
    above it, and that percentile; (None, None) with too few items."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None, None
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def measure(runner, seconds):
    """One full pass, then passes bounded by the run's deadline."""
    deadline = runner.started + seconds
    passes = [runner.spawn(pass_index=0)]
    while time.monotonic() < deadline:
        passes.append(runner.spawn(pass_index=len(passes), deadline=deadline))
    return passes


def measure_traced(runner, seconds):
    """Untraced/traced pairs of full passes until the next pair would end
    after `seconds`; at least one pair."""
    untraced, traced = [], []
    while True:
        began = time.monotonic()
        index = len(untraced)
        untraced.append(runner.spawn(pass_index=index))
        spans = os.path.join(
            runner.root, OUT_DIR,
            f"spans-{runner.workload}-seed{runner.seed}-pass{index}.jsonl")
        traced.append(runner.spawn(pass_index=index, trace=True, spans=spans))
        took = time.monotonic() - began
        if time.monotonic() - runner.started + took > seconds:
            return untraced, traced


def summarize(args, setups, untraced, traced):
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": attempted, "failed": len(failures),
              "failed_share": len(failures) / attempted,
              "failures": failures, "setup_samples": setups,
              "passes": untraced, "traced_passes": traced}
    if args.trace:
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["wall"] for p in traced)
            / statistics.median(p["wall"] for p in untraced))
    else:
        per_item = {}
        for p in untraced:
            for key, took in zip(p["order"], p["samples"]):
                per_item.setdefault(key, []).append(took)
        medians = {key: statistics.median(v) for key, v in per_item.items()}
        record["item_medians"] = medians
        record["item_sample_counts"] = {k: len(v) for k, v in per_item.items()}
        record["item_tail_s"], record["item_tail_percentile"] = tail(medians.values())
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(medians.values()),
            "item_p50_s": statistics.median(medians.values()),
            # the same pass order can peak 1-1.5 MB higher in one interpreter
            # than in another; the smallest full pass is vpvlab's own peak
            "peak_rss_mb": min(
                p["peak_rss_kb"] for p in untraced if p["complete"]) / 1024,
        }
    record["metrics"] = metrics
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for need in (os.path.join("src", "vpvlab", "__init__.py"),
                 os.path.join("tests", "golden")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a vpvlab "
                  "checkout", file=sys.stderr)
            return 2
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    try:
        host = {"start": host_record()}
        runner = Runner(root, scratch, args.workload, args.seed)
        runner.spawn(setup_only=True)  # warm-up: bytecode caches
        runner.started = time.monotonic()
        if args.trace:
            untraced, traced = measure_traced(runner, args.seconds)
            setups = [p["setup_s"] for p in untraced]
        else:
            setups = [runner.setup() for _ in range(SETUP_SAMPLES)]
            untraced, traced = measure(runner, args.seconds), []
            setups += [p["setup_s"] for p in untraced]
            setups += [runner.setup() for _ in range(SETUP_SAMPLES)]
        host["end"] = host_record()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = summarize(args, setups, untraced, traced)
    record["host"] = host
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(root, path), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    correct = record["failed"] == 0
    counts = record.get("item_sample_counts", {}).values()
    print(f"# {args.workload} seed={args.seed} passes={len(untraced)} "
          f"items={len(counts)} samples_per_item={min(counts, default=0)}-"
          f"{max(counts, default=0)} setup_samples={len(setups)} "
          f"failed_share={record['failed_share']:.4f} "
          f"calibration_s={host['start']['calibration_s']:.4f}/"
          f"{host['end']['calibration_s']:.4f} record={path}")
    for failure in record["failures"][:20]:
        print(f"# FAILED {failure[0]}: {failure[1]}")
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in record["metrics"].items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
