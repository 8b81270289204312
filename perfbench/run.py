"""The detperm benchmark: seeded workloads against the public API, with
every output checked against an exact law.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports detperm from ``src/`` there
and writes only under ``.perfbench_out/``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it print every metric with its unit and the count behind
it, plus the environment it was measured in.  perfbench/README.md lists
the workloads and metrics and why they were chosen.

``--trace 0`` runs the workload in several fresh processes, one after the
other, and reports the end-to-end metrics: medians over the processes for
set-up and check, and the pooled per-operation latencies of the steady
phase, which together last ``--seconds``.  Import-only processes started
between them make up IMPORT_SAMPLES timings of ``import detperm``.
``--trace 1`` runs a fixed number of operations twice on one stream,
untraced and then with every public function of the program wrapped, and
reports the per-layer metrics of the traced process; the two must emit
identical samples.

Every process runs with its BLAS thread count fixed at BLAS_THREADS.
The metric names, their units and their order come from BENCHMARK.json.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SUITE = os.path.join("scripts", "example_suite.json")
BENCHMARK = "BENCHMARK.json"
REQUIRED = (os.path.join("src", "detperm", "__init__.py"), SUITE, BENCHMARK)
WORKLOADS = ("radial_cloud", "dense_kernel", "ust_grid", "verify_suite")
PREPARED = ("dense_kernel", "ust_grid")
# Worker processes per measured run, and operations per process in a
# traced run.  radial_cloud has fewer processes because each set-up is a
# dense 1576 x 1576 eigendecomposition of several seconds.
PROCESSES = {"radial_cloud": 3, "dense_kernel": 5, "ust_grid": 5, "verify_suite": 5}
TRACE_OPS = {"radial_cloud": 100, "dense_kernel": 20, "ust_grid": 20, "verify_suite": 2000}
SMOKE_OPS = 30
# Fresh interpreters timing `import detperm` per measured run: the
# workload processes and import-only processes spread between them.
IMPORT_SAMPLES = 9
# Latency percentiles need at least this many operations per run, so that
# p90 has ten operations beyond it.
MIN_OPS = 100
# One thread measures the program rather than the scheduler on a small
# shared machine; it is never more than the cores available.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run that outlasts its --seconds by this much per child process has hung.
PROCESS_ALLOWANCE_S = 30.0
IMPORT_ALLOWANCE_S = 5.0


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update({name: threads for name in THREAD_VARIABLES})
    return env


def run_child(argv, deadline):
    """Run one child process to completion; returns its peak RSS in MB."""
    proc = subprocess.Popen(argv, env=child_env(), stdout=sys.stderr)
    pid = 0
    try:
        while not pid:
            if time.monotonic() > deadline:
                raise BenchmarkError(f"{argv[1]} did not finish before the deadline")
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        # reaped here, with its resource usage; Popen must not wait again
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise BenchmarkError(f"{argv[1]} exited with code {proc.returncode}")
    return usage.ru_maxrss / 1024


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_commit(root):
    """HEAD of the checkout if it is a git repository, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root):
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "detperm", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Run:
    def __init__(self, root, args):
        self.root = root
        self.args = args
        if args.trace:
            self.processes, self.imports = 2, 0
        else:
            self.processes = 1 if args.smoke else PROCESSES[args.workload]
            self.imports = 0 if args.smoke else IMPORT_SAMPLES - self.processes
        self.deadline = (time.monotonic() + args.seconds
                         + PROCESS_ALLOWANCE_S * (self.processes + 1)  # + prepare.py
                         + IMPORT_ALLOWANCE_S * self.imports)
        tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
        self.dir = os.path.join(root, OUT_DIR, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.inputs = os.path.join(self.dir, "inputs")

    def prepare(self):
        if self.args.workload in PREPARED:
            run_child([sys.executable, os.path.join(HERE, "prepare.py"), self.args.workload,
                       str(self.args.seed), self.inputs, "1" if self.args.smoke else "0"],
                      self.deadline)
        suite = os.path.join(self.root, SUITE)
        if self.args.smoke and self.args.workload == "verify_suite":
            # same checks, 25 times fewer samples, so the smoke run takes seconds
            with open(suite) as fh:
                checks = json.load(fh)
            for check in checks["checks"]:
                if "samples" in check:
                    check["samples"] = max(200, check["samples"] // 25)
            suite = os.path.join(self.dir, "suite.json")
            with open(suite, "w") as fh:
                json.dump(checks, fh)
        return suite

    def worker(self, name, cfg):
        cfg = dict(cfg, result=os.path.join(self.dir, f"{name}.json"),
                   spans=os.path.join(self.dir, f"{name}.spans.jsonl"),
                   launched=time.clock_gettime(time.CLOCK_MONOTONIC))
        rss = run_child([sys.executable, os.path.join(HERE, "worker.py"), self.root,
                         json.dumps(cfg)], self.deadline)
        with open(cfg["result"]) as fh:
            result = json.load(fh)
        result["peak_rss_mb"] = rss
        return result

    def measure(self, layers):
        """Runs the workload processes; returns their results and the
        import times of the import-only processes."""
        args, processes = self.args, self.processes
        base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                "inputs": self.inputs, "suite": self.prepare(), "prior": [],
                "processes": processes, "layers": layers}
        if args.trace:
            ops = SMOKE_OPS if args.smoke else TRACE_OPS[args.workload]
            cfg = dict(base, stream=0, streams=1, ops=ops, steady_s=0, min_ops=0)
            return [self.worker(f"worker{i}", dict(cfg, traced=bool(i))) for i in range(2)], []
        results, imports = [], []
        for i in range(processes):
            # import-only processes spread evenly between the workload processes
            for _ in range((i + 1) * self.imports // processes - i * self.imports // processes):
                imports.append(self.worker(f"import{len(imports)}", {"import_only": True})["import_s"])
            cfg = dict(base, stream=i, streams=processes, traced=False,
                       ops=SMOKE_OPS if args.smoke else None,
                       steady_s=args.seconds / processes,
                       min_ops=math.ceil(MIN_OPS / processes))
            results.append(self.worker(f"worker{i}", cfg))
            base["prior"] = base["prior"] + [os.path.join(self.dir, f"worker{i}.json")]
        return results, imports


def end_to_end(workload, results, imports):
    latencies = sorted(1e3 * s for r in results for s in r["latencies_s"])
    if not latencies:
        raise BenchmarkError("no operation succeeded")
    n = len(results)
    imports = [r["import_s"] for r in results] + imports
    if workload == "verify_suite":
        calls = [s for r in results for s in r["suite"]["seconds"]]
        rate = sum(r["suite"]["sample_size"] for r in results) / sum(calls)
        rate_basis = f"reports' sample_size over {len(calls)} verify calls"
    else:
        rate = len(latencies) / (sum(latencies) / 1e3)
        rate_basis = f"{len(latencies)} operations"
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "samples_per_s": rate,
        "sample_ms_p90": percentile(latencies, 0.9),
        "check_s": statistics.median(r["check_s"] for r in results),
        "import_s": statistics.median(imports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    basis = {
        "setup_s": f"median of {n} processes, from launch to the end of the first draw",
        "samples_per_s": rate_basis,
        "sample_ms_p90": f"{len(latencies)} operations, {len(latencies) - math.ceil(0.9 * len(latencies))} beyond p90",
        "check_s": (f"median of {n} first verify calls" if workload == "verify_suite"
                    else f"median of {n} processes, each the mean of its checks"),
        "import_s": f"median of {len(imports)} fresh interpreters ({n} of them workload processes)",
        "peak_rss_mb": f"max of {n} processes",
    }
    # The median single-operation latency is printed but not reported as a
    # metric: on a shared 2-core host the CPU alternated between fast spells
    # and spells about 1.4x slower, a few seconds each, and the median of
    # pooled latencies jumped between the two when neither dominated a run.
    median = (f"  sample_ms_p50  {percentile(latencies, 0.5):<12.6g} ms    "
              f"{len(latencies)} operations (printed only)")
    return metrics, basis, median


def per_layer(results):
    untraced, traced = results
    metrics = dict(traced["layers"], **{OVERHEAD: traced["work_s"] - untraced["work_s"]})
    return metrics, untraced["digest"] == traced["digest"]


OVERHEAD = "trace.overhead_s"  # the one per-layer metric not taken from the tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one detperm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and a fixed 30 operations, for the self-test")
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that run_child's
    # cleanup stops the running child before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(root, path))]
    if missing:
        print(f"error: run from a detperm checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be non-negative and --seconds positive", file=sys.stderr)
        return 2

    with open(os.path.join(root, BENCHMARK)) as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    run = Run(root, args)
    try:
        results, imports = run.measure([name for name in declared if name != OVERHEAD])
        if args.trace:
            values, identical = per_layer(results)
        else:
            values, basis, median = end_to_end(args.workload, results, imports)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = dict(results[0]["env"], commit=git_commit(root), src_sha256=source_digest(root),
               cpu=cpu_model(), nproc=len(os.sched_getaffinity(0)), platform=platform.platform())
    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" processes={len(results)}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        correct = correct and identical
        print(f"traced and untraced samples identical: {identical}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:<14.6g} {m['unit']}")
    else:
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:<12.6g} {m['unit']:5s} {basis[name]}")
        print(median)
    line = f"  error_rate     {failed / attempted:<12.6g} ratio failed {failed} of {attempted} operations"
    print(line)
    if "suite" in results[0]:
        lines, bad, rejected = (sum(r["suite"][key] for r in results)
                                for key in ("lines", "not_strict_json", "rejected"))
        print(f"  verify report lines {lines}: not strict JSON {bad} (cli.not_strict_json_lines),"
              f" passed false {rejected}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(run.dir, "result.json"), "w") as fh:
        json.dump(dict(summary, env=env, workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace), fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
