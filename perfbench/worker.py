"""One workload process: import detperm, set up, draw, check, report.

    python3 perfbench/worker.py <checkout root> '<json config>'

run.py starts it with the BLAS thread count fixed in its environment and
reads the JSON it writes to ``config["result"]``.  Until ``import
detperm`` has been timed, this process loads nothing beyond what the
interpreter loads at start-up, so the import is measured cold; after it,
the benchmark's modules import only what the program imports too.  A
program that defers one of its imports therefore pays for it in the
phase that first uses it, and the benchmark sees it there.

Phases and what they time:

* set-up: from the moment run.py launched this process (interpreter
  start and ``import detperm`` included) to the end of the first draw;
* steady phase: each further operation on its own;
* check: computing the exact count laws, as the mean of LAW_REPEATS
  computations spread over the draws (the first is cold), plus the
  chi-square tests of the counts pooled over this run's processes so far
  (verify_suite: the first ``detperm verify`` call, which runs before
  those tests).

With ``"import_only"`` in the config the process stops after timing the
import: run.py starts such processes, besides the workload processes, to
make up its import_s samples.
"""

import json
import os
import sys
import time

# The laws take 3 to 100 ms to compute, short enough for one timing to
# land in one of the machine's slow or fast spells of a few seconds.  The
# mean of several computations spread over the draw phase is steadier,
# and a deferred import paid by the first still shows in it.
LAW_REPEATS = 5


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy = sys.modules.get("scipy")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": getattr(scipy, "__version__", "not imported by detperm"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": len(os.listdir("/proc/self/task")),
    }


class Tally:
    """Operations attempted and failed, with the digest of every sample."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digest = 0
        self.observations = {name: [] for name in workload.tests}

    def draw(self, rng):
        """One operation; returns its latency in seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            sample = self.workload.draw(rng)
        except Exception as exc:
            print(f"operation failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        seconds = time.perf_counter() - start
        self.digest = hash((self.digest, self.workload.digest(sample)))
        if not self.workload.valid(sample):
            self.failed += 1
            return None
        for name, count in self.workload.observe(sample).items():
            self.observations[name].append(count)
        return seconds


def draw_phase(cfg, workload, tally, rng, tracer):
    """Draws until the process's share of the steady phase (or its fixed
    operation count) is used, computing the exact laws after each of
    LAW_REPEATS equal parts of it.  Returns the latencies of the good
    draws, the laws (None if computing them raised) and the mean time
    they took."""
    latencies, law_seconds, laws = [], [], None
    draw_s = cfg["steady_s"] * workload.draw_share
    start = time.perf_counter()
    while True:
        done = tally.attempted - 1  # the first draw belongs to set-up
        if cfg["ops"] is not None:
            progress = done / cfg["ops"]
        else:
            progress = min((time.perf_counter() - start) / draw_s, done / cfg["min_ops"])
        while len(law_seconds) < LAW_REPEATS and progress >= (len(law_seconds) + 1) / LAW_REPEATS:
            law_start = time.perf_counter()
            try:
                laws = workload.laws()
            except Exception as exc:
                print(f"computing the laws failed: {exc!r}", file=sys.stderr)
                laws = None
            law_seconds.append(time.perf_counter() - law_start)
        if progress >= 1:
            break
        if tracer:
            tracer.op = done + 1
        seconds = tally.draw(rng)
        if seconds is not None:
            latencies.append(seconds)
    return latencies, laws, sum(law_seconds) / len(law_seconds)


def suite_phase(cfg, workload, tally, steady_start, tracer):
    """`detperm verify` calls for the rest of the steady phase, at least one
    (exactly one in a fixed-count run).  Each call is one operation, failed
    if its output is not well formed."""
    suite = {"seconds": [], "sample_size": 0, "lines": 0, "rejected": 0,
             "not_strict_json": 0, "bytes_out": 0, "malformed": 0}
    while not suite["seconds"] or (
            cfg["ops"] is None and time.perf_counter() - steady_start < cfg["steady_s"]):
        if tracer:
            tracer.op = tally.attempted + len(suite["seconds"])
        seconds, size, lines, well_formed = workload.suite_call(
            cfg["seed"] * 1009 + cfg["stream"] * 101 + len(suite["seconds"]))
        suite["seconds"].append(seconds)
        suite["bytes_out"] += size
        suite["malformed"] += not well_formed
        for key in ("sample_size", "lines", "rejected", "not_strict_json"):
            suite[key] += lines[key]
    tally.attempted += len(suite["seconds"])
    tally.failed += suite["malformed"]
    return suite


def check_phase(cfg, workload, tally, laws, significance):
    """The exact-law tests on the counts pooled over this run so far (the
    result files of its earlier processes, named in ``cfg["prior"]``, and
    this process); returns their results and the time they took."""
    pooled = {name: list(counts) for name, counts in tally.observations.items()}
    for path in cfg["prior"]:
        with open(path) as fh:
            for name, counts in json.load(fh)["observations"].items():
                pooled[name] += counts
    failed = [(name, False, None) for name in workload.tests]
    start = time.perf_counter()
    try:
        tests = failed if laws is None else workload.check(pooled, laws, significance)
    except Exception as exc:
        print(f"check failed: {exc!r}", file=sys.stderr)
        tests = failed
    seconds = time.perf_counter() - start
    tally.attempted += len(tests)
    tally.failed += sum(not passed for _, passed, _ in tests)
    return tests, seconds


def main(root, config):
    if any(name.partition(".")[0] in ("numpy", "scipy") for name in sys.modules):
        raise SystemExit("numpy or scipy was loaded before detperm")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import detperm as dp
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(dp.__file__))) != os.path.abspath(src):
        raise SystemExit(f"imported detperm from {dp.__file__}, not from {src}")

    import numpy as np

    import bench_trace
    import bench_workloads

    cfg = json.loads(config)
    if cfg.get("import_only"):
        with open(cfg["result"], "w") as fh:
            json.dump({"import_s": import_s}, fh)
        return
    work_start = time.perf_counter()
    tracer = bench_trace.Tracer() if cfg["traced"] else None
    if tracer:
        tracer.install()
    workload = bench_workloads.WORKLOADS[cfg["workload"]](cfg)
    rng = dp.split(dp.stream(cfg["seed"]), cfg["streams"])[cfg["stream"]]
    tally = Tally(workload)
    workload.setup()
    tally.draw(rng)
    setup_s = monotonic() - cfg["launched"]

    steady_start = time.perf_counter()
    latencies, laws, law_s = draw_phase(cfg, workload, tally, rng, tracer)
    correct = tally.failed == 0
    result = {"import_s": import_s, "setup_s": setup_s, "latencies_s": latencies}
    cli_counts = {"cli.bytes_out": 0, "cli.not_strict_json_lines": 0}
    if isinstance(workload, bench_workloads.VerifySuite):
        # the first `detperm verify` call is this workload's check_s, so it
        # runs before the benchmark's own tests can load anything for it
        suite = suite_phase(cfg, workload, tally, steady_start, tracer)
        correct = correct and not suite["malformed"]
        cli_counts = {"cli.bytes_out": suite["bytes_out"],
                      "cli.not_strict_json_lines": suite["not_strict_json"]}
        result.update(suite=suite, check_s=suite["seconds"][0])
    if tracer:
        tracer.op = tally.attempted
    significance = bench_workloads.FAMILY_SIGNIFICANCE / (cfg["processes"] * len(workload.tests))
    tests, test_s = check_phase(cfg, workload, tally, laws, significance)
    result.setdefault("check_s", law_s + test_s)
    correct = correct and all(passed for _, passed, _ in tests)
    result.update(tests=tests, observations=tally.observations,
                  work_s=time.perf_counter() - work_start, attempted=tally.attempted,
                  failed=tally.failed, digest=tally.digest, correct=correct,
                  env=environment(np))
    if tracer:
        result["layers"] = tracer.metrics(cfg["layers"], cli_counts)
        tracer.write(cfg["spans"])
    with open(cfg["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
