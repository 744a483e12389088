"""morphsuite pipeline benchmark.

Runs one workload for about --seconds seconds and prints every metric with
its unit; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. Run it from the repository root:

    python3 perfbench/run.py --workload sys_deep --seed 1 --seconds 30 --trace 0

The program runs from the source tree (src/) and the synthetic corpus comes
from tests/factory.py. Outputs go to .perfbench_work/<workload>/, which each
run empties first; the pass outputs are deleted when the run ends.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9

# The setup a user's run pays before any work: imports, profile, templates.
# It runs in a fresh interpreter, with the host-speed sampler of hostspeed.py.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import SpeedSampler
with SpeedSampler() as speed:
    cpu = time.process_time()
    start = time.perf_counter()
    from morphsuite import cli, profiles, prompts
    profiles.load_profile("turkish")
    prompts.load_templates()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
print(speed.normalize(wall, cpu))
"""

# Per-layer metric -> the span (its summed seconds) or count it reads; ""
# when layer_metrics computes it. Names and units come from BENCHMARK.json.
LAYER_SOURCES = {
    "suite.ingest_s": "suite.ingest",
    "suite.build_s": "suite.build_suite",
    "suite.instances": "suite.instances",
    "suite.skipped": "suite.skipped",
    "derive.pool_s": "derive.candidate_pool",
    "derive.select_s": "derive.select_negatives",
    "derive.candidates": "derive.candidates",
    "derive.negatives": "derive.negatives",
    "derive.useful_ratio": "",
    "distance.calls": "distance.calls",
    "nonce.make_s": "nonce.make_nonce",
    "nonce.attempts": "nonce.attempts",
    "prompts.load_s": "",
    "prompts.render_s": "prompts.render_suite",
    "prompts.rendered": "prompts.rendered",
    "prompts.chars": "prompts.chars",
    "client.evaluate_s": "client.evaluate_rows",
    "client.cache_hits": "client.cache_hits",
    "client.cache_misses": "client.cache_misses",
    "client.cache_get_s": "client.ResponseCache.get",
    "client.cache_put_s": "client.ResponseCache.put",
    "client.complete_p50_ms": "",
    "client.complete_p99_ms": "",
    "client.requests": "stub.requests",
    "client.connections": "stub.connections",
    "client.connections_per_request": "",
    "client.retries": "stub.retries",
    "client.status_429": "stub.status_429",
    "client.status_5xx": "stub.status_5xx",
    "metrics.score_s": "metrics.stratify_report",
    "jsonl.write_s": "",
    "jsonl.read_s": "jsonl.read_jsonl",
    "jsonl.bytes_written": "jsonl.bytes_written",
    "cli.self_s": "",
    "trace.overhead_s": "",
    "failed_frac": "",
}


def load_spec():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="morphsuite pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def metadata():
    """Run metadata: source identity, interpreter, kernel backend, cores."""
    git = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix not in (".pyc", ".so"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        from morphsuite import distance

        backend = getattr(distance, "BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return {
        "git_sha": git,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def measure_setup(workload):
    """SETUP_REPEATS set-up times, each in a fresh interpreter so that
    imports are paid again, plus starting the stub when the workload has one."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE)], env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(probe.stdout.strip().splitlines()[-1])
        if hasattr(workload, "start_stub"):
            with hostspeed.SpeedSampler() as speed:
                start = time.perf_counter()
                stub = workload.start_stub()
                wall = time.perf_counter() - start
            # The wait is the stub's interpreter starting: CPU work, all of it,
            # in a child process that the sampler cannot see.
            seconds += speed.normalize(wall, wall)
            stub.stop()
        samples.append(seconds)
    return samples


class Run:
    """Timings, operation counts and check results across the passes of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.cold = []  # pass times at the reference speed (hostspeed.py)
        self.warm = []
        self.windows = []  # (start, end) of every pass, for the traced ones
        self.factors = []  # host speed factor of every pass
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.prompts = 0
        self.stub_stats = []  # per pass, when the workload has a stub
        self.oracle_done = False
        self.oracle_checked = 0

    def one_pass(self, cold):
        from workloads import PassResult

        w = self.workload
        if w.stub is not None:
            w.stub.reset()
        gc.collect()
        with hostspeed.SpeedSampler() as speed:
            cpu = time.process_time()
            start = time.perf_counter()
            failures = w.run_pass()
            end = time.perf_counter()
            cpu = time.process_time() - cpu
        self.windows.append((start, end))
        self.factors.append(speed.factor())
        (self.cold if cold else self.warm).append(speed.normalize(end - start, cpu))
        try:
            result = w.check_pass(failures)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            result = PassResult()
            result.count(1, 1)
            result.problems += failures + [f"unreadable output: {type(exc).__name__}: {exc}"]
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems += result.problems
        if cold:
            self.prompts = result.prompts
        if w.stub is not None:
            stats = w.stub.stats()
            self.problems += w.check_stub(stats, cold, result.prompts)
            self.stub_stats.append(stats)
        if cold and not self.oracle_done and hasattr(w, "check_oracle"):
            self.oracle_done = True
            try:
                problems, self.oracle_checked = w.check_oracle()
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"oracle: unreadable output: {type(exc).__name__}: {exc}"]
                self.attempted += 1
                self.failed += 1
            self.problems += problems

    def iterate(self, budget):
        """Iterations of a cold pass and its warm passes until the next would
        overrun the budget (at least one).

        A finished iteration's outputs are moved aside, not deleted, so that
        no file deletion runs next to a timed pass; they go at the end.
        """
        out = self.workload.out
        start = time.perf_counter()
        done = 0
        while True:
            if out.exists():
                out.rename(self.workload.work / f"done-{len(self.windows)}")
            self.one_pass(cold=True)
            for _ in range(self.workload.warm_passes):
                self.one_pass(cold=False)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done > budget:
                return done


def percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(units, tracer, run, first_traced_pass, iterations, untraced_wall):
    """Per-layer values per iteration (the cold pass and its warm passes) of the traced passes."""
    windows = run.windows[first_traced_pass:]
    span_s = {}
    covered = 0.0
    for _, parent, name, thread, start, end in tracer.spans:
        if not any(a <= start <= b for a, b in windows):
            continue
        span_s[name] = span_s.get(name, 0.0) + (end - start)
        if parent is None and thread == tracer.main_thread:
            covered += end - start
    counts = dict(tracer.counts)
    for stats in run.stub_stats[first_traced_pass:]:
        for key, value in stats.items():
            counts[f"stub.{key}"] = counts.get(f"stub.{key}", 0) + value
    traced_wall = sum(b - a for a, b in windows)
    loads = [end - start for _, _, name, _, start, end in tracer.spans if name == "prompts.load_templates"]

    values = {}
    for name, unit in units.items():
        source = LAYER_SOURCES[name]
        if source:
            total = span_s.get(source, 0.0) if unit == "s" else counts.get(source, 0)
            values[name] = total / iterations
    values["derive.useful_ratio"] = (
        counts.get("derive.negatives", 0) / counts["derive.candidates"]
        if counts.get("derive.candidates") else 0.0
    )
    values["prompts.load_s"] = statistics.median(loads) if loads else 0.0
    values["client.complete_p50_ms"] = percentile(tracer.latencies_ms, 50)
    values["client.complete_p99_ms"] = percentile(tracer.latencies_ms, 99)
    requests = counts.get("stub.requests", 0)
    values["client.connections_per_request"] = (
        counts.get("stub.connections", 0) / requests if requests else 0.0
    )
    values["jsonl.write_s"] = (span_s.get("jsonl.write_jsonl", 0.0) + span_s.get("jsonl.write_json", 0.0)) / iterations
    values["cli.self_s"] = (traced_wall - covered) / iterations
    traced_cold = run.cold[len(run.cold) - iterations:]
    values["trace.overhead_s"] = statistics.median(traced_cold) - untraced_wall
    values["failed_frac"] = run.failed / run.attempted if run.attempted else 0.0
    return {name: values[name] for name in units}


def write_spans(tracer, path):
    origin = min((s[4] for s in tracer.spans), default=0.0)
    with open(path, "w", encoding="utf-8") as f:
        for span_id, parent, name, thread, start, end in tracer.spans:
            f.write(json.dumps({"id": span_id, "parent": parent, "name": name, "thread": thread,
                                "start": start - origin, "end": end - origin}) + "\n")


def main(argv=None):
    if not (ROOT / "src" / "morphsuite").is_dir() or not (ROOT / "tests" / "factory.py").is_file():
        print(f"error: {ROOT} holds no morphsuite source tree (src/morphsuite, tests/factory.py)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    # The stub is on loopback; never let a proxy setting route to it.
    for key in ("NO_PROXY", "no_proxy"):
        os.environ[key] = ",".join(filter(None, [os.environ.get(key), "127.0.0.1", "localhost"]))

    import workloads
    import tracer as tracing

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = load_spec()
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    workload.prepare()
    setup = [] if args.trace else measure_setup(workload)

    run = Run(workload)
    tracer = None
    workload.start()
    start = time.perf_counter()
    try:
        if not args.trace:
            iterations = run.iterate(args.seconds)
        else:
            # One untraced cold pass, the reference for trace.overhead_s;
            # traced iterations fill the rest of the budget.
            run.one_pass(cold=True)
            untraced_wall = run.cold[0]
            first_traced = len(run.windows)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            from morphsuite import profiles, prompts

            profiles.load_profile("turkish")
            prompts.load_templates()
            iterations = run.iterate(args.seconds - (time.perf_counter() - start))
    finally:
        workload.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for done in [*work.glob("done-*"), workload.out]:
        shutil.rmtree(done, ignore_errors=True)

    if args.trace:
        units = spec["per_layer"]
        values = layer_metrics(units, tracer, run, first_traced, iterations, untraced_wall)
        write_spans(tracer, work / "spans.jsonl")
    else:
        wall = statistics.median(run.cold)
        units = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "rerun_s": statistics.median(run.warm),
            "records_per_s": len(workload.records) / wall,
            "prompts_per_s": run.prompts / wall,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - run.failed / run.attempted,
        }

    meta = metadata()
    correct = not run.problems
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "iterations": iterations, "cold_s": run.cold, "warm_s": run.warm, "setup_s": setup,
        "pass_wall_s": [b - a for a, b in run.windows], "pass_speed_factor": run.factors,
        "oracle_records": run.oracle_checked, "problems": run.problems,
        "absent": tracer.absent if tracer else [], "metadata": meta,
        "metrics": values,
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={iterations} records={len(workload.records)} prompts/pass={run.prompts}")
    print("metadata: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print("host: raw pass walls " + " ".join(f"{b - a:.3f}" for a, b in run.windows)
          + " s; speed factors " + " ".join(f"{f:.3f}" for f in run.factors))
    print(f"checks: {'PASS' if correct else 'FAIL'} ({len(run.problems)} problems, "
          f"{run.oracle_checked} records checked against the brute-force top-k)")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    if tracer and tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
