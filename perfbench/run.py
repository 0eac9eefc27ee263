"""ike-lab benchmark: run one workload (or all of them) and print its metrics.

    python3 perfbench/run.py [--workload ike_t1|retrieval|variant_grid|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The program is imported from src/ as it
stands; nothing is installed. Set-up is repeated and its median reported
as setup_s; passes repeat, closed loop with one client, until --seconds
have been measured. Each pass's output is checked outside the timed
region.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
traces one set-up and one pass, after an untraced pass that gives the
tracing overhead, prints the per-layer metrics, and writes the spans to
.perfbench/trace-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("ike_t1", "retrieval", "variant_grid")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREAD_CAP_ENV = "IKE_LAB_THREADS"  # caps `ike-lab run --jobs`; unset for the benchmark
# Metrics printed for people only; BENCHMARK.json lists the ones a run reports.
REPORT_ONLY = {
    "step_ms_p50": "ms", "step_ms_p99": "ms", "queries_per_s": "1/s", "failed_ratio": "ratio",
}


def parse_args(argv: list[str], run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    return parser.parse_args(argv)


def pin_environment() -> str:
    """Pin BLAS to one thread and drop the job cap, for this process and
    every process it starts; make src/ importable. Must run before numpy
    is imported."""
    os.environ.update(BLAS_PIN)
    cap = os.environ.pop(THREAD_CAP_ENV, None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(SRC))
    return "unset" if cap is None else f"unset (was {cap!r})"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown: {exc}"
    return proc.stdout.strip() or f"unknown: {proc.stderr.strip()}"


def environment(thread_cap: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        THREAD_CAP_ENV: thread_cap,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Largest peak resident set among this process and the children it
    has waited for (the CLI and its pool workers on variant_grid)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(wl, seconds: float):
    """Checked passes until `seconds` have gone by, each followed by
    setup_repeats more set-ups. Spreading the set-ups over the run, rather
    than timing them in a burst at the start, lets their median see the same
    minute-scale changes in machine speed as the passes do."""
    setup_s = [timed(wl.setup)]
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(wl.check(wl.execute()))
        setup_s += [timed(wl.setup) for _ in range(wl.setup_repeats)]
    return setup_s, outcomes


def end_to_end(setup_s: list[float], outcomes) -> dict[str, float]:
    good = [o for o in outcomes if not o.failed]
    attempted = sum(o.attempted for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(o.wall_s for o in good),
        "peak_rss_mb": peak_rss_mb(),
        "failed_ratio": sum(o.failed for o in outcomes) / attempted,
    }
    for key in good[0].values:
        values[key] = statistics.median(o.values[key] for o in good)
    return values


def trace(wl, trace_file: Path) -> tuple[dict[str, float], list, dict]:
    """Traced set-up, an untraced pass, then a traced pass. Prints the
    self time by layer; returns the per-layer values, the checked outcomes
    and the trace document."""
    from layers import OUTPUT_DEFAULTS, check_restored, install, merge, span_metrics
    from tracer import NameStats, Tracer

    with install(Tracer()) as setup_tracer:
        wl.setup()
    check_restored()
    untraced = wl.check(wl.execute())
    outcomes = [untraced]
    if wl.name == "variant_grid":
        # parallel_efficiency compares a traced --jobs 1 pass with the
        # untraced --jobs 2 pass; the overhead compares like with like.
        untraced = wl.check(wl.execute(jobs=1))
        outcomes.append(untraced)
    traced = wl.check(wl.execute_traced(trace_file))
    outcomes.append(traced)
    check_restored()
    doc = json.loads(trace_file.read_text())
    stats = {name: NameStats(**entry) for name, entry in doc["stats"].items()}
    setup_stats = {n: s for n, s in setup_tracer.stats().items() if n.startswith("datasets.")}
    values = span_metrics(merge(stats, setup_stats), doc["counts"])
    values.update(OUTPUT_DEFAULTS)
    values.update(traced.layer)
    if wl.name == "variant_grid":
        values["harness.parallel_efficiency"] = (
            stats["harness.execute_run"].total_s / (2 * outcomes[0].wall_s)
        )
    values["trace.wall_s"] = traced.wall_s
    values["trace.untraced_wall_s"] = untraced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    values["trace.unaccounted_s"] = traced.wall_s - sum(s.self_s for s in stats.values())
    print_layer_table(values, stats)
    return values, outcomes, {"setup": setup_tracer.to_json(), "pass": doc}


def print_layer_table(values: dict[str, float], stats) -> None:
    from layers import layer_self_seconds

    wall = values["trace.wall_s"]
    print(f"traced pass {wall:.4f} s, untraced {values['trace.untraced_wall_s']:.4f} s, "
          f"overhead {values['trace.overhead_s']:+.4f} s")
    print(f"  {'layer':<12} {'self s':>10} {'share':>7}")
    for layer, own in layer_self_seconds(stats).items():
        print(f"  {layer:<12} {own:>10.4f} {own / wall:>7.1%}")
    rest = values["trace.unaccounted_s"]
    print(f"  {'(outside)':<12} {rest:>10.4f} {rest / wall:>7.1%}   not inside any traced call")


def run_one(args, spec: dict) -> int:
    thread_cap = pin_environment()
    import workloads  # imports numpy, so only after the BLAS pin

    env = environment(thread_cap)
    print("env " + json.dumps(env))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    # Temporary files of this process and the ones it starts stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        if args.trace:
            trace_file = work_dir / "pass-trace.json"
            values, outcomes, doc = trace(wl, trace_file)
            names = spec["per_layer"]
            (OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json").write_text(
                json.dumps({"env": env, "workload": wl.name, "seed": args.seed, **doc})
            )
        else:
            setup_s, outcomes = measure(wl, args.seconds)
            names = spec["end_to_end"]
            if all(o.failed for o in outcomes):
                values = None
            else:
                values = end_to_end(setup_s, outcomes)
                print(f"{wl.name}: seed {args.seed}, {len(setup_s)} set-ups, "
                      f"{len(outcomes)} passes of "
                      + ", ".join(f"{o.wall_s:.3f}" for o in outcomes) + " s")
                shown = {m["name"]: m["unit"] for m in names} | REPORT_ONLY
                for key, unit in shown.items():
                    if key in values:
                        print(f"  {key:<14} {values[key]:.6g} {unit}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED: {problem}")
    if values is None:
        print(f"{args.workload}: every pass failed; no metrics", file=sys.stderr)
        return 1
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"no value for metrics {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            lines = []
            for line in proc.stdout:
                print(line, end="", flush=True)
                lines.append(line)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec["run_seconds"])
    if not (SRC / "ike_lab" / "__init__.py").is_file():
        print(f"no ike_lab package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
