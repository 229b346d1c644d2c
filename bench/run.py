"""zakfiber benchmark: time to a certified verdict.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see workloads.py):

  analyze          `analyze` with few large or many small fiber blocks,
                   |G| 64-256, plus demo-diffop
  subgroup-sweep   all_subgroups(G), then `check` on every subgroup

Inputs are generated from the seed into .bench_work/ before timing starts.
One client in a fresh interpreter runs the ops in a closed loop with BLAS
pinned to one thread (loop.py). Every op is checked against an oracle and
against earlier runs of the same case.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. Latency is
taken per case as its best (fastest) timed run, since the shared host slows
whole stretches of a run at random: cycle_s is the sum of the case list's
best latencies and op_s.geomean their geometric mean. The others are the
client's peak RSS and set-up time (the median of at least 7 cold starts of a
fresh interpreter up to `import zakfiber.cli` done, one between ops every
2 s).
The all-sample op_s.p50, op_s.p90 and ops_per_s are printed too, but are not
in BENCHMARK.json: host noise spreads them by about a quarter between runs.
--trace 1 spends half the time untraced and half traced, and prints the
per-layer metrics of BENCHMARK.json, including the tracing slowdown.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give the
environment, the excluded cases and every metric with its unit, including
failed_ratio.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, so no idle BLAS thread of this process competes
# with the client for a core.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_GRACE_S = 60


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_client(workdir: Path, seconds: float, tag: str, setup: bool = False, spans: Path | None = None) -> dict:
    result = workdir / f"result-{tag}.json"
    cmd = [sys.executable, str(BENCH / "loop.py"), str(workdir), repr(seconds), str(result)]
    if setup:
        cmd.append("--setup")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=seconds + CHILD_GRACE_S,
                   stdout=subprocess.DEVNULL)
    return json.loads(result.read_text(encoding="utf-8"))


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def best_latencies(res: dict) -> list[float]:
    """Each case's fastest timed run: the time with the least host interference."""
    best: dict[str, float] = {}
    for case, elapsed in zip(res["cases"], res["times"]):
        best[case] = min(elapsed, best.get(case, elapsed))
    return list(best.values())


def all_samples(res: dict) -> dict:
    """Latency over every timed op, printed but not gated: too noisy to bound."""
    times = res["times"]
    return {
        "op_s.p50": (float(np.percentile(times, 50)), "s"),
        "op_s.p90": (float(np.percentile(times, 90)), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }


def end_to_end(res: dict) -> dict:
    best = best_latencies(res)
    return {
        "cycle_s": sum(best),
        "op_s.geomean": float(np.exp(np.mean(np.log(best)))),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "setup_s": res["setup_s"],
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["jsonio.bytes_in"] = traced["jsonio.bytes_in"]
    values["jsonio.bytes_out"] = traced["jsonio.bytes_out"]
    untraced_rate = len(untraced["times"]) / sum(untraced["times"])
    traced_rate = len(traced["times"]) / sum(traced["times"])
    values["trace.untraced_ops_per_s"] = untraced_rate
    values["trace.traced_ops_per_s"] = traced_rate
    values["trace.slowdown"] = untraced_rate / traced_rate
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="zakfiber benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "zakfiber" / "cli.py").is_file():
        print(f"error: no zakfiber sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        manifest = workloads.build(args.workload, args.seed, workdir)
        (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        if args.trace:
            untraced = run_client(workdir, args.seconds / 2, "untraced")
            spans = work_root / f"spans-{args.workload}.jsonl"
            traced = run_client(workdir, args.seconds / 2, "traced", spans=spans)
            runs = [untraced, traced]
            values = per_layer(untraced, traced)
        else:
            measured = run_client(workdir, args.seconds, "measured", setup=True)
            runs = [measured]
            values = end_to_end(measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    print("env " + json.dumps(environment(args), sort_keys=True))
    for case in workloads.EXCLUDED:
        print(f"excluded {case['case']}: {case['why']}")
    for r in runs:
        print(f"ops {len(r['times'])} timed in {r['cycles']} cycles of {len(manifest['ops'])}, "
              f"{r['wall_s']:.1f} s wall")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<48} {values[m['name']]:.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in all_samples(measured).items():
            print(f"{name + ' (all samples, not gated)':<48} {value:.6g} {unit}")
    print(f"{'failed_ratio':<48} {len(failures) / attempted:.6g} ({len(failures)}/{attempted} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
