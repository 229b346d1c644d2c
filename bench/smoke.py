"""Smoke test of the benchmark, in short mode.

    python3 bench/smoke.py

Run from the repository root; takes about two minutes. It checks that

- every pinned subgroup count in workloads.py matches an independent
  brute-force count;
- each workload, untraced and traced, run with ``--seconds 1`` (two cycles
  of its case list), prints every metric of BENCHMARK.json with its unit,
  and reports correct with failed 0, that is failed_ratio 0;
- run.py exits non-zero and prints no result in a directory that holds only
  BENCHMARK.json and bench/.

Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def brute_force_subgroup_count(orders) -> int:
    """Count subgroups as the joins of cyclic subgroups, by set arithmetic."""

    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    elems = list(product(*(range(n) for n in orders)))
    cyclic = set()
    for x in elems:
        members, y = {x}, add(x, x)
        while y not in members:
            members.add(y)
            y = add(y, x)
        cyclic.add(frozenset(members))
    subs, frontier = set(cyclic), set(cyclic)
    while frontier:
        joins = {frozenset(add(x, y) for x in h for y in c) for h in frontier for c in cyclic}
        frontier = joins - subs
        subs |= frontier
    return len(subs)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}: "
                        + "; ".join(line for line in lines if line.startswith("FAILED")))
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} printed as {entry}")
        elif not any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]):
            problems.append(f"{where}: metric {name} missing from the printed table")
    if not any(line.startswith("failed_ratio") and line.split()[1] == "0" for line in lines):
        problems.append(f"{where}: failed_ratio line missing or non-zero")
    print(f"{where}: {result.get('attempted')} ops, {len(metrics)} metrics", flush=True)
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(bare, workloads.WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for orders in workloads.SWEEP:
        want, got = workloads.expected_subgroups(orders), brute_force_subgroup_count(orders)
        if want != got:
            problems.append(f"subgroup count of {orders}: pinned {want}, brute force {got}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_result(spec, workload, trace)
    problems += check_bare_directory()
    for problem in problems:
        print("FAIL " + problem)
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
