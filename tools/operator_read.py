"""Time and peak memory of the CLI operator read at large |G|.

    python3 tools/operator_read.py DIR [--sizes 1024 2048] [--rounds 3] [--src SRC ...]

For each size n, writes into DIR (once) the spec of ``Z_n`` with the trivial
subgroup and a dense random operator in the ``{"matrix": [row, ...]}`` JSON
format. Each round then runs, for every size and every source tree (default:
this checkout's ``src``; the order of the trees alternates between rounds),
one fresh interpreter that calls ``zakfiber.cli.main(["analyze", spec, op])``
with BLAS pinned to one thread and stops it where ``_pipeline`` would start.
It measures the read alone, from the return of ``_context_from_spec`` to the
call of ``_pipeline`` with the checked operator: its wall time, and the rise
of the process's high-water RSS (``VmHWM``, Linux) over its RSS when the read
began. It prints one line per run, then the median of each size and tree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_inputs(workdir: Path, n: int) -> tuple[Path, Path]:
    import numpy as np

    spec, op = workdir / f"spec-{n}.json", workdir / f"op-{n}.json"
    if not spec.exists():
        spec.write_text(json.dumps({"orders": [n]}), encoding="utf-8")
    if not op.exists():
        rng = np.random.default_rng(n)
        pairs = rng.standard_normal((n, n, 2))
        op.write_text(json.dumps({"matrix": pairs.tolist()}), encoding="utf-8")
    return spec, op


def _status_mb(field: str) -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


class _Stop(Exception):
    pass


def measure(src: str, spec: str, op: str) -> dict:
    """The read's seconds and peak rise in MB, in this process."""
    sys.path.insert(0, src)
    from zakfiber import cli

    start = {}
    context = cli._context_from_spec

    def context_then_start_clock(path):
        ctx = context(path)
        start.update(rss=_status_mb("VmRSS"), t=time.perf_counter())
        return ctx

    def stop(ctx, u, cfg):
        raise _Stop(time.perf_counter() - start["t"], _status_mb("VmHWM") - start["rss"], u.shape)

    cli._context_from_spec, cli._pipeline = context_then_start_clock, stop
    try:
        cli.main(["analyze", spec, op])
    except _Stop as done:
        seconds, peak_mb, shape = done.args
        return {"s": seconds, "peak_mb": peak_mb, "shape": list(shape)}
    raise RuntimeError("analyze stopped before the operator was read")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time and peak of the CLI operator read at large |G|.")
    parser.add_argument("workdir", help="directory for the input files")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1024, 2048])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--src", nargs="+", default=[str(ROOT / "src")], help="source trees whose zakfiber runs")
    parser.add_argument("--child", nargs=3, metavar=("SRC", "SPEC", "OP"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.child)))
        return 0

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {n: write_inputs(workdir, n) for n in args.sizes}
    env = dict(os.environ, **dict.fromkeys(BLAS_THREADS, "1"))
    runs = {}
    for r in range(args.rounds):
        for n, (spec, op) in inputs.items():
            for src in args.src if r % 2 == 0 else args.src[::-1]:
                cmd = [sys.executable, __file__, str(workdir), "--child", src, str(spec), str(op)]
                out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
                run = json.loads(out)
                runs.setdefault((n, src), []).append(run)
                print(f"round {r} n={n} {src}: {run['s']:.3f} s, +{run['peak_mb']:.0f} MB", flush=True)
    for (n, src), found in runs.items():
        s = statistics.median(run["s"] for run in found)
        mb = statistics.median(run["peak_mb"] for run in found)
        print(f"median n={n} {src}: {s:.2f} s, +{mb:.0f} MB over {len(found)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
