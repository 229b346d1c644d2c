"""One closed-loop client: runs a workload's ops in process for a time budget.

    python3 bench/loop.py WORKDIR SECONDS RESULT [--setup] [--spans PATH]

WORKDIR holds the manifest and input files written by bench/workloads.py.
One op is one unit of user work through ``zakfiber.cli.main(argv)``, from
argv to the report written with ``--out``; a subgroup-sweep op is
``all_subgroups(G)`` followed by ``check`` on every subgroup. The next op
starts when the previous one has returned. Ops run in whole cycles of the
case list, at least two so every case recurs, until the next cycle would
overrun SECONDS. Oracle and determinism checks run between ops, outside the
timed region. With ``--setup`` a cold start of a fresh interpreter up to
``import zakfiber.cli`` done is timed between ops every SETUP_EVERY_S
seconds, so the samples spread over the run and its host slowdowns. With
``--spans`` the library is traced (see tracer.py).

bench/run.py starts this script in a fresh interpreter with BLAS pinned to
one thread, so its peak RSS belongs to this run alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

MIN_CYCLES = 2
MIN_SETUP_SAMPLES = 7
SETUP_EVERY_S = 2.0
REL_TOL = 1e-8


COLD_START = "import zakfiber.cli, time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"


def cold_start() -> float:
    """Seconds from spawning a fresh interpreter to ``import zakfiber.cli`` done.

    The child reports when its import finished, on the system-wide monotonic
    clock. Timing the parent's wait instead would add the child's exit and
    the 50 ms polling step that subprocess uses when waiting with a timeout.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", COLD_START], check=True, timeout=60,
                          capture_output=True, text=True).stdout
    return float(done) - start


def _rel_ok(got, want: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * abs(want)


def check_cli(op: dict, rc: int, report: dict) -> str | None:
    """Return why the op's outcome is wrong, or None. Reads documented fields only."""
    want = op["expect"]
    if rc != want["exit"]:
        return f"exit {rc}, expected {want['exit']}"
    if want.get("reject"):
        if report["passed"] is not False or report["translation_preserving"]["passed"] is not False:
            return "perturbed operator was not rejected at translation_preserving"
        return None
    if report["passed"] is not True:
        return "report not passed"
    if "operator_norm" in want:
        norm = report["norm_identity"]["values"]["operator_norm"]
        if not _rel_ok(norm, want["operator_norm"]):
            return f"operator_norm {norm} != {want['operator_norm']}"
        hs = report["hs_trace"]["values"]["hs_squared"]["entrywise"]
        if not _rel_ok(hs, want["hs_squared"]):
            return f"hs_squared {hs} != {want['hs_squared']}"
    if "diffop_norm" in want and not _rel_ok(report["operator_norm"], want["diffop_norm"]):
        return f"demo-diffop norm {report['operator_norm']} != {want['diffop_norm']}"
    return None


class Client:
    def __init__(self, manifest: dict):
        import zakfiber.cli
        import zakfiber.groups

        self.cli, self.groups = zakfiber.cli, zakfiber.groups
        self.ops = manifest["ops"]
        self.tracer = None
        self.digests: dict[str, str] = {}
        self.times: list[float] = []
        self.cases: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_in = self.bytes_out = 0
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(self.devnull):
            return self.cli.main(argv)

    def _run_cli(self, op: dict) -> tuple[float, list[str], list[int], list[str]]:
        out = f"out-{op['id']}.json"
        start = time.perf_counter()
        rc = self._main([*op["argv"], "--out", out])
        elapsed = time.perf_counter() - start
        return elapsed, [out], [rc], [a for a in op["argv"] if a.endswith(".json")]

    def _run_sweep(self, op: dict) -> tuple[float, list[str], list[int], list[str]]:
        orders, seed = op["orders"], str(op["seed"])
        specs, outs, rcs = [], [], []
        start = time.perf_counter()
        subs = self.groups.all_subgroups(self.groups.make_group(orders))
        for j, sub in enumerate(subs):
            specs.append(f"spec-{op['id']}-{j}.json")
            with open(specs[-1], "w", encoding="utf-8") as fh:
                json.dump({"orders": orders, "gamma_generators": [list(t) for t in sub.generators]}, fh)
            outs.append(f"out-{op['id']}-{j}.json")
            rcs.append(self._main(["check", specs[-1], "--seed", seed, "--out", outs[-1]]))
        elapsed = time.perf_counter() - start
        return elapsed, outs, rcs, specs

    def run(self, index: int, timed: bool = True) -> None:
        op = self.ops[index]
        self.attempted += 1
        gc.collect()  # so one op's garbage is not collected inside the next op's timing
        span = self.tracer.op(index, op["label"]) if self.tracer else contextlib.nullcontext()
        try:
            with span:
                run = self._run_sweep if op["kind"] == "sweep" else self._run_cli
                elapsed, outs, rcs, inputs = run(op)
        except Exception as exc:  # a library crash fails this op, not the run
            self.failures.append(f"{op['label']}: raised {traceback.format_exception_only(exc)[-1].strip()}")
            return
        try:
            raws = [Path(out).read_bytes() for out in outs]
            for out in outs:
                os.remove(out)
            problem = self._verify(op, raws, rcs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem:
            self.failures.append(f"{op['label']}: {problem}")
        if timed:
            self.times.append(elapsed)
            self.cases.append(op["id"])
            self.bytes_in += sum(os.path.getsize(path) for path in inputs)
            self.bytes_out += sum(len(raw) for raw in raws)

    def _verify(self, op: dict, raws: list[bytes], rcs: list[int]) -> str | None:
        reports = [json.loads(raw) for raw in raws]
        if op["kind"] == "sweep":
            if len(reports) != op["expect"]["subgroups"]:
                return f"{len(reports)} subgroups, expected {op['expect']['subgroups']}"
            bad = [j for j, (rc, rep) in enumerate(zip(rcs, reports)) if rc != 0 or rep["passed"] is not True]
            if bad:
                return f"check failed on subgroups {bad[:5]}"
        else:
            problem = check_cli(op, rcs[0], reports[0])
            if problem:
                return problem
        digest = hashlib.sha256(b"".join(raws)).hexdigest()
        if self.digests.setdefault(op["id"], digest) != digest:
            return "report differs from an earlier run of the same case"
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir")
    parser.add_argument("seconds", type=float)
    parser.add_argument("result")
    parser.add_argument("--setup", action="store_true", help="also time cold starts")
    parser.add_argument("--spans", default=None, help="trace the library and write spans here")
    args = parser.parse_args()

    workdir = Path(args.workdir).resolve()
    result_path = Path(args.result).resolve()
    spans_path = Path(args.spans).resolve() if args.spans else None
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    os.chdir(workdir)

    client = Client(manifest)
    try:
        client.run(0, timed=False)  # warm-up: lazy imports and first-call set-up
        if spans_path:
            from tracer import Tracer

            client.tracer = Tracer()
            client.tracer.install()
        setup = []
        begin = time.perf_counter()
        last_setup = begin - SETUP_EVERY_S
        cycles = 0
        while True:
            cycle_start = time.perf_counter()
            for index in range(len(client.ops)):
                if args.setup and time.perf_counter() - last_setup >= SETUP_EVERY_S:
                    last_setup = time.perf_counter()
                    setup.append(cold_start())
                client.run(index)
            cycles += 1
            now = time.perf_counter()
            if cycles >= MIN_CYCLES and (now - begin) + (now - cycle_start) > args.seconds:
                break
        while args.setup and len(setup) < MIN_SETUP_SAMPLES:
            setup.append(cold_start())
    finally:
        client.close()

    ops = len(client.times)
    result = {
        "times": client.times,
        "cases": client.cases,
        "attempted": client.attempted,
        "failures": client.failures,
        "cycles": cycles,
        "wall_s": now - begin,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": statistics.median(setup) if setup else None,
        "jsonio.bytes_in": client.bytes_in / ops,
        "jsonio.bytes_out": client.bytes_out / ops,
    }
    if client.tracer is not None:
        result["layers"] = client.tracer.metrics(ops)
        client.tracer.write_spans(spans_path)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
