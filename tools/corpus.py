"""The verdict corpus: the exit code, every boolean and the report bytes of 942 CLI runs.

    python3 tools/corpus.py OUT.json [--src DIR] [--pinned]
    python3 tools/corpus.py --compare A.json B.json

The first form executes the corpus in this process through ``zakfiber.cli.main``,
with BLAS pinned to one thread before numpy loads, and writes one record per
run to OUT.json: its exit code, every boolean of its JSON report, keyed by
the report path (``hs_trace.verdicts.trace_agree.passed``), the SHA-256
of the report's bytes (null when no report was written) and the smallest
``|margin| / bound`` of its verdicts with a positive bound (null when there
is none). ``--src`` names the source tree whose ``zakfiber`` runs (default:
this checkout's ``src``), so a copy of another commit can be measured with
this script. ``--pinned`` writes the record the test suite pins instead
(:func:`pinned`: no report bytes, only the false booleans), so

    python3 tools/corpus.py tests/corpus_record.json --pinned

regenerates ``tests/test_corpus.py``'s record. The runs are:

- the bench ``analyze`` workload at seeds 1 and 2, its perturbed operators
  and its ``demo-diffop`` ops included (60 runs);
- ``demo-diffop 8 2``, ``128 1`` and ``256 4`` (3 runs);
- ``analyze`` on ``Z_64`` at ``Gamma = {0}`` (where the field is ``U``
  itself), ``<8>``, ``<32>`` and ``G`` of four operators built with numpy
  alone: a positive ``W^H W``, the translation ``T_1``, and
  ``I + 1e-8 i J/64`` and ``I + 5e-9 J/64`` (``J`` the all-ones matrix), just
  past the self-adjointness and isometry thresholds (16 runs);
- ``check --seed 1`` on every subgroup of every bench ``subgroup-sweep``
  group (369 runs);
- ``analyze`` on ``Z_4``, ``Gamma = <2>``, of each malformed operator file
  of ``malformed_operators``, every one of which must exit 2 (23 runs);
- each of these again at ``--tol 1e-20``.

``--compare`` lists every run whose exit code, booleans or report bytes
differ between two records, then counts each boolean change by its path and
the runs whose report bytes differ. It exits 0 when the records agree and 1
otherwise.

The inputs come from ``bench/workloads.py``, imported without writing
bytecode so that nothing under ``bench/`` changes. Input files and reports
go to a temporary directory. A run takes 7-15 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
DIFFOPS = ((8, 2), (128, 1), (256, 4))
Z64_GAMMAS = {"0": 0, "8": 8, "32": 32, "G": 1}  # label: generator of Gamma in Z_64
Z64_SEED = 1
CHECK_SEED = 1
STRICT_TOL = "1e-20"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def z64_operators(workloads) -> dict:
    """The operator JSON, by name, of four operators on Z_64 that commute with
    every subgroup: W^H W for a circulant W, the translation T_1, and two just
    past the STRUCT threshold, not self-adjoint (||U - U^H||_F = 2e-8) and
    not an isometry (||U^H U - I||_2 = 1e-8)."""
    import numpy as np  # not at module level: main pins the BLAS threads before numpy loads

    w = workloads.commuting_operator([64], [(1,)], np.random.default_rng(Z64_SEED))
    eye, mean = np.eye(64), np.full((64, 64), 1 / 64)
    ops = {
        "psd": w.conj().T @ w,
        "translation": np.roll(eye, 1, axis=0),
        "skew": eye + 1e-8j * mean,
        "near-isometry": eye + 5e-9 * mean,
    }
    return {name: {"matrix": np.stack([u.real, u.imag], axis=-1).tolist()} for name, u in ops.items()}


def malformed_operators(n: int) -> dict:
    """The bytes, by name, of operator files for a group of order n that
    ``analyze`` must reject with exit 2. Each breaks one rule of the file of
    the all-ones operator, ``{"matrix": [[[1.0, 0.0]] * n] * n}``, which
    passes."""
    pair = [1.0, 0.0]
    rows = [[pair] * n] * n
    valid = json.dumps({"matrix": rows})

    def first_entry(entry):
        return json.dumps({"matrix": [[entry] + rows[0][1:]] + rows[1:]})

    texts = {
        "trailing-data": valid + " {}",
        "second-member": json.dumps({"matrix": rows, "note": 1}),
        "duplicate-matrix": valid[:-1] + ", " + valid[1:],
        "no-matrix": json.dumps({"rows": rows}),
        "matrix-not-a-list": json.dumps({"matrix": "nope"}),
        "too-few-rows": json.dumps({"matrix": rows[1:]}),
        "too-many-rows": json.dumps({"matrix": rows + rows[:1]}),
        "short-row": json.dumps({"matrix": [rows[0][1:]] + rows[1:]}),
        "long-row": json.dumps({"matrix": [rows[0] + [pair]] + rows[1:]}),
        "triple": first_entry([1.0, 0.0, 0.0]),
        "scalar-entry": first_entry(1.0),
        "nested-entry": first_entry([[1.0], 0.0]),
        "string": first_entry(["1", 0.0]),
        "null": first_entry([None, 0.0]),
        "true": first_entry([True, 0.0]),
        "bool-pair": first_entry([True, False]),
        "nan": first_entry([math.nan, 0.0]),
        "infinity": first_entry([math.inf, 0.0]),
        "minus-infinity": first_entry([0.0, -math.inf]),
        "deep-row": '{"matrix": [' + "[" * 200_000 + "]" * 200_000 + "]}",
    }
    files = {name: text.encode() for name, text in texts.items()}
    files["utf8-bom"] = b"\xef\xbb\xbf" + valid.encode()
    files["invalid-utf8"] = valid.encode().replace(b"1.0", b"1.\xff", 1)
    files["empty"] = b""
    return files


def corpus_argvs(workloads, groups, workdir: Path):
    """``(run id, argv)`` for every run at the default tolerances, with the
    input files written into workdir."""
    for seed in SEEDS:
        sub = workdir / f"analyze-{seed}"
        for op in workloads.build("analyze", seed, sub)["ops"]:
            argv = [str(sub / arg) if arg.endswith(".json") else arg for arg in op["argv"]]
            yield f"analyze-{seed}/{op['id']}", argv
    for n, d in DIFFOPS:
        yield f"demo-diffop/{n}-{d}", ["demo-diffop", str(n), str(d)]
    ops = {}
    for name, matrix in z64_operators(workloads).items():
        ops[name] = workdir / f"z64-{name}.json"
        ops[name].write_text(json.dumps(matrix))
    for label, generator in Z64_GAMMAS.items():
        spec = workdir / f"spec-z64-{label}.json"
        spec.write_text(json.dumps({"orders": [64], "gamma_generators": [[generator]]}))
        for name, op in ops.items():
            yield f"z64/{name}-{label}", ["analyze", str(spec), str(op)]
    spec = workdir / "spec-z4.json"
    spec.write_text(json.dumps({"orders": [4], "gamma_generators": [[2]]}))
    for name, data in malformed_operators(4).items():
        op = workdir / f"malformed-{name}.json"
        op.write_bytes(data)
        yield f"malformed/{name}", ["analyze", str(spec), str(op)]
    for orders in workloads.SWEEP:
        name = "x".join(map(str, orders))
        for j, subgroup in enumerate(groups.all_subgroups(groups.make_group(orders))):
            spec = workdir / f"spec-{name}-{j}.json"
            spec.write_text(json.dumps({"orders": orders, "gamma_generators": [list(t) for t in subgroup.generators]}))
            yield f"check/{name}-{j}", ["check", str(spec), "--seed", str(CHECK_SEED)]


def booleans(node) -> dict:
    """Every boolean of a JSON report, by its dotted path."""
    return _scan(node)[0]


def smallest_margin(node) -> float | None:
    """The smallest ``|margin| / bound`` over the verdicts of a JSON report
    whose bound is positive and finite: how near its closest decision is to
    flipping. None when no verdict has such a bound."""
    return _scan(node)[1]


def _scan(report) -> tuple[dict, float | None]:
    """:func:`booleans` and :func:`smallest_margin` in one walk, which skips
    the lists that hold no boolean and no object, such as a field's numbers."""
    found, ratios = {}, []

    def walk(node, path):
        if isinstance(node, bool):
            found[path] = node
        elif isinstance(node, dict):
            bound, margin = node.get("bound"), node.get("margin")
            if isinstance(bound, float) and 0.0 < bound < math.inf and isinstance(margin, float) and math.isfinite(margin):
                ratios.append(abs(margin) / bound)
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list) and not {bool, dict, list}.isdisjoint(map(type, node)):
            for key, value in enumerate(node):
                walk(value, f"{path}.{key}" if path else str(key))

    walk(report, "")
    return found, min(ratios, default=None)


def run_corpus(src: Path) -> dict:
    saved = sys.dont_write_bytecode, list(sys.path)  # restored: the tests run the corpus in their own process
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(ROOT / "bench")]
    try:
        import workloads
        from zakfiber import cli, groups

        return {"src": str(src), "runs": _run(cli, groups, workloads)}
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def _run(cli, groups, workloads) -> dict:
    records = {}
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as devnull:
        workdir = Path(tmp)
        out = workdir / "report.json"
        for run_id, argv in corpus_argvs(workloads, groups, workdir):
            for suffix, extra in (("", []), (f" --tol {STRICT_TOL}", ["--tol", STRICT_TOL])):
                out.unlink(missing_ok=True)
                with contextlib.redirect_stdout(devnull), contextlib.redirect_stderr(devnull):
                    code = cli.main([*argv, *extra, "--out", str(out)])
                data = out.read_bytes() if out.exists() else None
                found, margin = _scan(json.loads(data.decode("utf-8")) if data is not None else {})
                records[run_id + suffix] = {
                    "exit": code,
                    "booleans": found,
                    "sha256": hashlib.sha256(data).hexdigest() if data is not None else None,
                    "margin": margin,
                }
    return records


def pinned(record: dict) -> dict:
    """The record the test suite pins: each run's exit code, its false
    booleans and its smallest margin (3 significant digits, not compared),
    with no report bytes, which depend on the BLAS build."""
    return {
        "runs": {
            run_id: {
                "exit": entry["exit"],
                "booleans": {path: False for path, value in entry["booleans"].items() if not value},
                "margin": None if entry["margin"] is None else float(f"{entry['margin']:.3g}"),
            }
            for run_id, entry in record["runs"].items()
        }
    }


def compare(a: dict, b: dict) -> list[str]:
    """One line per difference in a run, then one per kind of difference with
    its count: each boolean change, and report bytes that differ."""
    lines, tally = [], collections.Counter()
    runs_a, runs_b = a["runs"], b["runs"]
    for run_id in sorted(runs_a.keys() | runs_b.keys()):
        if run_id not in runs_a or run_id not in runs_b:
            lines.append(f"{run_id}: only in {'B' if run_id in runs_b else 'A'}")
            continue
        one, two = runs_a[run_id], runs_b[run_id]
        if one["exit"] != two["exit"]:
            lines.append(f"{run_id}: exit {one['exit']} -> {two['exit']}")
        changes = []
        for path in sorted(one["booleans"].keys() | two["booleans"].keys()):
            old, new = one["booleans"].get(path, "absent"), two["booleans"].get(path, "absent")
            if old != new:
                changes.append(f"{path} {old} -> {new}")
        if one.get("sha256") != two.get("sha256"):
            changes.append("report bytes differ")
        lines += [f"{run_id}: {change}" for change in changes]
        tally.update(changes)
    lines += [f"{count} runs: {change}" for change, count in sorted(tally.items())]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Exit codes, booleans and report bytes of the 942-run verdict corpus.")
    parser.add_argument("out", nargs="?", help="run the corpus and write its record to this JSON file")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree whose zakfiber runs")
    parser.add_argument("--pinned", action="store_true", help="write the record tests/test_corpus.py pins")
    parser.add_argument(
        "--compare", nargs=2, metavar=("A", "B"), help="list the runs whose exit code, booleans or report bytes differ"
    )
    args = parser.parse_args(argv)
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT or --compare A B")
    if args.out is not None:
        # pinned before run_corpus loads numpy: the report bytes of a BLAS
        # product depend on the thread count
        os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
        record = run_corpus(Path(args.src).resolve())
        if args.pinned:
            # one run per line, so a change in the record shows as the lines of its runs
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pinned(record)["runs"].items())]
            Path(args.out).write_text('{"runs": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")
        else:
            Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        exits = collections.Counter(entry["exit"] for entry in record["runs"].values())
        print(f"{len(record['runs'])} runs, exit codes {dict(sorted(exits.items()))}")
        return 0
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
    lines = compare(a, b)
    print("\n".join(lines) if lines else f"{len(a['runs'])} runs agree")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
