"""Command-line surface: analyze operators, run the difference-operator demo,
and execute the invariant check suites on a group spec.

Exit codes: 0 all verifications pass, 1 a mathematical verification failed,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, jsonio
from .fiberization import characters, fiber_context, determining_function, zak, zak_inverse
from .groups import make_group, subgroup_from_generators, translate, translation_matrix
from .operators import (
    check_field_identity,
    check_translation_preserving,
    extract_range_operator,
    fiber_summary,
    hs_trace_report,
    multiplication_preserving_check,
    norm_identity_report,
    solve_range_field,
    structural_flags,
    synthesize_operator,
)
from .spaces import range_function, space_from_range


@dataclass(frozen=True)
class RunConfig:
    """Tolerance override, seed and output routing for one CLI run."""

    tol: float | None = None
    seed: int = 0
    json_out: bool = False
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {self.seed}")

    def tolerance(self, default: float) -> float:
        """The --tol override if one was given, else the gate's own tolerance."""
        return self.tol if self.tol is not None else default


def _config_from_args(args) -> RunConfig:
    return RunConfig(tol=args.tol, seed=args.seed, json_out=args.json, out_path=args.out)


def _load_json(path: str, decode=json.loads):
    """``decode`` of the file's text; a failure to read or decode it raises a
    ValueError that names the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return decode(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} nests too deeply to parse") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _context_from_spec(path: str):
    g, gamma = jsonio.group_spec_from_json(_load_json(path))
    return fiber_context(g, gamma)


def _emit(report: dict, cfg: RunConfig) -> None:
    """Write the JSON report to the --out file and, under --json, to stdout,
    in one pass over the encoder's chunks; otherwise print the summary."""
    with contextlib.ExitStack() as stack:
        sinks = [stack.enter_context(open(cfg.out_path, "w", encoding="utf-8"))] if cfg.out_path else []
        if cfg.json_out:
            sinks.append(sys.stdout)
        for chunk in itertools.chain(jsonio.report_chunks(report), "\n") if sinks else ():
            for sink in sinks:
                sink.write(chunk)
    if not cfg.json_out:
        _print_summary(report)


def _print_summary(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_summary(value, indent + "  ")
        elif isinstance(value, list) and (len(value) > 8 or any(isinstance(v, (list, np.ndarray)) for v in value)):
            print(f"{indent}{key}: [{len(value)} entries]")
        else:
            print(f"{indent}{key}: {value}")


def _pipeline(ctx, u, cfg: RunConfig) -> tuple[dict, bool, np.ndarray | None]:
    """commutation -> field -> field identity -> norm/HS/trace/structural, on the full space.

    Returns the report body, the verdict and the extracted field (None when
    the pipeline stopped before the field was accepted).
    """
    commute = check_translation_preserving(ctx, u, tol=cfg.tolerance(checks.COMMUTE))
    report = {"translation_preserving": commute.to_dict()}
    if not commute:
        return report, False, None
    field = solve_range_field(ctx, u)
    # certified here, on u and the field the solve returned, so no solve certifies itself
    identity = check_field_identity(ctx, u, field, cfg.seed, cfg.tolerance(checks.IDENTITY))
    report["field_identity"] = identity.to_dict()
    if not identity:
        return report, False, None
    report["range_field"] = jsonio.field_to_json(field)

    op, fib = fiber_summary(u[None]), fiber_summary(field)
    comparisons = {
        "norm_identity": norm_identity_report(op, fib, tol=cfg.tolerance(checks.NORM)),
        "hs_trace": hs_trace_report(op, fib, tol=cfg.tolerance(checks.HS)),
        "structural": structural_flags(op, fib, tol=cfg.tolerance(checks.STRUCT)),
    }
    report.update((name, comparison.to_dict()) for name, comparison in comparisons.items())
    return report, all(comparison.passed for comparison in comparisons.values()), field


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    ctx = _context_from_spec(args.group_spec)
    u = _load_json(args.operator, functools.partial(jsonio.operator_from_json, ctx))
    body, ok, _ = _pipeline(ctx, u, cfg)
    report = {
        "command": "analyze",
        "group": jsonio.group_spec_to_json(ctx.group, ctx.gamma),
        "sizes": {"group": ctx.group.size, "gamma": ctx.gamma.size, "omega": ctx.n_omega, "c": ctx.n_c},
        "seed": cfg.seed,
        "passed": ok,
    }
    report.update(body)
    _emit(report, cfg)
    return 0 if ok else 1


def cmd_demo_diffop(args) -> int:
    cfg = _config_from_args(args)
    n = args.modulus
    if n < 2:
        raise ValueError(f"modulus must be at least 2, got {n}")
    if n > jsonio.MAX_GROUP_ORDER:
        raise ValueError(f"modulus {n} exceeds the group order limit {jsonio.MAX_GROUP_ORDER}")
    if args.step < 0:
        raise ValueError(f"step must be non-negative, got {args.step}")
    g = make_group([n])
    step = (args.step % n,)
    gamma = subgroup_from_generators(g, [step])
    ctx = fiber_context(g, gamma)
    u = np.eye(g.size, dtype=complex) - translation_matrix(g, step)

    body, ok, field = _pipeline(ctx, u, cfg)
    expected = 1.0 - determining_function(ctx, step)
    if field is None:  # no field to read: neither gate passes on no fibers
        symbols = np.zeros(0, dtype=complex)
        symbol_gap = scalar_gap = math.inf
    else:
        symbols = field[:, 0, 0]
        # the scalar abs: numpy's vectorized complex abs may round the last bit otherwise
        symbol_gap = checks.largest(map(abs, symbols - expected))
        scalar_gap = checks.largest(np.abs(field - symbols[:, None, None] * np.eye(ctx.n_c)).max(axis=(1, 2)))
    tol = cfg.tolerance(checks.SYMBOL)  # absolute gates: |1 - pairing(d, w)| <= 2
    symbol_gates = {"symbols": checks.gate(symbol_gap, tol, 1.0), "scalar_fibers": checks.gate(scalar_gap, tol, 1.0)}
    ok = ok and all(symbol_gates.values())

    report = {
        "command": "demo-diffop",
        "modulus": n,
        "step": step[0],
        "gamma": gamma.elements.tolist(),
        "omega_reps": ctx.omega.tolist(),
        "fiber_symbols": jsonio.matrix_to_json(symbols),
        "expected_symbols": jsonio.matrix_to_json(expected),
        **{name: verdict.to_dict() for name, verdict in symbol_gates.items()},
        "operator_norm": body.get("norm_identity", {}).get("values", {}).get("operator_norm"),
        "expected_norm": checks.largest(abs(e) for e in expected),
        "seed": cfg.seed,
        "passed": ok,
    }
    report.update(body)
    _emit(report, cfg)
    return 0 if ok else 1


def _check_suites(ctx, cfg: RunConfig) -> dict:
    """Each suite's :class:`checks.Verdict` as a dict."""
    rng = np.random.default_rng(cfg.seed)
    n = ctx.group.size
    tol = cfg.tolerance
    suites: dict[str, checks.Verdict] = {}

    z = rng.standard_normal((20, 2, n))  # real and imaginary parts, signal by signal
    signals = np.ascontiguousarray((z[:, 0] + 1j * z[:, 1]).T)
    fibered = zak(ctx, signals)

    norms = np.linalg.norm(signals, axis=0)
    r_iso = (np.abs(np.linalg.norm(fibered, axis=(0, 1)) - norms) / norms).max()
    suites["zak_isometry"] = checks.gate(r_iso, tol(checks.TRANSFORM), 1.0)

    r_round = np.abs(zak_inverse(ctx, fibered) - signals).max()
    suites["zak_roundtrip"] = checks.gate(r_round, tol(checks.TRANSFORM), 1.0)

    # T_{s+t} = T_s T_t and the characters multiply, so the generators suffice
    r_inter = checks.largest(
        np.abs(
            zak(ctx, translate(ctx.group, signals[:, :5], t))
            - determining_function(ctx, t)[:, None, None] * fibered[..., :5]
        ).max()
        for t in ctx.gamma.probes
    )
    suites["zak_intertwining"] = checks.gate(r_inter, tol(checks.TRANSFORM), 1.0)

    # each generator's character from its definition, not from the transform's tables
    table = np.column_stack([determining_function(ctx, t) for t in ctx.gamma.probes])  # (|Omega|, probes)
    r_char = np.abs(table - characters(ctx, ctx.gamma.probes)).max()
    suites["character_table"] = checks.gate(r_char, tol(checks.TRANSFORM), 1.0)

    chars = np.column_stack([determining_function(ctx, t) for t in ctx.gamma.elements])
    r_det = np.abs(chars @ chars.conj().T / ctx.gamma.size - np.eye(ctx.n_omega)).max()
    suites["determining_set"] = checks.gate(r_det, tol(checks.TRANSFORM), 1.0)

    gaps = []
    for gens in (np.eye(n, 1, dtype=complex), signals[:, :2]):  # delta_0, then two random generators
        rangefn = range_function(ctx, gens)
        gaps.append(np.abs(rangefn - range_function(ctx, space_from_range(ctx, rangefn))).max())
    suites["range_roundtrip"] = checks.gate(checks.largest(gaps), tol(checks.ROUNDTRIP), 1.0)

    z = rng.standard_normal((ctx.n_omega, 2, ctx.n_c, ctx.n_c))
    field = z[:, 0] + 1j * z[:, 1]
    u = synthesize_operator(ctx, field)
    try:
        r_bij = np.abs(extract_range_operator(ctx, u) - field).max()
    except checks.VerificationError:  # no field to compare: the suite fails
        r_bij = math.inf
    suites["field_bijection"] = checks.gate(r_bij, tol(checks.ROUNDTRIP), np.abs(field).max())

    # Z U Z*, the fibered form of u: it commutes with multiplication by the
    # characters of Gamma, probed both through the determining set and blockwise
    uhat = zak(ctx, zak(ctx, u).reshape(n, n).conj().T).reshape(n, n).conj().T
    modes = [multiplication_preserving_check(ctx, uhat, mode) for mode in ("determining-set", "full")]
    r_mult = checks.largest(verdict.residual for verdict in modes)
    suites["multiplication_preserving"] = checks.gate(r_mult, tol(checks.COMMUTE), modes[0].scale)

    return {name: verdict.to_dict() for name, verdict in suites.items()}


def cmd_check(args) -> int:
    cfg = _config_from_args(args)
    ctx = _context_from_spec(args.group_spec)
    suites = _check_suites(ctx, cfg)
    ok = all(entry["passed"] for entry in suites.values())
    report = {
        "command": "check",
        "group": jsonio.group_spec_to_json(ctx.group, ctx.gamma),
        "sizes": {"group": ctx.group.size, "gamma": ctx.gamma.size, "omega": ctx.n_omega, "c": ctx.n_c},
        "seed": cfg.seed,
        "suites": suites,
        "passed": ok,
    }
    _emit(report, cfg)
    return 0 if ok else 1


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--tol", type=float, default=None, help="override the gate tolerances (not rank or invariance)"
    )
    sub.add_argument("--seed", type=int, default=0, help="random seed for sampled suites")
    sub.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    sub.add_argument("--out", type=str, default=None, help="write the JSON report to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="zakfiber",
        description="Fiberize signals on finite abelian groups and verify the "
        "block structure of translation-commuting operators.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="run the verification pipeline on an operator")
    analyze.add_argument("group_spec", help="path to a group spec JSON file")
    analyze.add_argument("operator", help="path to an operator JSON file")
    _add_common_flags(analyze)

    demo = commands.add_parser(
        "demo-diffop", help="analyze the difference operator I - T_d on Z_N"
    )
    demo.add_argument("modulus", type=int, help="modulus N of the cyclic group")
    demo.add_argument("step", type=int, help="translation step d")
    _add_common_flags(demo)

    check = commands.add_parser("check", help="run the invariant suites on a group spec")
    check.add_argument("group_spec", help="path to a group spec JSON file")
    _add_common_flags(check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    # looked up per call, so a command rebound on the module is the one run
    commands = {"analyze": cmd_analyze, "demo-diffop": cmd_demo_diffop, "check": cmd_check}
    try:
        return commands[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
