"""Command-line surface: analyze operators, run the difference-operator demo,
and execute the invariant check suites on a group spec.

Exit codes: 0 all verifications pass, 1 a mathematical verification failed,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checks, jsonio
from .fiberization import fiber_context, determining_function, zak, zak_inverse
from .groups import make_group, pairing, subgroup_from_generators, translate, translation_matrix
from .operators import (
    RangeOperatorField,
    check_translation_preserving,
    extract_range_operator,
    fiber_summary,
    hs_trace_report,
    norm_identity_report,
    operator_summary,
    solve_range_field,
    structural_flags,
    synthesize_operator,
)
from .spaces import (
    full_range_function,
    principal_decomposition,
    range_function,
    space_from_range,
    translate_parseval_frame,
)


@dataclass(frozen=True)
class RunConfig:
    """Tolerance overrides, seed and output routing for one CLI run."""

    tol_rel: float | None = None
    tol_abs: float | None = None
    seed: int = 0
    json_out: bool = False
    out_path: str | None = None

    def __post_init__(self) -> None:
        for name, value in (("tol-rel", self.tol_rel), ("tol-abs", self.tol_abs)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"--{name} must be finite and positive, got {value}")

    def rel_tol(self, default: float) -> float:
        return self.tol_rel if self.tol_rel is not None else default

    def abs_tol(self, default: float) -> float:
        return self.tol_abs if self.tol_abs is not None else default


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        tol_rel=args.tol_rel,
        tol_abs=args.tol_abs,
        seed=args.seed,
        json_out=args.json,
        out_path=args.out,
    )


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _context_from_spec(path: str):
    g, gamma = jsonio.group_spec_from_json(_load_json(path))
    return fiber_context(g, gamma)


def _emit(report: dict, cfg: RunConfig) -> None:
    text = jsonio.report_text(report)
    if cfg.out_path:
        Path(cfg.out_path).write_text(text + "\n", encoding="utf-8")
    if cfg.json_out:
        print(text)
    else:
        _print_summary(report)


def _print_summary(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_summary(value, indent + "  ")
        elif isinstance(value, list) and (len(value) > 8 or any(isinstance(v, list) for v in value)):
            print(f"{indent}{key}: [{len(value)} entries]")
        else:
            print(f"{indent}{key}: {value}")


def _pipeline(ctx, u, cfg: RunConfig) -> tuple[dict, bool, RangeOperatorField | None]:
    """check -> extract -> norm/HS/trace/structural on the full signal space.

    Returns the report body, the verdict and the extracted field (None when
    the pipeline stopped before the field was accepted).
    """
    rangefn = full_range_function(ctx)
    report: dict = {}
    verdict = check_translation_preserving(ctx, u, tol=cfg.abs_tol(checks.COMMUTE))
    witness_gamma, witness_entry = verdict.witness or (None, None)
    report["translation_preserving"] = {
        "passed": verdict.passed,
        "residual": verdict.residual,
        "witness_gamma": list(witness_gamma) if witness_gamma else None,
        "witness_entry": list(witness_entry) if witness_entry else None,
    }
    if not verdict:
        return report, False, None
    field, solve_residual = solve_range_field(ctx, u, rangefn)
    solve = checks.gate(solve_residual, cfg.abs_tol(checks.SOLVE))
    report["fiber_solve"] = {"passed": solve.passed, "residual": solve_residual}
    if not solve:
        return report, False, None
    report["range_field"] = jsonio.field_to_json(field, rangefn)

    basis = space_from_range(ctx, rangefn)
    frame = translate_parseval_frame(ctx, principal_decomposition(ctx, basis))
    op = operator_summary(ctx, u, basis, frame)
    fib = fiber_summary(field, rangefn)
    comparisons = {
        "norm_identity": norm_identity_report(op, fib, tol=cfg.rel_tol(checks.NORM)),
        "hs_trace": hs_trace_report(op, fib, tol=cfg.rel_tol(checks.HS)),
        "structural": structural_flags(op, fib, tol=cfg.abs_tol(checks.STRUCT)),
    }
    report.update((name, comparison.to_dict()) for name, comparison in comparisons.items())
    return report, all(comparison.passed for comparison in comparisons.values()), field


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    ctx = _context_from_spec(args.group_spec)
    u = jsonio.operator_from_json(ctx, _load_json(args.operator))
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
    expected = [1.0 - pairing(g, step, w) for w in ctx.omega.reps]
    matrices = field.matrices if field is not None else ()
    symbols = [complex(mat[0, 0]) if ctx.n_c else 0.0 for mat in matrices]
    scalar_residual = checks.largest(
        np.abs(mat - symbol * np.eye(ctx.n_c)).max() for mat, symbol in zip(matrices, symbols)
    )
    symbol_residual = checks.largest(abs(s - e) for s, e in zip(symbols, expected)) if symbols else math.inf
    tol = cfg.abs_tol(checks.SYMBOL)
    symbols_ok = bool(symbols) and checks.passes(symbol_residual, tol) and checks.passes(scalar_residual, tol)
    ok = ok and symbols_ok

    report = {
        "command": "demo-diffop",
        "modulus": n,
        "step": step[0],
        "gamma": [list(t) for t in gamma.elements],
        "omega_reps": [list(w) for w in ctx.omega.reps],
        "fiber_symbols": [jsonio.complex_to_pair(s) for s in symbols],
        "expected_symbols": [jsonio.complex_to_pair(e) for e in expected],
        "symbol_residual": symbol_residual if symbols else None,
        "symbol_scalar_residual": scalar_residual,
        "symbols_passed": symbols_ok,
        "operator_norm": body.get("norm_identity", {}).get("values", {}).get("operator_norm"),
        "expected_norm": checks.largest(abs(e) for e in expected),
        "seed": cfg.seed,
        "passed": ok,
    }
    report.update(body)
    _emit(report, cfg)
    return 0 if ok else 1


def _check_suites(ctx, cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    n = ctx.group.size
    suites: dict[str, dict] = {}

    def record(name: str, residual: float, tolerance: float) -> None:
        v = checks.gate(residual, tolerance)
        suites[name] = {"residual": v.residual, "tolerance": v.tolerance, "passed": v.passed}

    signals = np.column_stack([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(20)])
    fibered = zak(ctx, signals)

    norms = np.linalg.norm(signals, axis=0)
    r_iso = (np.abs(np.linalg.norm(fibered, axis=(0, 1)) - norms) / norms).max()
    record("zak_isometry", r_iso, cfg.rel_tol(checks.TRANSFORM))

    r_round = np.abs(zak_inverse(ctx, fibered) - signals).max()
    record("zak_roundtrip", r_round, cfg.abs_tol(checks.TRANSFORM))

    r_inter = checks.largest(
        np.abs(
            zak(ctx, translate(ctx.group, signals[:, :5], t))
            - determining_function(ctx, t)[:, None, None] * fibered[..., :5]
        ).max()
        for t in ctx.gamma.elements
    )
    record("zak_intertwining", r_inter, cfg.abs_tol(checks.TRANSFORM))

    chars = np.column_stack([determining_function(ctx, t) for t in ctx.gamma.elements])
    r_det = np.abs(chars @ chars.conj().T / ctx.gamma.size - np.eye(ctx.n_omega)).max()
    record("determining_set", r_det, cfg.abs_tol(checks.TRANSFORM))

    delta0 = np.zeros(n, dtype=complex)
    delta0[0] = 1.0
    gaps = []
    for gens in ([delta0], [signals[:, 0], signals[:, 1]]):
        rangefn = range_function(ctx, gens)
        rangefn2 = range_function(ctx, space_from_range(ctx, rangefn).T)
        gaps += [np.abs(rangefn.projection(wi) - rangefn2.projection(wi)).max() for wi in range(ctx.n_omega)]
    record("range_roundtrip", checks.largest(gaps), cfg.abs_tol(checks.ROUNDTRIP))

    rangefn = full_range_function(ctx)
    mats = tuple(
        rng.standard_normal((ctx.n_c, ctx.n_c)) + 1j * rng.standard_normal((ctx.n_c, ctx.n_c))
        for _ in range(ctx.n_omega)
    )
    field = RangeOperatorField(mats)
    u = synthesize_operator(ctx, field, rangefn)
    recovered = extract_range_operator(ctx, u, rangefn)
    r_bij = checks.largest(np.abs(a - b).max() for a, b in zip(recovered.matrices, field.matrices))
    record("field_bijection", r_bij, cfg.abs_tol(checks.ROUNDTRIP))

    return suites


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
    sub.add_argument("--tol-rel", type=float, default=None, help="override relative tolerances")
    sub.add_argument("--tol-abs", type=float, default=None, help="override absolute tolerances")
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
        code = exc.code
        if code in (None, 0):
            return 0
        return 2
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
