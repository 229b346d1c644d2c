"""Acceptance gate: every verification identity at its pinned tolerance.

Each test sweeps the full desk-scale battery (orders 4, 8, 12 and 16, every
subgroup of each group) and prints one ``ACCEPTANCE <name>: PASS/FAIL`` line.
"""

import json
import zlib

import numpy as np
import pytest

from zakfiber import (
    RangeOperatorField,
    check_translation_preserving,
    determining_function,
    extract_range_operator,
    fiber_context,
    full_range_function,
    hs_trace_report,
    make_group,
    multiplication_preserving_check,
    norm_identity_report,
    pairing,
    principal_decomposition,
    range_function,
    solve_range_field,
    space_from_range,
    structural_flags,
    subgroup_from_generators,
    synthesize_operator,
    translate,
    translate_parseval_frame,
    translation_matrix,
    zak,
    zak_matrix,
)
from zakfiber.cli import main

from conftest import battery_contexts, delta, rand_field, rand_signal, summaries

BATTERY = battery_contexts()


def _verdict(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


@pytest.fixture(scope="module")
def tp_samples():
    """Fifty random translation-commuting operators per fixture, with fields."""
    samples = []
    for label, ctx in BATTERY:
        rng = np.random.default_rng(zlib.crc32(label.encode()))
        rangefn = full_range_function(ctx)
        fields = [rand_field(rng, ctx, rangefn) for _ in range(50)]
        ops = [synthesize_operator(ctx, f, rangefn) for f in fields]
        samples.append((label, ctx, rangefn, fields, ops))
    return samples


def test_zak_isometry_and_intertwining():
    # 100 random signals per fixture; norm preserved to 1e-10 relative and the
    # translation/character intertwining exact to 1e-10 per coordinate
    worst_iso, worst_inter = 0.0, 0.0
    for label, ctx in BATTERY:
        rng = np.random.default_rng(101)
        n = ctx.group.size
        characters = [determining_function(ctx, t) for t in ctx.gamma.elements]
        for _ in range(100):
            f = rand_signal(rng, n)
            fibers = zak(ctx, f)
            worst_iso = max(
                worst_iso,
                abs(np.linalg.norm(fibers) - np.linalg.norm(f)) / np.linalg.norm(f),
            )
            for t, char in zip(ctx.gamma.elements, characters):
                lhs = zak(ctx, translate(ctx.group, f, t))
                rhs = char[:, None] * fibers
                worst_inter = max(worst_inter, float(np.abs(lhs - rhs).max()))
    _verdict(
        "zak isometry and intertwining",
        worst_iso <= 1e-10 and worst_inter <= 1e-10,
        f"isometry {worst_iso:.2e}, intertwining {worst_inter:.2e}",
    )


def test_three_characterizations_agree(tp_samples):
    # commuting with translations <=> the fibered conjugate commutes with the
    # character multipliers <=> an exact fiber field solves with residual 1e-9
    disagreements = 0
    checked = 0
    preserving, non_preserving = 0, 0
    for label, ctx, rangefn, _, ops in tp_samples:
        rng = np.random.default_rng(202)
        zmat = zak_matrix(ctx)
        n = ctx.group.size
        dense = [rand_signal(rng, n * n).reshape(n, n) for _ in range(50)]
        for u in ops + dense:
            a = bool(check_translation_preserving(ctx, u))
            b = bool(
                multiplication_preserving_check(
                    ctx, zmat @ u @ zmat.conj().T, mode="determining-set"
                )
            )
            _, residual = solve_range_field(ctx, u, rangefn)
            c = residual <= 1e-9
            checked += 1
            if a:
                preserving += 1
            else:
                non_preserving += 1
            if not (a == b == c):
                disagreements += 1
    _verdict(
        "equivalence of the three characterizations",
        disagreements == 0 and preserving > 0 and non_preserving > 0,
        f"{checked} operators ({preserving} preserving, {non_preserving} not), "
        f"{disagreements} disagreements",
    )


def test_field_operator_bijection(tp_samples):
    # extract(synthesize(field)) == field and synthesize(extract(op)) == op,
    # both to 1e-9 max entry
    worst = 0.0
    for label, ctx, rangefn, fields, ops in tp_samples:
        for field, u in zip(fields, ops):
            recovered = extract_range_operator(ctx, u, rangefn)
            for a, b in zip(recovered.matrices, field.matrices):
                worst = max(worst, float(np.abs(a - b).max()))
            resynth = synthesize_operator(ctx, recovered, rangefn)
            worst = max(worst, float(np.abs(resynth - u).max()))
        # also on a proper invariant subspace
        rng = np.random.default_rng(303)
        sub = range_function(ctx, [rand_signal(rng, ctx.group.size)])
        for _ in range(5):
            field = rand_field(rng, ctx, sub)
            u = synthesize_operator(ctx, field, sub)
            recovered = extract_range_operator(ctx, u, sub)
            for a, b in zip(recovered.matrices, field.matrices):
                worst = max(worst, float(np.abs(a - b).max()))
    _verdict("field/operator bijection", worst <= 1e-9, f"max entry error {worst:.2e}")


def test_norm_formula(tp_samples):
    # restricted operator norm equals the largest fiber norm, and the cyclic
    # difference-operator analog on Z8 with step 2 has norm exactly 2
    worst = 0.0
    for label, ctx, rangefn, fields, ops in tp_samples:
        for field, u in zip(fields, ops):
            report = norm_identity_report(*summaries(ctx, u, field, rangefn))
            scale = max(1.0, report.values["operator_norm"])
            worst = max(worst, report.residuals["norm_gap"] / scale)
    ok_samples = worst <= 1e-8

    g = make_group([8])
    ctx8 = fiber_context(g, subgroup_from_generators(g, [(2,)]))
    u = np.eye(8, dtype=complex) - translation_matrix(g, (2,))
    rangefn8 = full_range_function(ctx8)
    field8 = extract_range_operator(ctx8, u, rangefn8)
    report8 = norm_identity_report(*summaries(ctx8, u, field8, rangefn8))
    expected = max(abs(1 - pairing(g, (2,), w)) for w in ctx8.omega.reps)
    ok_demo = (
        abs(report8.values["operator_norm"] - 2.0) <= 1e-10
        and abs(expected - 2.0) <= 1e-12
    )
    _verdict(
        "operator norm equals max fiber norm",
        ok_samples and ok_demo,
        f"max relative gap {worst:.2e}, difference-operator norm "
        f"{report8.values['operator_norm']:.12f}",
    )


def test_hs_norm_and_trace_routes():
    # squared HS norm agrees entrywise, over a random orthonormal basis, over
    # the scaled translate frame, and over the fiber sums; trace agrees over
    # basis/frame/fiber routes for positive operators
    worst_hs, worst_tr = 0.0, 0.0
    for label, ctx in BATTERY:
        rng = np.random.default_rng(404)
        rangefn = full_range_function(ctx)
        n = ctx.group.size
        generators = principal_decomposition(ctx, np.eye(n, dtype=complex))
        frame = translate_parseval_frame(ctx, generators)
        for _ in range(3):
            w = synthesize_operator(ctx, rand_field(rng, ctx, rangefn), rangefn)
            u = w.conj().T @ w  # positive by construction
            field = extract_range_operator(ctx, u, rangefn)
            report = hs_trace_report(*summaries(ctx, u, field, rangefn, frame))
            assert "trace" not in report.skipped
            routes = dict(report.values["hs_squared"])
            q, _ = np.linalg.qr(rand_signal(rng, n * n).reshape(n, n))
            routes["random_basis"] = float(
                sum(np.linalg.norm(u @ q[:, j]) ** 2 for j in range(n))
            )
            vals = list(routes.values())
            scale = max(1.0, *vals)
            worst_hs = max(worst_hs, (max(vals) - min(vals)) / scale)
            tr = list(report.values["trace"].values())
            worst_tr = max(worst_tr, (max(tr) - min(tr)) / max(1.0, *tr))
    _verdict(
        "Hilbert-Schmidt and trace route agreement",
        worst_hs <= 1e-8 and worst_tr <= 1e-8,
        f"hs gap {worst_hs:.2e}, trace gap {worst_tr:.2e}",
    )


def _unitary_fiber_field(rng, ctx, rangefn):
    mats = []
    for basis in rangefn.bases:
        d = basis.shape[1]
        if d:
            q, _ = np.linalg.qr(rand_signal(rng, ctx.n_c * d).reshape(ctx.n_c, d))
            mats.append(q[:, :d] @ basis.conj().T)
        else:
            mats.append(np.zeros((ctx.n_c, ctx.n_c), dtype=complex))
    return RangeOperatorField(tuple(mats))


def _hermitian_fiber_field(rng, ctx, rangefn, rank=None):
    mats = []
    for basis in rangefn.bases:
        d = basis.shape[1]
        if d:
            r = d if rank is None else min(rank, d)
            half = rand_signal(rng, d * r).reshape(d, r)
            h = half @ half.conj().T
            mats.append(basis @ h @ basis.conj().T)
        else:
            mats.append(np.zeros((ctx.n_c, ctx.n_c), dtype=complex))
    return RangeOperatorField(tuple(mats))


def test_structural_biconditionals_and_rank():
    # isometry/self-adjointness verdicts agree between operator and fibers on
    # 20 constructed positive and 20 negative cases per fixture; restricted
    # rank always equals the sum of fiber ranks
    cases = 0
    failures = 0
    positives_seen = {"isometry": 0, "selfadjoint": 0}
    for label, ctx in BATTERY:
        rng = np.random.default_rng(505)
        rangefn = full_range_function(ctx)
        fields = []
        for i in range(20):  # positive cases: 10 unitary, 10 hermitian fields
            if i % 2 == 0:
                fields.append(("isometry", _unitary_fiber_field(rng, ctx, rangefn)))
            else:
                fields.append(("selfadjoint", _hermitian_fiber_field(rng, ctx, rangefn)))
        for i in range(20):  # negative cases, some of them rank deficient
            rank = 1 if (i % 4 == 0 and ctx.n_c > 1) else None
            if rank:
                fields.append((None, _hermitian_fiber_field(rng, ctx, rangefn, rank=rank)))
            else:
                fields.append((None, rand_field(rng, ctx, rangefn)))
        for kind, field_in in fields:
            u = synthesize_operator(ctx, field_in, rangefn)
            field = extract_range_operator(ctx, u, rangefn)
            report = structural_flags(*summaries(ctx, u, field, rangefn))
            cases += 1
            if not report.passed:
                failures += 1
            if kind == "isometry" and report.verdicts["isometry_operator"]:
                positives_seen["isometry"] += 1
            if kind == "selfadjoint" and report.verdicts["selfadjoint_operator"]:
                positives_seen["selfadjoint"] += 1
    constructed_ok = (
        positives_seen["isometry"] == 10 * len(BATTERY)
        and positives_seen["selfadjoint"] == 10 * len(BATTERY)
    )
    _verdict(
        "structural biconditionals and rank additivity",
        failures == 0 and constructed_ok,
        f"{cases} cases, {failures} disagreements",
    )


def test_invariant_space_machinery():
    # range-function round trip reproduces projections; principal generators
    # have unit-or-zero fibers, mutually orthogonal components, and the scaled
    # translate frame is tight on the space for 50 random signals
    worst_proj, worst_fiber, worst_ortho, worst_tight = 0.0, 0.0, 0.0, 0.0
    for label, ctx in BATTERY:
        rng = np.random.default_rng(606)
        n = ctx.group.size
        gen_sets = [
            [delta(ctx.group, ctx.group.elements()[0])],
            [rand_signal(rng, n), rand_signal(rng, n)],
        ]
        for gens in gen_sets:
            rangefn = range_function(ctx, gens)
            basis = space_from_range(ctx, rangefn)
            redone = range_function(ctx, [basis[:, j] for j in range(basis.shape[1])])
            for b1, b2 in zip(rangefn.bases, redone.bases):
                gap = np.abs(b1 @ b1.conj().T - b2 @ b2.conj().T).max()
                worst_proj = max(worst_proj, float(gap))

            generators = principal_decomposition(ctx, basis)
            for phi in generators:
                norms = np.linalg.norm(zak(ctx, phi), axis=1)
                dev = np.minimum(norms, np.abs(norms - 1.0))
                worst_fiber = max(worst_fiber, float(dev.max()))
            for m in range(len(generators)):
                for nn in range(m + 1, len(generators)):
                    for s in ctx.gamma.elements:
                        ip = np.vdot(
                            translate(ctx.group, generators[nn], s), generators[m]
                        )
                        worst_ortho = max(worst_ortho, abs(ip))

            frame = translate_parseval_frame(ctx, generators)
            proj = basis @ basis.conj().T
            for _ in range(50):
                f = rand_signal(rng, n)
                total = sum(abs(np.vdot(y, f)) ** 2 for y in frame)
                worst_tight = max(
                    worst_tight, abs(total - np.linalg.norm(proj @ f) ** 2)
                )
    ok = (
        worst_proj <= 1e-9
        and worst_fiber <= 1e-9
        and worst_ortho <= 1e-9
        and worst_tight <= 1e-9
    )
    _verdict(
        "invariant space machinery",
        ok,
        f"roundtrip {worst_proj:.2e}, fibers {worst_fiber:.2e}, "
        f"orthogonality {worst_ortho:.2e}, tightness {worst_tight:.2e}",
    )


def test_cli_contract(tmp_path, capsys):
    # the difference-operator demo emits the four expected fiber symbols and
    # exits 0; malformed inputs exit 2 without raising
    code = main(["demo-diffop", "8", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    by_parts = lambda z: (round(z.real, 6), round(z.imag, 6))
    symbols = sorted((complex(re, im) for re, im in report["fiber_symbols"]), key=by_parts)
    expected = sorted([0.0 + 0j, 1 - 1j, 2.0 + 0j, 1 + 1j], key=by_parts)
    symbol_err = max(abs(a - b) for a, b in zip(symbols, expected))
    ok_demo = code == 0 and symbol_err <= 1e-10

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"orders": [4], "gamma_generators": [[2]]}))
    wrong_shape = tmp_path / "op.json"
    wrong_shape.write_text(json.dumps({"matrix": [[[1.0, 0.0]]]}))
    codes = [
        main(["analyze", str(bad), str(wrong_shape)]),
        main(["analyze", str(spec), str(wrong_shape)]),
        main(["demo-diffop", "1", "1"]),
        main(["check", str(tmp_path / "missing.json")]),
        main(["frobnicate"]),
    ]
    capsys.readouterr()
    ok_errors = all(c == 2 for c in codes)
    _verdict(
        "command-line contract",
        ok_demo and ok_errors,
        f"symbol error {symbol_err:.2e}, error exits {codes}",
    )
