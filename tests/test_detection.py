"""The detection matrix: which gates catch each corruption of an honest (U, field) pair.

Every corruption is applied to the field of a random commuting operator on
every battery context, or, in the last row, to the operator. The comparison
reports read only spectra, Frobenius norms and traces, so they cannot tell
which fiber carries which block; the field identity reads the blocks against
U itself and catches every corruption that changes the pair.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from zakfiber import (
    check_field_identity,
    check_translation_preserving,
    fiber_context,
    hs_trace_report,
    make_group,
    norm_identity_report,
    solve_range_field,
    structural_flags,
    subgroup_from_generators,
    translation_matrix,
)
from zakfiber import checks, cli, jsonio

from conftest import battery_contexts, rand_signal, rand_tp_operator, summaries

README = Path(__file__).resolve().parents[1] / "README.md"
EQUIVALENT = "equivalent"
PROPER, TRIVIAL, WHOLE = "proper Gamma", "Gamma trivial", "Gamma = G"


def context_class(ctx):
    """Proper (|Omega|, |C| > 1), trivial (one fiber) or the whole group (|C| = 1)."""
    return TRIVIAL if ctx.n_omega == 1 else WHOLE if ctx.n_c == 1 else PROPER


def unitary(rng, k):
    q, _ = np.linalg.qr(rand_signal(rng, k * k).reshape(k, k))
    return q


def polar(field):
    """(R^H R)^(1/2) on each fiber: R's singular values, HS norm and rank, but positive."""
    values, vectors = np.linalg.eigh(field.conj().swapaxes(1, 2) @ field)
    return (vectors * np.sqrt(np.clip(values, 0.0, None))[:, None, :]) @ vectors.conj().swapaxes(1, 2)


def rotated(rng, u):
    """V U V^H for V = exp(1e-3 i H), H a random Hermitian matrix: a small
    perturbation that commutes with no translation and keeps every unitary
    invariant of U."""
    n = len(u)
    h = rand_signal(rng, n * n).reshape(n, n)
    values, vectors = np.linalg.eigh(h + h.conj().T)
    v = (vectors * np.exp(1e-3j * values)) @ vectors.conj().T
    return v @ u @ v.conj().T


def corruptions(rng, ctx, u, field):
    """Each corruption's ``(operator, field)``; "one fiber" is the fiber of largest norm."""
    big = int(np.argmax(np.linalg.norm(field, 2, axis=(1, 2))))
    q = unitary(rng, ctx.n_c)

    def at_big(fn):
        out = field.copy()
        out[big] = fn(out[big])
        return out

    return {
        "roll over w": (u, np.roll(field, 1, axis=0)),
        "transpose every fiber": (u, field.swapaxes(1, 2)),
        "conjugate one fiber by a unitary": (u, at_big(lambda m: q @ m @ q.conj().T)),
        "scale one fiber by 2": (u, at_big(lambda m: 2 * m)),
        "zero one fiber": (u, at_big(np.zeros_like)),
        "conj R": (u, field.conj()),
        "R^H": (u, field.conj().swapaxes(1, 2)),
        "polar factor (R^H R)^(1/2)": (u, polar(field)),
        "V U V^H, V = exp(1e-3 i H)": (rotated(rng, u), field),
    }


def failing_gates(ctx, u, field):
    """The names of the gates that fail on the pair, every comparison read directly."""
    op, fib = summaries(ctx, u, field)
    gates = {
        "translation_preserving": check_translation_preserving(ctx, u),
        "field_identity": check_field_identity(ctx, u, field),
    }
    for report in (norm_identity_report(op, fib), hs_trace_report(op, fib), structural_flags(op, fib)):
        gates.update(report.verdicts)
    return {name for name, verdict in gates.items() if not verdict}


IDENTITY = {"field_identity"}
VALUES = {"norm_identity", "hs_agree", "trace_agree"}
# corruption: the gates that catch it in each class of context, or EQUIVALENT
# where it leaves the pair unchanged (no second fiber to roll, 1 x 1 fibers)
DETECTION = {
    "roll over w": {PROPER: IDENTITY, TRIVIAL: EQUIVALENT, WHOLE: IDENTITY},
    "transpose every fiber": {PROPER: IDENTITY, TRIVIAL: IDENTITY, WHOLE: EQUIVALENT},
    "conjugate one fiber by a unitary": {PROPER: IDENTITY, TRIVIAL: IDENTITY, WHOLE: EQUIVALENT},
    "scale one fiber by 2": dict.fromkeys((PROPER, TRIVIAL, WHOLE), IDENTITY | VALUES),
    "zero one fiber": {
        PROPER: IDENTITY | VALUES | {"rank_agree"},
        # the one fiber is the whole field, and 0 is self-adjoint and positive
        TRIVIAL: IDENTITY | VALUES | {"rank_agree", "selfadjoint_agree", "positive_agree"},
        WHOLE: IDENTITY | VALUES | {"rank_agree"},
    },
    "conj R": dict.fromkeys((PROPER, TRIVIAL, WHOLE), IDENTITY | {"trace_agree"}),
    "R^H": dict.fromkeys((PROPER, TRIVIAL, WHOLE), IDENTITY | {"trace_agree"}),
    "polar factor (R^H R)^(1/2)": dict.fromkeys(
        (PROPER, TRIVIAL, WHOLE), IDENTITY | {"trace_agree", "selfadjoint_agree", "positive_agree"}
    ),
    # with Gamma trivial every operator commutes: V U V^H is another
    # commuting operator, whose field is not U's
    "V U V^H, V = exp(1e-3 i H)": {
        PROPER: IDENTITY | {"translation_preserving"},
        TRIVIAL: IDENTITY,
        WHOLE: IDENTITY | {"translation_preserving"},
    },
}


def battery_pairs():
    """``(label, ctx, rng, u, field)`` for the honest pair on each battery context."""
    for label, ctx in battery_contexts():
        rng = np.random.default_rng(7)
        u = rand_tp_operator(rng, ctx)
        yield label, ctx, rng, u, solve_range_field(ctx, u)


def test_the_detection_matrix():
    seen = {name: {} for name in DETECTION}
    for label, ctx, rng, u, field in battery_pairs():
        assert failing_gates(ctx, u, field) == set(), label
        for name, (bad_u, bad_field) in corruptions(rng, ctx, u, field).items():
            unchanged = np.array_equal(bad_u, u) and np.abs(bad_field - field).max() <= 1e-12 * np.abs(field).max()
            found = EQUIVALENT if unchanged else failing_gates(ctx, bad_u, bad_field)
            seen[name].setdefault(context_class(ctx), []).append(found)
            assert found == DETECTION[name][context_class(ctx)], (name, label)
    # every class of context is met: 13 proper, 5 trivial and 5 whole-group contexts
    assert {name: {k: len(v) for k, v in found.items()} for name, found in seen.items()} == dict.fromkeys(
        DETECTION, {PROPER: 13, TRIVIAL: 5, WHOLE: 5}
    )


def table_rows():
    """The README's detection table, one line per corruption."""
    for name, classes in DETECTION.items():
        cells = [caught if caught == EQUIVALENT else ", ".join(f"`{g}`" for g in sorted(caught)) for caught in (
            classes[PROPER], classes[TRIVIAL], classes[WHOLE]
        )]
        yield f"| {name} | " + " | ".join(cells) + " |"


def test_the_readme_prints_the_detection_table():
    text = README.read_text(encoding="utf-8")
    missing = [row for row in table_rows() if row not in text]
    assert not missing, missing


@pytest.mark.parametrize("name", DETECTION)
def test_each_corruption_stops_analyze_at_the_field_identity(tmp_path, capsys, monkeypatch, name):
    # the corrupted field comes out of a wrapped solve, so only the identity,
    # computed in the pipeline on u and the field returned, stands between it
    # and the comparisons; the commutation gate is bypassed for the rotated U
    for label, ctx, rng, u, field in battery_pairs():
        if ctx.n_c == 1 or DETECTION[name][context_class(ctx)] == EQUIVALENT:
            continue
        bad_u, bad_field = corruptions(rng, ctx, u, field)[name]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(jsonio.group_spec_to_json(ctx.group, ctx.gamma)))
        op = tmp_path / "u.json"
        op.write_text(json.dumps({"matrix": jsonio.matrix_to_json(bad_u)}, default=np.ndarray.tolist))
        monkeypatch.setattr(cli, "solve_range_field", lambda *args: bad_field)
        if bad_u is not u:
            monkeypatch.setattr(cli, "check_translation_preserving", lambda c, x, tol: checks.gate(0.0, tol, 1.0))
        assert cli.main(["analyze", str(spec), str(op), "--json"]) == 1, label
        report = json.loads(capsys.readouterr().out)
        monkeypatch.undo()
        identity = report["field_identity"]
        assert report["translation_preserving"]["passed"] and identity["passed"] is False, label
        assert identity["residual"] > 1e-6 * identity["scale"] and 0 <= identity["witness"] < ctx.n_omega, label
        assert "range_field" not in report and "norm_identity" not in report, label


def hermitian_z8():
    """Z8/<2> and I + T_2/2 + T_6/2 - 0.9 T_4, Hermitian and indefinite."""
    g = make_group([8])
    t = lambda k: translation_matrix(g, (k,))
    return fiber_context(g, subgroup_from_generators(g, [(2,)])), np.eye(8) + t(2) / 2 + t(6) / 2 - 0.9 * t(4)


def failing_comparisons(ctx, u, field):
    """The failing verdicts of the three comparison reports, read directly."""
    op, fib = summaries(ctx, u, field)
    reports = {
        "norm_identity": norm_identity_report(op, fib),
        "hs_trace": hs_trace_report(op, fib),
        "structural": structural_flags(op, fib),
    }
    return [(c, name) for c, report in reports.items() for name, v in report.verdicts.items() if not v]


def test_positivity_catches_a_polar_factor_field():
    # (R^H R)^(1/2) keeps every fiber's singular values, HS norm, rank and
    # self-adjointness on a Hermitian U, but it is positive where R is not
    ctx, u = hermitian_z8()
    field = solve_range_field(ctx, u)
    assert failing_comparisons(ctx, u, field) == [] and check_field_identity(ctx, u, field)
    assert not structural_flags(*summaries(ctx, u, field)).values["positive_operator"]
    bad = polar(field)
    assert structural_flags(*summaries(ctx, u, bad)).values["positive_fibers"]
    assert failing_comparisons(ctx, u, bad) == [("hs_trace", "trace_agree"), ("structural", "positive_agree")]
    assert not check_field_identity(ctx, u, bad)


@pytest.mark.parametrize(
    "corrupt",
    [np.conj, lambda field: field.conj().swapaxes(1, 2)],
    ids=["conjugated", "adjoint"],
)
def test_trace_catches_a_conjugated_or_adjoint_field(corrupt):
    # conj R and R^H keep every fiber's singular values, HS norm and
    # self-adjointness, but conjugate its trace: on a commuting U that is
    # not self-adjoint and has a non-real trace, only the trace routes see it
    g = make_group([8])
    ctx = fiber_context(g, subgroup_from_generators(g, [(2,)]))
    u = (1 + 0.5j) * np.eye(8) + 0.5 * translation_matrix(g, (2,)) + 0.3j * translation_matrix(g, (1,))
    field = solve_range_field(ctx, u)
    assert failing_comparisons(ctx, u, field) == [] and check_field_identity(ctx, u, field)
    assert failing_comparisons(ctx, u, corrupt(field)) == [("hs_trace", "trace_agree")]
    assert not check_field_identity(ctx, u, corrupt(field))


def near_commuting(n, step, eta, base):
    """U + diag(d) on Z_n, U commuting with translation by step: a dense
    random U[i, j] = B[i mod step, (j - i) mod n], the identity, or the
    difference I - T_step. d is a sinusoid whose steps along step are
    eta max|U|, so the commutator sits just under COMMUTE."""
    i = np.arange(n)
    if base == "dense":
        b = rand_signal(np.random.default_rng(n + step), step * n).reshape(step, n)
        u = b[(i % step)[:, None], (i[None, :] - i[:, None]) % n]
    else:
        u = np.eye(n) - (base == "shift") * np.roll(np.eye(n), step, axis=0)
    amplitude = eta * np.abs(u).max() / (2 * np.sin(np.pi * step / n))
    return u + np.diag(amplitude * np.cos(2 * np.pi * i / n))


@functools.cache
def cyclic_context(n, step):
    g = make_group([n])
    return fiber_context(g, subgroup_from_generators(g, [(step,)]))


EDGE = [
    (n, step, eta, base)
    for n, root in ((256, 16), (1024, 32))
    for step in (root, 1)
    for eta in (0.3e-10, 0.9e-10)
    for base in ("dense", "identity", "shift")
]


@pytest.mark.parametrize("n, step, eta, base", EDGE, ids=[f"Z{n}-step{s}-eta{e:g}-{b}" for n, s, e, b in EDGE])
def test_the_commutation_edge_passes_the_field_identity(n, step, eta, base):
    # the closed form reads U's rows at C only, so an operator that commutes
    # only to within COMMUTE leaves a gap of about the drift of its diagonal
    # times max|zak(f)|, whatever U's density; against the scale
    # sqrt(|G|) max|U| max|zak(f)| it measured at most 5.8e-10 on every base
    # (Z_1024, Gamma = G, eta = 0.9e-10), against IDENTITY = 1e-8
    ctx = cyclic_context(n, step)
    u = near_commuting(n, step, eta, base)
    commute = check_translation_preserving(ctx, u)
    assert commute and commute.residual >= 0.99 * eta * commute.scale
    identity = check_field_identity(ctx, u, solve_range_field(ctx, u))
    assert identity and identity.residual <= 1e-9 * identity.scale
