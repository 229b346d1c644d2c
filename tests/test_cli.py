"""Exit-code contract, report content and determinism of the command line."""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zakfiber import cli, fiber_context, jsonio, make_group, subgroup_from_generators
from zakfiber.cli import main

from conftest import full_range, load_script, rand_field, rand_tp_operator

# on Z4 with Gamma = <2>, the group of the f1_spec fixture
MALFORMED_OPERATORS = load_script("tools/corpus.py").malformed_operators(4)


@pytest.fixture
def f1_spec(tmp_path):
    path = tmp_path / "f1.json"
    path.write_text(json.dumps({"orders": [4], "gamma_generators": [[2]]}))
    return str(path)


def write_operator(tmp_path, name, matrix):
    path = tmp_path / name
    path.write_text(json.dumps({"matrix": jsonio.matrix_to_json(matrix)}, default=np.ndarray.tolist))
    return str(path)


def read_report(capsys):
    return json.loads(capsys.readouterr().out)


class TestAnalyze:
    def test_identity_passes(self, tmp_path, f1_spec, capsys):
        op = write_operator(tmp_path, "ident.json", np.eye(4))
        code = main(["analyze", f1_spec, op, "--json"])
        report = read_report(capsys)
        assert code == 0
        assert report["passed"] is True
        assert report["norm_identity"]["values"]["operator_norm"] == pytest.approx(1.0)

    def test_multiplier_fails_with_witness(self, tmp_path, f1_spec, capsys):
        op = write_operator(tmp_path, "diag.json", np.diag([1.0, 0.0, 0.0, 0.0]))
        code = main(["analyze", f1_spec, op, "--json"])
        report = read_report(capsys)
        assert code == 1
        assert report["translation_preserving"]["passed"] is False
        # the witness is the failing probe of Gamma and the largest commutator entry
        assert report["translation_preserving"]["witness"][0] == [2]

    def test_nan_field_fails_the_identity(self, tmp_path, f1_spec, capsys, monkeypatch):
        def nan_solve(*args):
            field = solve(*args)
            field[1, 0, 1] = np.nan
            return field

        solve = cli.solve_range_field
        monkeypatch.setattr(cli, "solve_range_field", nan_solve)
        op = write_operator(tmp_path, "id.json", np.eye(4))
        assert main(["analyze", f1_spec, op, "--json"]) == 1
        identity = read_report(capsys)["field_identity"]
        assert identity["passed"] is False and math.isnan(identity["residual"]) and identity["witness"] == 1

    def test_shape_mismatch_is_input_error(self, tmp_path, f1_spec):
        op = write_operator(tmp_path, "small.json", np.eye(3))
        assert main(["analyze", f1_spec, op]) == 2

    def test_malformed_json_is_input_error(self, tmp_path, f1_spec):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", str(bad), str(bad)]) == 2

    def test_missing_file_is_input_error(self, f1_spec):
        assert main(["analyze", f1_spec, "/nonexistent/op.json"]) == 2

    def test_deeply_nested_operator_is_input_error(self, tmp_path, f1_spec, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, on deep nesting
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["analyze", f1_spec, str(deep)]) == 2
        assert "deep.json" in capsys.readouterr().err

    def test_null_matrix_entry_is_input_error(self, tmp_path, f1_spec):
        op = tmp_path / "null.json"
        op.write_text(json.dumps({"matrix": [[[None, 0.0]] * 4] * 4}))
        assert main(["analyze", f1_spec, str(op)]) == 2

    def test_boolean_matrix_entry_is_input_error(self, tmp_path, f1_spec, capsys):
        # true would otherwise be read as 1.0, and the all-ones matrix commutes
        op = tmp_path / "bool.json"
        op.write_text(json.dumps({"matrix": [[[True, 0.0]] * 4] * 4}))
        assert main(["analyze", f1_spec, str(op)]) == 2
        assert "pairs of numbers" in capsys.readouterr().err

    def test_the_malformed_operators_break_a_passing_file(self, tmp_path, f1_spec):
        op = tmp_path / "ones.json"
        op.write_text(json.dumps({"matrix": [[[1.0, 0.0]] * 4] * 4}))
        assert main(["analyze", f1_spec, str(op)]) == 0

    @pytest.mark.parametrize("name", sorted(MALFORMED_OPERATORS))
    def test_malformed_operator_is_input_error(self, tmp_path, f1_spec, capsys, name):
        op = tmp_path / f"op-{name}.json"
        op.write_bytes(MALFORMED_OPERATORS[name])
        assert main(["analyze", f1_spec, str(op)]) == 2
        err = capsys.readouterr().err
        assert str(op) in err and "Traceback" not in err, err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, value):
        # a non-commuting operator fails at the default tolerances; an
        # infinite or NaN tolerance must not turn that into a pass
        spec = tmp_path / "z8.json"
        spec.write_text(json.dumps({"orders": [8], "gamma_generators": [[2]]}))
        rng = np.random.default_rng(3)
        op = write_operator(tmp_path, "rand.json", rng.standard_normal((8, 8)))
        assert main(["analyze", str(spec), op]) == 1
        assert main(["analyze", str(spec), op, "--tol", value]) == 2

    @pytest.mark.parametrize("flag", ["--tol-abs", "--tol-rel"])
    def test_split_tolerance_flags_are_gone(self, f1_spec, flag, capsys):
        # one --tol overrides every gate tolerance; the old pair is a usage error
        assert main(["check", f1_spec, flag, "1e-20"]) == 2
        assert flag in capsys.readouterr().err

    def test_text_summary_stays_small(self, tmp_path, capsys):
        # |C| = 32: the range field alone is ~100 kB of JSON
        spec = tmp_path / "z64.json"
        spec.write_text(json.dumps({"orders": [64], "gamma_generators": [[32]]}))
        op = write_operator(tmp_path, "ident.json", np.eye(64))
        assert main(["analyze", str(spec), op]) == 0
        out = capsys.readouterr().out
        assert len(out) < 4000
        assert max(len(line) for line in out.splitlines()) < 200


class TestDemoDiffop:
    def test_z8_step2_symbols(self, capsys):
        # compared omega by omega: a sort by (re, im) would put a correct
        # 0.9999999999999999+1j before 1-1j
        code = main(["demo-diffop", "8", "2", "--json"])
        report = read_report(capsys)
        assert code == 0
        symbols = [complex(re, im) for re, im in report["fiber_symbols"]]
        expected = [complex(re, im) for re, im in report["expected_symbols"]]
        assert len(symbols) == len(expected) == 4
        for got, want in zip(symbols, expected):
            assert abs(got - want) <= 1e-10
        assert sorted(expected, key=lambda z: (round(z.real, 9), round(z.imag, 9))) == pytest.approx(
            [0.0, 1 - 1j, 1 + 1j, 2.0], abs=1e-12
        )
        assert report["operator_norm"] == pytest.approx(2.0, abs=1e-10)

    def test_text_summary_prints_arrays_as_lists(self, capsys):
        # per-fiber values print as Python lists, and the (|Omega|, 2) symbol
        # arrays as entry counts, never as numpy reprs
        assert main(["demo-diffop", "8", "2", "--json"]) == 0
        report = read_report(capsys)
        norms = report["norm_identity"]["values"]["fiber_norms"]
        terms = report["hs_trace"]["values"]["hs_fiber_terms"]
        assert norms == pytest.approx([0.0, 2**0.5, 2.0, 2**0.5], abs=1e-12)
        assert terms == pytest.approx([0.0, 4.0, 8.0, 4.0], abs=1e-12)
        assert main(["demo-diffop", "8", "2"]) == 0
        lines = {line.strip() for line in capsys.readouterr().out.splitlines()}
        assert {
            f"fiber_norms: {norms}",
            f"hs_fiber_terms: {terms}",
            "fiber_ranks: [0, 2, 2, 2]",
            "fiber_symbols: [4 entries]",
            "expected_symbols: [4 entries]",
        } <= lines

    def test_z4_step2_symbols(self, capsys):
        code = main(["demo-diffop", "4", "2", "--json"])
        report = read_report(capsys)
        assert code == 0
        symbols = {round(complex(re, im).real, 9) for re, im in report["fiber_symbols"]}
        assert symbols == {0.0, 2.0}

    def test_step_equal_modulus_gives_zero_operator(self, capsys):
        code = main(["demo-diffop", "6", "6", "--json"])
        report = read_report(capsys)
        assert code == 0
        assert all(abs(complex(re, im)) <= 1e-12 for re, im in report["fiber_symbols"])
        assert report["operator_norm"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("modulus, step", [(8, 2), (128, 1), (256, 4)])
    def test_no_field_fails_both_symbol_gates(self, capsys, modulus, step):
        # the field identity fails at this tolerance, so there is no field: neither
        # gate may pass on no fibers (scalar_fibers once passed with residual 0)
        code = main(["demo-diffop", str(modulus), str(step), "--tol", "1e-20", "--json"])
        report = read_report(capsys)
        assert code == 1 and not report["field_identity"]["passed"]
        assert report["fiber_symbols"] == []
        for gate in ("symbols", "scalar_fibers"):
            assert report[gate]["passed"] is False and report[gate]["residual"] == math.inf

    def test_small_modulus_is_input_error(self):
        assert main(["demo-diffop", "1", "1"]) == 2

    def test_negative_step_is_input_error(self):
        assert main(["demo-diffop", "8", "-3"]) == 2

    def test_oversized_modulus_is_input_error(self, capsys):
        # 2**40 would fail fast in numpy's allocator if the limit were missing
        assert main(["demo-diffop", str(2**40), "1"]) == 2
        assert "limit" in capsys.readouterr().err


class TestCheck:
    @pytest.mark.parametrize(
        "spec",
        [
            {"orders": "8"},
            {"orders": [8], "gamma_generators": [[2.9]]},
            {"orders": [8], "gamma_generators": [None]},
        ],
        ids=["string-orders", "float-generator", "null-generator"],
    )
    def test_non_integer_group_spec_is_input_error(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["check", str(path)]) == 2

    @pytest.mark.parametrize("orders", [[2**40], [2**20, 2**20], [jsonio.MAX_GROUP_ORDER, 2]])
    def test_oversized_group_is_input_error(self, tmp_path, capsys, orders):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"orders": orders}))
        assert main(["check", str(path)]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_deeply_nested_group_spec_is_input_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["check", str(deep)]) == 2
        assert "deep.json" in capsys.readouterr().err

    def test_many_trivial_factors_are_input_error(self, tmp_path, capsys):
        # |G| = 1, but the work before any allocation grows with the factor count
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"orders": [1] * 2000}))
        start = time.perf_counter()
        assert main(["check", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "cyclic factors" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            {"orders": [12], "gamma_generators": [[3]]},
            {"orders": [2, 4], "gamma_generators": [[1, 2]]},
            {"orders": [6], "gamma_generators": [[1]]},
            {"orders": [5]},
        ],
        ids=["z12-index3", "z2xz4", "gamma-is-g", "trivial-gamma"],
    )
    def test_multiplication_preserving_suite(self, tmp_path, capsys, spec):
        # the fibered form Z U Z* of a synthesized operator is block diagonal
        # over omega and commutes with every character of Gamma
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["check", str(path), "--json"]) == 0
        entry = read_report(capsys)["suites"]["multiplication_preserving"]
        assert entry["passed"] is True and entry["residual"] < 1e-12
        assert entry["tolerance"] == 1e-10

    def test_f1_passes(self, f1_spec, capsys):
        code = main(["check", f1_spec, "--json"])
        report = read_report(capsys)
        assert code == 0
        assert report["suites"]["zak_isometry"]["residual"] < 1e-10

    def test_z12_with_index_three_subgroup(self, tmp_path, capsys):
        spec = tmp_path / "z12.json"
        spec.write_text(json.dumps({"orders": [12], "gamma_generators": [[3]]}))
        assert main(["check", str(spec), "--json"]) == 0
        assert read_report(capsys)["passed"] is True

    def test_intertwining_probes_the_generators(self, monkeypatch):
        # Gamma = Z_8 has one generator: one translated zak, not eight
        g = make_group([8])
        ctx = fiber_context(g, subgroup_from_generators(g, [(1,)]))
        probes = []
        shift = cli.translate
        monkeypatch.setattr(cli, "translate", lambda group, f, t: probes.append(t) or shift(group, f, t))
        assert cli._check_suites(ctx, cli.RunConfig())["zak_intertwining"]["passed"]
        assert probes == [(1,)]

    @pytest.mark.parametrize(
        "spec",
        [
            {"orders": [8], "gamma_generators": [[1]]},
            {"orders": [8], "gamma_generators": [[2]]},
            {"orders": [4, 6], "gamma_generators": [[1, 0], [0, 2]]},
        ],
        ids=["z8-gamma-is-g", "z8-index2", "z4xz6"],
    )
    def test_character_table_catches_a_conjugated_phase_table(self, tmp_path, capsys, monkeypatch, spec):
        # conjugating the transform's phase table keeps Z unitary, and every
        # suite that reads the table on both of its sides still passes; only
        # the characters computed from their definition see the sign: the
        # character table, and the field bijection, whose closed-form field
        # reads them and fails its identity under the conjugated transform
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["check", str(path), "--json"]) == 0
        honest = read_report(capsys)["suites"]["character_table"]
        assert honest["passed"] is True and honest["residual"] < 1e-12 and honest["tolerance"] == 1e-10

        def conjugated(g, gamma):
            ctx = fiber_context(g, gamma)
            object.__setattr__(ctx, "_phase", ctx._phase.conj())
            return ctx

        monkeypatch.setattr(cli, "fiber_context", conjugated)
        assert main(["check", str(path), "--json"]) == 1
        suites = read_report(capsys)["suites"]
        assert [name for name, entry in suites.items() if not entry["passed"]] == ["character_table", "field_bijection"]
        assert suites["character_table"]["residual"] == pytest.approx(2.0)

    def test_field_bijection_fails_closed_when_extraction_raises(self, tmp_path, capsys, monkeypatch):
        # a synthesis that does not commute has no field to extract: the suite
        # fails with residual Infinity, the other suites still run, and the
        # report is written
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"orders": [8], "gamma_generators": [[2]]}))
        synthesize = cli.synthesize_operator

        def broken(*args):
            u = synthesize(*args)
            u[0, 1] += 1.0
            return u

        monkeypatch.setattr(cli, "synthesize_operator", broken)
        assert main(["check", str(path), "--json"]) == 1
        suites = read_report(capsys)["suites"]
        assert suites["field_bijection"]["passed"] is False and suites["field_bijection"]["residual"] == math.inf
        # the fibered form of the broken operator is not block diagonal either
        failed = {name for name, entry in suites.items() if not entry["passed"]}
        assert failed == {"field_bijection", "multiplication_preserving"} and len(suites) == 8

    def test_tolerance_gate_below_machine_epsilon(self, f1_spec):
        # float limits make every suite fail at 1e-20
        assert main(["check", f1_spec, "--tol", "1e-20"]) == 1

    def test_nonpositive_tolerance_is_usage_error(self, f1_spec):
        assert main(["check", f1_spec, "--tol", "-1"]) == 2


class TestContract:
    def test_usage_error_exit_code(self):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once(self, f1_spec):
        assert cli.build_parser() is cli.build_parser()
        assert main(["check", f1_spec]) == 0
        assert main(["check", f1_spec, "--tol", "1e-20"]) == 1
        assert main(["check", f1_spec]) == 0

    def test_commands_are_looked_up_per_call(self, f1_spec, monkeypatch):
        monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
        assert main(["check", f1_spec]) == 7

    def test_module_entry_point_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "zakfiber.cli"], env=env, capture_output=True, timeout=60)
        assert done.returncode == 2

    def test_reports_are_byte_deterministic(self, tmp_path, f1_spec):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["check", f1_spec, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["check", f1_spec, "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_sampled_residuals(self, tmp_path, f1_spec):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["check", f1_spec, "--seed", "1", "--out", str(out1)])
        main(["check", f1_spec, "--seed", "2", "--out", str(out2)])
        r1 = json.loads(out1.read_text())["suites"]["zak_isometry"]["residual"]
        r2 = json.loads(out2.read_text())["suites"]["zak_isometry"]["residual"]
        assert r1 != r2

    def test_analyze_draws_the_identity_probes_from_the_seed(self, tmp_path, f1_spec):
        # the same seed gives the same bytes; another seed other probes, so
        # another residual, and the same verdicts
        u = rand_tp_operator(np.random.default_rng(8), cli._context_from_spec(f1_spec))
        op = write_operator(tmp_path, "u.json", u)
        reports = []
        for seed in ("1", "1", "2"):
            out = tmp_path / f"r{len(reports)}.json"
            assert main(["analyze", f1_spec, op, "--seed", seed, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] != reports[2]
        one, two = (json.loads(report)["field_identity"] for report in reports[1:])
        assert one["passed"] and two["passed"] and one["residual"] != two["residual"]

    def test_negative_seed_is_usage_error(self, tmp_path, f1_spec, capsys):
        # unchecked, analyze and demo-diffop wrote it into the report, and
        # check failed in numpy with a message that did not name the flag
        op = write_operator(tmp_path, "ident.json", np.eye(4))
        for argv in (["analyze", f1_spec, op], ["demo-diffop", "8", "2"], ["check", f1_spec]):
            assert main([*argv, "--seed", "-1"]) == 2, argv
            assert "--seed must be non-negative" in capsys.readouterr().err, argv

    def test_out_file_matches_json_stdout(self, tmp_path, f1_spec, capsys):
        out = tmp_path / "r.json"
        main(["check", f1_spec, "--json", "--out", str(out)])
        printed = capsys.readouterr().out
        assert out.read_text().strip() == printed.strip()


def booleans(report, path=()):
    """Every boolean of a JSON report, by its path."""
    if isinstance(report, bool):
        return {path: report}
    found = {}
    items = report.items() if isinstance(report, dict) else enumerate(report) if isinstance(report, list) else ()
    for key, value in items:
        found.update(booleans(value, (*path, key)))
    return found


class TestBlasThreads:
    def test_verdicts_agree_across_thread_counts(self, tmp_path):
        # a BLAS product split over threads may sum in another order, so the
        # report bytes hold only at a fixed thread count; the verdicts hold
        # across counts, the values to rounding, and the operator's entrywise
        # HS and trace values, which pass through no BLAS product, to the bit
        g = make_group([256])
        ctx = fiber_context(g, subgroup_from_generators(g, [(16,)]))
        w = rand_tp_operator(np.random.default_rng(69), ctx)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"orders": [256], "gamma_generators": [[16]]}))
        op = write_operator(tmp_path, "op.json", w.conj().T @ w)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = []
        for threads in ("1", "2"):
            blas = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads)
            out = tmp_path / f"threads-{threads}.json"
            argv = [sys.executable, "-m", "zakfiber.cli", "analyze", str(spec), op, "--out", str(out)]
            done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": path, **blas}, capture_output=True, timeout=120)
            runs.append((done.returncode, json.loads(out.read_text())))
        (code1, one), (code2, two) = runs
        assert code1 == code2 == 0
        assert booleans(one) == booleans(two)
        hs1, hs2 = one["hs_trace"]["values"], two["hs_trace"]["values"]
        norm = one["norm_identity"]["values"]["operator_norm"]
        assert norm == pytest.approx(two["norm_identity"]["values"]["operator_norm"], rel=1e-12, abs=0)
        for kind in ("hs_squared", "trace"):
            for route in hs1[kind]:
                # a trace is an [re, im] pair, compared as one complex number:
                # its imaginary part is rounding noise on this Hermitian U
                one_value, two_value = np.array(hs1[kind][route]), np.array(hs2[kind][route])
                assert np.linalg.norm(one_value - two_value) <= 1e-12 * np.linalg.norm(one_value), (kind, route)
        # the positivity residual is computed to rounding relative to the
        # operator norm, the scale its gate measures it against
        residual1, residual2 = (run["structural"]["values"]["positive_operator"]["residual"] for run in (one, two))
        assert abs(residual1 - residual2) <= 1e-12 * norm
        assert hs1["hs_squared"]["entrywise"] == hs2["hs_squared"]["entrywise"]
        assert hs1["trace"]["entrywise"] == hs2["trace"]["entrywise"]


class TestStreamedReport:
    def test_analyze_report_matches_the_stdlib_in_both_sinks(self, tmp_path, capsys, monkeypatch):
        # |C| = 64: the range field is written one matrix row at a time
        spec = tmp_path / "z128.json"
        spec.write_text(json.dumps({"orders": [128], "gamma_generators": [[64]]}))
        op = write_operator(tmp_path, "ident.json", np.eye(128))
        reports = []
        encode = jsonio.report_chunks
        monkeypatch.setattr(jsonio, "report_chunks", lambda report: reports.append(report) or encode(report))
        out = tmp_path / "r.json"
        assert main(["analyze", str(spec), op, "--json", "--out", str(out)]) == 0
        (report,) = reports
        assert report["sizes"]["c"] == 64
        expected = json.dumps(report, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out == expected

    def test_emit_holds_no_copy_of_the_field(self, tmp_path):
        # two fibers of |C| = 128; the report text is about 5.6x the field's bytes
        g = make_group([256])
        ctx = fiber_context(g, subgroup_from_generators(g, [(128,)]))
        assert (ctx.n_omega, ctx.n_c) == (2, 128)
        field = rand_field(np.random.default_rng(5), ctx, full_range(ctx))
        field_bytes = field.nbytes
        cfg = cli.RunConfig(json_out=True, out_path=str(tmp_path / "r.json"))
        with open(tmp_path / "stdout.json", "w", encoding="utf-8") as stdout, contextlib.redirect_stdout(stdout):
            tracemalloc.start()
            try:
                cli._emit({"command": "analyze", "range_field": jsonio.field_to_json(field)}, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (tmp_path / "r.json").stat().st_size > 4 * field_bytes
        assert peak < 3 * field_bytes
