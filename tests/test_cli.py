import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optrans
from optrans.cli import (
    load_problem,
    main,
    read_outcome_csv,
    read_prices_csv,
)
from optrans.errors import IllPosed, OptransError, ParseError, SchemaVersionMismatch, ShapeMismatch
from optrans.presets import preset


def write_spec(tmp_path, doc, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestLoadProblem:
    def test_preset_reference(self, tmp_path):
        p = write_spec(
            tmp_path, {"schema_version": 1, "preset": "example_c1", "grid_n": 21}
        )
        pb, meta = load_problem(p)
        assert pb.n_states == 21
        assert meta.id == "example_c1"
        assert pb.states.lo == pytest.approx(np.exp(-1.0))

    def test_inline_tables(self, tmp_path):
        doc = {
            "schema_version": 1,
            "states": [0.0, 0.5, 1.0],
            "actions": [0.0, 0.5, 1.0],
            "prior": [0.25, 0.5, 0.25],
            "V": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]],
            "u": [[0.0, 0.5, 1.0], [-0.5, 0.0, 0.5], [-1.0, -0.5, 0.0]],
        }
        pb, meta = load_problem(write_spec(tmp_path, doc))
        assert meta is None
        from optrans.lp import build_lp, solve_primal

        lp = build_lp(pb)
        assert lp.dims()["mass_variables"] == 9
        out, obj = solve_primal(lp)
        assert obj == pytest.approx(0.5, abs=1e-10)

    def test_missing_prior_names_field(self, tmp_path):
        doc = {
            "schema_version": 1,
            "states": [0.0, 1.0],
            "actions": [0.0, 1.0],
            "V": [[0, 0], [1, 1]],
            "u": [[0, 1], [-1, 0]],
        }
        with pytest.raises(ParseError) as err:
            load_problem(write_spec(tmp_path, doc))
        assert err.value.field == "prior"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("smooth", "false"),  # bool("false") is True: it took the local curvature route
            ("grid_n", 21.9),  # int() truncated it to 21
            ("grid_n", True),  # int() read it as 1
            ("actions_n", True),
        ],
    )
    def test_loose_scalar_names_field(self, tmp_path, field, value):
        doc = INLINE_SPEC if field == "smooth" else {"schema_version": 1, "preset": "example_c1"}
        with pytest.raises(ParseError) as err:
            load_problem(write_spec(tmp_path, {**doc, field: value}))
        assert err.value.field == field

    def test_strict_scalars_still_load(self, tmp_path):
        pb, _ = load_problem(write_spec(tmp_path, {**INLINE_SPEC, "smooth": False}))
        assert pb.smooth is False
        pb, _ = load_problem(write_spec(tmp_path, {"schema_version": 1, "preset": "example_c1", "grid_n": 21.0}))
        assert pb.n_states == 21

    def test_schema_version_mismatch(self, tmp_path):
        with pytest.raises(SchemaVersionMismatch):
            load_problem(write_spec(tmp_path, {"schema_version": 99, "preset": "linear"}))

    def test_shape_mismatch(self, tmp_path):
        doc = {
            "schema_version": 1,
            "states": [0.0, 1.0],
            "actions": [0.0, 0.5, 1.0],
            "prior": [0.5, 0.5],
            "V": [[0, 0], [1, 1]],
            "u": [[0, 1], [-1, 0]],
        }
        with pytest.raises(ShapeMismatch):
            load_problem(write_spec(tmp_path, doc))


class TestCommands:
    def test_solve_writes_bundle(self, tmp_path):
        rc = main(
            [
                "solve",
                "--preset",
                "example_c1",
                "--grid-n",
                "31",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["duality_gap"]) <= 1e-8 * (1 + abs(summary["objective"]))
        rows = read_outcome_csv(tmp_path / "outcome.csv")
        assert sum(m for _, _, m in rows) == pytest.approx(1.0, abs=1e-9)
        ps, qs = read_prices_csv(tmp_path / "prices.csv")
        assert len(ps) == 31 and len(qs) == 31

    def test_check_full_disclosure_regime(self, tmp_path):
        rc = main(
            [
                "check",
                "--preset",
                "contest",
                "--params",
                "xmin=1.0,xmax=2.0",
                "--grid-n",
                "21",
                "--out",
                str(tmp_path),
            ]
        )
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["full_disclosure"]["label"] == "optimal_unique"
        # the pooling-condition check legitimately reports a witness here
        assert rc == 2

    def test_check_exit_zero_when_unwitnessed(self, tmp_path):
        rc = main(
            [
                "check",
                "--preset",
                "example_c1",
                "--grid-n",
                "21",
                "--out",
                str(tmp_path),
            ]
        )
        verdicts = json.loads((tmp_path / "verdicts.json").read_text())
        assert verdicts["full_disclosure"]["label"] == "not_optimal"
        assert rc == 2  # the disclosure counterexample carries a witness

    def test_nad_command(self, tmp_path):
        rc = main(
            ["nad", "--preset", "example_c1", "--grid-n", "41", "--out", str(tmp_path)]
        )
        assert rc == 0
        summary = json.loads((tmp_path / "nad_summary.json").read_text())
        assert summary["y_low"] == pytest.approx(1.0, abs=1e-5)
        text = (tmp_path / "nad.csv").read_text()
        assert text.splitlines()[0] == "y,chi1,chi2,q,rho"

    def test_nad_reports_failed_pooling_condition(self, tmp_path):
        # rayo_segal fails the pooling condition, so there is no pairing to
        # shoot for: exit 2 with the verdict in the summary and no nad.csv
        rc = main(["nad", "--preset", "rayo_segal", "--grid-n", "41", "--out", str(tmp_path)])
        assert rc == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == ["nad_summary.json"]
        summary = json.loads((tmp_path / "nad_summary.json").read_text())
        from optrans.presets import preset
        from optrans.structure import check_nad_condition

        rep = check_nad_condition(preset("rayo_segal", grid_n=41)[0])
        assert rep.label == "fails"
        assert summary["nad_condition"] == {
            "label": "fails",
            "witness": list(rep.witness),
            "route": rep.route,
            "margin": rep.margin,
        }
        assert summary["config"]["command"] == "nad"

    def test_certify_command(self, tmp_path):
        rc = main(
            [
                "certify",
                "--preset",
                "example_c1",
                "--grid-n",
                "101",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "certify.json").read_text())
        assert report["applicable"]
        assert report["max_q_residual"] <= 5e-2
        assert report["max_foc_residual"] <= 5e-2

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["solve", "--preset", "nonesuch", "--out", str(tmp_path)])
        assert rc == 1
        assert "UnknownPreset" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check", "nad", "certify"])
    def test_byte_identical_reruns(self, tmp_path, command):
        a = tmp_path / "a"
        b = tmp_path / "b"
        codes = []
        for out in (a, b):
            codes.append(
                main(
                    [
                        command,
                        "--preset",
                        "contest",
                        "--params",
                        "xmin=0.1,xmax=0.5",
                        "--grid-n",
                        "31",
                        "--out",
                        str(out),
                    ]
                )
            )
        assert codes[0] == codes[1] != 1
        written = sorted(f.name for f in a.iterdir())
        assert written and written == sorted(f.name for f in b.iterdir())
        for name in written:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_simplex_debug_log_leaves_artifacts_unchanged(self, tmp_path, caplog):
        argv = ["solve", "--preset", "contest", "--grid-n", "31", "--out"]
        assert main(argv + [str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.DEBUG, logger="optrans.simplex"):
            assert main(argv + [str(tmp_path / "debug")]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.simplex"]
        assert any(line.startswith("phase 1: ") for line in lines)
        assert any(
            re.fullmatch(
                r"phase 2: \d+ iterations, \d+ pricing passes, \d+ passes over all columns, "
                r"\d+ columns added, \d+ refactors, bland switch (not )?fired",
                line,
            )
            for line in lines
        )
        for name in ("outcome.csv", "prices.csv", "summary.json"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert quiet == (tmp_path / "debug" / name).read_bytes(), name

    def test_lp_debug_log_leaves_artifacts_unchanged(self, tmp_path, caplog):
        # n=81 is sifted from n=41
        argv = ["solve", "--preset", "contest", "--grid-n", "81", "--out"]
        assert main(argv + [str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.DEBUG, logger="optrans.lp"):
            assert main(argv + [str(tmp_path / "debug")]) == 0
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.lp"]
        level = r"n=(\d+): \d+ of \d+ columns to start, \d+ iterations, \d+ in phase 1, objective \S+"
        assert re.fullmatch(rf"outcome LP: {level}(; {level})*", line)
        assert re.findall(r"n=(\d+):", line) == ["41", "81"]
        objectives = [float(v) for v in re.findall(r"objective ([^;]+)", line)]
        summary = json.loads((tmp_path / "debug" / "summary.json").read_text())
        assert objectives[-1] == summary["objective"]
        for name in ("outcome.csv", "prices.csv", "summary.json"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert quiet == (tmp_path / "debug" / name).read_bytes(), name

    def test_objective_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        src = str(Path(optrans.__file__).resolve().parents[1])
        code = "import sys; from optrans.cli import main; sys.exit(main())"
        argv = ["solve", "--preset", "linear", "--grid-n", "101", "--out"]
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            cmd = [sys.executable, "-c", code, *argv, str(tmp_path / threads)]
            subprocess.run(cmd, env=env, capture_output=True, check=True)
        one, two = ((tmp_path / t / "summary.json").read_bytes() for t in ("1", "2"))
        assert one == two

    def test_solve_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the simplex's eta block is dense products: they must not round
        # differently when OpenBLAS may split them over threads
        src = str(Path(optrans.__file__).resolve().parents[1])
        code = "import sys; from optrans.cli import main; sys.exit(main())"
        argv = ["solve", "--preset", "contest", "--grid-n", "201", "--out"]
        for out in ("one", "unset"):
            env = dict(os.environ, PYTHONPATH=src)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if out == "one":
                env["OPENBLAS_NUM_THREADS"] = "1"
            cmd = [sys.executable, "-c", code, *argv, str(tmp_path / out)]
            subprocess.run(cmd, env=env, capture_output=True, check=True)
        for name in ("summary.json", "prices.csv", "outcome.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes(), name

    def test_nad_debug_log_leaves_artifacts_unchanged(self, tmp_path, caplog):
        argv = ["nad", "--preset", "translation_receiver", "--grid-n", "41", "--out"]
        assert main(argv + [str(tmp_path / "quiet")]) == 0
        with caplog.at_level(logging.DEBUG, logger="optrans.nad"):
            assert main(argv + [str(tmp_path / "debug")]) == 0
        (line,) = [r.getMessage() for r in caplog.records if r.name == "optrans.nad"]
        assert re.fullmatch(
            r"ode: \d+ shots in stage 1 \(\d+ bracketing\), \d+ in stage 2 \(collided\), "
            r"\d+ RHS evaluations, [1-9]\d* midpoint steps at the action floor",
            line,
        )
        for name in ("nad.csv", "nad_summary.json"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert quiet == (tmp_path / "debug" / name).read_bytes(), name

    def test_check_debug_log_leaves_artifacts_unchanged(self, tmp_path, caplog):
        # contest takes the sweep route, so both pooling sweeps log; its
        # full-disclosure witness makes the exit code 2
        argv = ["check", "--preset", "contest", "--grid-n", "31", "--out"]
        assert main(argv + [str(tmp_path / "quiet")]) == 2
        with caplog.at_level(logging.DEBUG, logger="optrans.model"):
            assert main(argv + [str(tmp_path / "debug")]) == 2
        lines = [r.getMessage() for r in caplog.records if r.name == "optrans.model"]
        assert lines
        for line in lines:
            assert re.fullmatch(
                r"gamma_binary: \d+ entries, \d+ rounds, \d+ midpoint steps, 0 stopped at the cap",
                line,
            ), line
        quiet = (tmp_path / "quiet" / "verdicts.json").read_bytes()
        assert quiet == (tmp_path / "debug" / "verdicts.json").read_bytes()

    def test_twist_debug_log_leaves_artifacts_unchanged(self, tmp_path, caplog):
        argv = ["check", "--preset", "example_c1", "--grid-n", "31", "--out"]
        code = main(argv + [str(tmp_path / "quiet")])
        with caplog.at_level(logging.DEBUG, logger="optrans.structure"):
            assert main(argv + [str(tmp_path / "debug")]) == code
        twist, full = [r.getMessage() for r in caplog.records if r.name == "optrans.structure"]
        assert re.fullmatch(
            r"twist: 29 actions by the chain \(least margin \S+\), "
            r"0 by the block certificate \(least margin inf\), 0 swept",
            twist,
        ), twist
        assert full.startswith("full disclosure: rows, empty at y="), full
        quiet = (tmp_path / "quiet" / "verdicts.json").read_bytes()
        assert quiet == (tmp_path / "debug" / "verdicts.json").read_bytes()

    def test_one_supported_state_is_ill_posed(self, tmp_path, capsys):
        # no state pair carries prior mass, so there is no pooling sweep
        doc = {
            "schema_version": 1,
            "states": [0.0, 0.5, 1.0],
            "actions": [0.0, 0.5, 1.0],
            "prior": [1.0, 0.0, 0.0],
            "V": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]],
            "u": [[0.0, 0.5, 1.0], [-0.5, 0.0, 0.5], [-1.0, -0.5, 0.0]],
        }
        path = write_spec(tmp_path, doc)
        assert main(["check", "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "error [IllPosed]" in err
        assert "Traceback" not in err
        problem, _ = load_problem(path)
        from optrans.structure import check_full_disclosure, check_nad_condition

        for check in (check_full_disclosure, check_nad_condition):
            with pytest.raises(IllPosed):
                check(problem)

    def test_cli_import_leaves_the_integrator_out(self):
        # only the pairing ODE route integrates; it imports scipy.integrate
        # (and with it scipy.optimize) when it runs
        src = str(Path(optrans.__file__).resolve().parents[1])
        code = "import sys, optrans.cli; print('scipy.integrate' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_grid_n_with_three_sizes_is_rejected(self, tmp_path, capsys):
        rc = main(["solve", "--preset", "example_c1", "--grid-n", "11,12,13", "--out", str(tmp_path)])
        assert rc == 1
        assert "error [ParseError]" in capsys.readouterr().err

    def test_grid_n_sets_states_and_actions(self, tmp_path):
        rc = main(["solve", "--preset", "example_c1", "--grid-n", "31,41", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["grid_n"] == "31,41"
        # one obedience row per action after the 31 marginal rows
        assert summary["lp"]["rows"] == 31 + 41
        ps, qs = read_prices_csv(tmp_path / "prices.csv")
        assert len(ps) == 31 and len(qs) == 41

    def test_artifact_schemas(self, tmp_path):
        # artifact records are built from report dataclasses, so a renamed
        # field renames an artifact key; these key sets pin the schemas
        config = {"command", "preset", "spec", "params", "grid_n", "tol_contact"}
        witness_keys = {"label", "witness"}
        for command in ("solve", "check", "certify", "nad"):
            rc = main([command, "--preset", "example_c1", "--grid-n", "21", "--out", str(tmp_path / command)])
            assert rc in (0, 2)
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert set(summary) == {
            "config", "problem", "objective", "dual_objective", "duality_gap", "marginal_residual",
            "obedience_residual", "dual_feasibility_residual", "lp", "simplex_iterations",
        }
        assert set(summary["config"]) == config
        assert set(summary["lp"]) == {"mass_variables", "slack_variables", "rows", "rank_estimate"}

        verdicts = json.loads((tmp_path / "check" / "verdicts.json").read_text())
        sections = {
            "assumptions": {"flags", "violations"},
            "twist": witness_keys,
            "sdpd": witness_keys | {"dipped_weak", "peaked_weak"},
            "full_disclosure": witness_keys | {"margin", "decided_by"},
            "nad_condition": witness_keys | {"route"},
            "classification": witness_keys | {"dipped", "peaked", "snap_discounted"},
            "config": config,
        }
        assert set(verdicts) == set(sections) | {"objective"}
        for name, keys in sections.items():
            assert set(verdicts[name]) == keys, name
        assert verdicts["full_disclosure"]["witness"] is not None

        report = json.loads((tmp_path / "certify" / "certify.json").read_text())
        assert set(report) == {
            "config", "objective", "duality_gap", "dual_feasibility_residual", "contact_pairs",
            "applicable", "max_q_residual", "max_foc_residual", "rows",
        }
        assert report["rows"]
        for row in report["rows"]:
            assert set(row) == {"action", "mass", "q_residual", "foc_residual"}

        shot = json.loads((tmp_path / "nad" / "nad_summary.json").read_text())
        assert set(shot) == {
            "config", "y_low", "y_high", "terminal_residual", "route", "lp_objective",
            "sup_mass_diff", "sup_cdf_diff", "objective_gap", "flagged", "flagged_action",
        }
        assert main(["nad", "--preset", "rayo_segal", "--grid-n", "21", "--out", str(tmp_path / "fails")]) == 2
        failed = json.loads((tmp_path / "fails" / "nad_summary.json").read_text())
        assert set(failed) == {"config", "nad_condition"}
        assert set(failed["nad_condition"]) == witness_keys | {"route", "margin"}

    def test_csv_roundtrip_is_lossless(self, tmp_path):
        main(["solve", "--preset", "example_c1", "--grid-n", "21", "--out", str(tmp_path)])
        from optrans.presets import preset
        from optrans.lp import build_lp, solve_primal

        pb, _ = preset("example_c1", grid_n=21)
        lp = build_lp(pb)
        out, _ = solve_primal(lp)
        rows = read_outcome_csv(tmp_path / "outcome.csv")
        for y, x, m in rows:
            iy = pb.actions.nearest(y)
            ix = pb.states.nearest(x)
            assert pb.actions.points[iy] == y  # 17 significant digits round-trip
            assert pb.states.points[ix] == x
            assert out.mass[iy, ix] == m


INLINE_SPEC = {
    "schema_version": 1,
    "states": [0.0, 0.5, 1.0],
    "actions": [0.0, 0.5, 1.0],
    "prior": [0.25, 0.5, 0.25],
    "V": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]],
    "u": [[0.0, 0.5, 1.0], [-0.5, 0.0, 0.5], [-1.0, -0.5, 0.0]],
}
NOT_NUMERIC = ["abc", {"a": 1}, ["x", "y", "z"], [0.0, "x", 1.0], [[0.0], "x"], 5, None, True]
NOT_INTEGER = ["abc", "", [21], {"n": 21}, 2, True]
# values of the wrong kind for a string, a float and an int default
WRONG_KIND = {
    str: [1.0, None, ["a"], True],
    float: ["abc", "1.5", None, [1.0], True, {"a": 1}, float("nan"), float("inf")],
    int: ["9", 5.5, None, True, float("inf")],
}
PRESET_PARAMS = {"linear": {"V_shape": str}, "quantile": {"kappa": float}, "stress_test": {"x0": float, "n_atoms": int}}


@st.composite
def malformed_specs(draw):
    """One mutation of a valid spec that every load must reject: a dropped
    required field, a wrong JSON type, a ragged table, or an unknown or
    ill-typed preset parameter."""
    if draw(st.booleans()):
        doc = json.loads(json.dumps(INLINE_SPEC))
        kind = draw(st.sampled_from(["drop", "wrong_type", "ragged", "enum"]))
        if kind == "drop":
            del doc[draw(st.sampled_from(sorted(INLINE_SPEC)))]
        elif kind == "wrong_type":
            doc[draw(st.sampled_from(["states", "actions", "prior", "V", "u"]))] = draw(st.sampled_from(NOT_NUMERIC))
        elif kind == "ragged":
            table = doc[draw(st.sampled_from(["V", "u"]))]
            row = table[draw(st.integers(0, 2))]
            if draw(st.booleans()):
                row.append(0.0)
            else:
                row.pop()
        else:
            doc[draw(st.sampled_from(["tie_break", "obedience"]))] = draw(st.sampled_from([3, None, ["x"], "nonesuch"]))
        return doc
    pid = draw(st.sampled_from(sorted(PRESET_PARAMS)))
    doc = {"schema_version": 1, "preset": pid, "grid_n": 5}
    kind = draw(st.sampled_from(["drop", "schema", "preset", "grid", "params", "unknown", "ill_typed"]))
    if kind == "drop":
        del doc[draw(st.sampled_from(["schema_version", "preset"]))]
    elif kind == "schema":
        doc["schema_version"] = draw(st.sampled_from(["1", 2, None, [1], 1.5]))
    elif kind == "preset":
        doc["preset"] = draw(st.sampled_from([3, None, [pid], "nonesuch"]))
    elif kind == "grid":
        doc[draw(st.sampled_from(["grid_n", "actions_n"]))] = draw(st.sampled_from(NOT_INTEGER))
    elif kind == "params":
        doc["params"] = draw(st.sampled_from([[1], "kappa=0.3", 3, None]))
    elif kind == "unknown":
        doc["params"] = {draw(st.sampled_from(["foo", "grid_n", "actions_n", "preset_id"])): 5}
    else:
        name, want = draw(st.sampled_from(sorted(PRESET_PARAMS[pid].items())))
        doc["params"] = {name: draw(st.sampled_from(WRONG_KIND[want]))}
    return doc


class TestMalformedSpecs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(malformed_specs())
    def test_typed_error_and_exit_1(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_spec(Path(tmp), doc)
            with pytest.raises(OptransError):
                load_problem(path)
            assert main(["solve", "--spec", str(path), "--out", tmp]) == 1

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("field", ["prior", "V"])
    def test_non_finite_entry_exit_1(self, tmp_path, capsys, command, field):
        # a NaN here used to give "objective": NaN from solve and a raw
        # ValueError traceback from check
        doc = json.loads(json.dumps(INLINE_SPEC))
        if field == "prior":
            doc["prior"][1] = float("nan")
        else:
            doc["V"][1][2] = float("nan")
        path = write_spec(tmp_path, doc)
        with pytest.raises(ParseError) as exc:
            load_problem(path)
        assert exc.value.field == field
        assert main([command, "--spec", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error [ParseError]: {exc.value}"]

    @pytest.mark.parametrize(
        "pid,params",
        [
            ("linear", "foo=1"),
            ("linear", "grid_n=5"),
            ("linear", "V_shape=1"),
            ("quantile", "kappa=abc"),
            ("stress_test", "n_atoms=2.5"),
            ("linear_receiver", "c=nan"),
        ],
    )
    def test_bad_preset_params_exit_1(self, tmp_path, capsys, pid, params):
        assert main(["solve", "--preset", pid, "--params", params, "--grid-n", "5", "--out", str(tmp_path)]) == 1
        assert "error [ParamOutOfRange]" in capsys.readouterr().err

    def test_integral_float_for_int_param(self):
        # --params delivers numbers as floats; an int parameter takes 5.0 as 5
        pb, meta = preset("stress_test", grid_n=5, n_atoms=5.0)
        assert meta.params["n_atoms"] == 5 and isinstance(meta.params["n_atoms"], int)
        assert pb.n_states == 5
