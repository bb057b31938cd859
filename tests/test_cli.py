import json
import logging
import re

import numpy as np
import pytest

from optrans.cli import (
    load_problem,
    main,
    read_outcome_csv,
    read_prices_csv,
)
from optrans.errors import ParseError, SchemaVersionMismatch, ShapeMismatch


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
                r"phase 2: \d+ iterations, \d+ full pricing passes, \d+ refactors, "
                r"bland switch (not )?fired",
                line,
            )
            for line in lines
        )
        for name in ("outcome.csv", "prices.csv", "summary.json"):
            quiet = (tmp_path / "quiet" / name).read_bytes()
            assert quiet == (tmp_path / "debug" / name).read_bytes(), name

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
