import json
from pathlib import Path

import jsonschema
import pytest

from fracp.cli import DEFAULTS, load_config, main, run
from fracp.errors import ConfigParse

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "report_schema.json").read_text())

QUICK = {
    "params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 0.5},
    "grid": {"n": 96, "grading": "auto"},
    "solver": {"eps0": 0.5, "halvings": 10, "tol": 1e-3},
    "analysis": {"theta_list": [1.0], "n_list": [48, 96, 192], "delta_list": [0.6, 0.8]},
    "oracle": {"alpha_fracs": [0.5], "s_list": [0.5], "p_list": [2.0]},
    "output": {"formats": ["csv", "json", "plotdata"]},
}


def write_cfg(tmp_path, payload) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_defaults_fill_missing_blocks(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {}))
        assert cfg["params"] == DEFAULTS["params"]
        assert cfg["output"]["formats"] == ["csv", "json"]

    def test_unknown_block_rejected(self, tmp_path):
        with pytest.raises(ConfigParse):
            load_config(write_cfg(tmp_path, {"nope": {}}))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigParse):
            load_config(write_cfg(tmp_path, {"grid": {"n": 8, "zzz": 1}}))

    def test_malformed_json_exit_1_no_artifacts(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = tmp_path / "out"
        code = run("classify", str(bad), str(out))
        assert code == 1
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path):
        assert run("classify", str(tmp_path / "nope.json"), str(tmp_path / "o")) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"grid": {"n": "abc"}},
            {"grid": {"n": 12.5}},
            {"grid": {"n": True}},
            {"grid": {"grading": "steep"}},
            {"params": {"s": None}},
            {"solver": {"tol": -1e-4}},
            {"solver": {"halvings": 0}},
            {"analysis": {"n_list": []}},
            {"analysis": {"fit_window": [0.01]}},
            {"output": {"formats": "csv"}},
        ],
    )
    def test_bad_value_is_config_error_exit_1(self, tmp_path, capsys, payload):
        cfg = write_cfg(tmp_path, payload)
        with pytest.raises(ConfigParse):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_integral_float_count_accepted(self, tmp_path):
        assert load_config(write_cfg(tmp_path, {"grid": {"n": 64.0}}))["grid"]["n"] == 64.0


class TestSubcommands:
    def test_classify_nonexistent_regime_exits_zero(self, tmp_path):
        payload = {"params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 1.2}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("classify", cfg, str(out)) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["regime"]["existence_flag"] is False
        jsonschema.validate(rep, SCHEMA)

    def test_oracle_table_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        assert run("oracle", cfg, str(out)) == 0
        lines = (out / "phi_table.csv").read_text().splitlines()
        assert lines[0] == "alpha,s,p,beta,phi,c1,c2,pass"
        assert all(line.endswith("true") for line in lines[1:])

    def test_solve_and_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        assert run("solve", cfg, str(out)) == 0
        sol = (out / "solution.csv").read_text().splitlines()
        assert sol[0] == "x,u"
        assert len(sol) == 97
        assert (out / "solution_profile.dat").exists()

    def test_all_report_schema_and_reproducibility(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run("all", cfg, str(out1)) == 0
        assert run("all", cfg, str(out2)) == 0
        rep = json.loads((out1 / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        assert rep["overall_passed"] is True
        for e in rep["experiments"]:
            if e["id"] in ("solve", "sobolev-scan", "nonexistence-scan"):
                assert e["record"]["continuation_converged"] is True, e["id"]
        ids = [e["id"] for e in rep["experiments"]]
        assert ids == [
            "classify", "oracle", "barrier-check", "solve",
            "exponent-fit", "sobolev-scan", "nonexistence-scan", "compare",
        ]
        for f1 in sorted(out1.iterdir()):
            if f1.suffix in (".csv", ".dat"):
                f2 = out2 / f1.name
                assert f2.read_bytes() == f1.read_bytes(), f1.name

    def test_unconverged_continuation_fails_solve(self, tmp_path):
        # four halvings at p = 1.5 leave the last increment far above tol
        payload = {
            "params": {"s": 0.5, "p": 1.5, "gamma": 1.0, "delta": 0.5},
            "grid": {"n": 64, "grading": "auto"},
            "solver": {"eps0": 0.5, "halvings": 4, "tol": 1e-4},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("solve", cfg, str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        rec = rep["experiments"][0]
        assert rec["passed"] is False
        assert rec["record"]["continuation_converged"] is False
        assert rec["record"]["increments"][-1] > 1e-4
        assert rec["record"]["positivity_margin"] > 0.0

    @pytest.mark.parametrize("subcommand", ["sobolev-scan", "nonexistence-scan"])
    def test_unconverged_continuation_fails_scan(self, tmp_path, subcommand):
        # two halvings leave every last increment far above tol
        payload = dict(QUICK)
        payload["solver"] = {"eps0": 0.5, "halvings": 2, "tol": 1e-4}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run(subcommand, cfg, str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        rec = rep["experiments"][0]
        assert rec["passed"] is False
        assert rec["record"]["continuation_converged"] is False
        if subcommand == "sobolev-scan":
            incs = list(rec["record"]["last_increments"].values())
            assert len(incs) == len(QUICK["analysis"]["n_list"])
        else:
            incs = [r["last_increment"] for r in rec["record"]["rows"]]
        assert min(incs) > 1e-4

    def test_exponent_fit_csv_columns(self, tmp_path):
        payload = dict(QUICK)
        payload["grid"] = {"n": 256, "grading": "auto"}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        code = run("exponent-fit", cfg, str(out))
        lines = (out / "exponent_fit.csv").read_text().splitlines()
        assert lines[0] == "side,d_lo,d_hi,slope,reference,deviation,residual"
        assert len(lines) == 3
        assert code in (0, 2)

    def test_module_error_surfaces_with_name(self, tmp_path):
        # delta >= sp: solve must fail with a named module error, exit 2
        payload = {"params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 1.2}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("solve", cfg, str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        exp = rep["experiments"][0]
        assert exp["id"] == "solve"
        assert exp["passed"] is False
        assert exp["error"]["type"] == "RegimeError"


class TestMain:
    def test_usage_error_exit_1(self):
        assert main(["bogus-subcommand", "--config", "x.json"]) == 1

    def test_main_runs_classify(self, tmp_path):
        cfg = write_cfg(tmp_path, {"params": {"s": 0.5, "p": 2.0, "gamma": 0.0, "delta": 0.0}})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
