import json
from pathlib import Path

import jsonschema
import pytest

from fracp import cli
from fracp.cli import DEFAULTS, load_config, main, run
from fracp.errors import ConfigParse
from fracp.solver import continuation

REPO = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "docs" / "report_schema.json").read_text())

QUICK = {
    "params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 0.5},
    "grid": {"n": 96, "grading": "auto"},
    "solver": {"eps0": 0.5, "halvings": 10, "tol": 1e-3},
    "analysis": {"theta_list": [1.0], "n_list": [48, 96, 192], "delta_list": [0.6, 0.8]},
    "oracle": {"alpha_fracs": [0.5], "s_list": [0.5], "p_list": [2.0]},
    "output": {"formats": ["csv", "plotdata"]},
}


def write_cfg(tmp_path, payload) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestConfig:
    def test_defaults_fill_missing_blocks(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {}))
        assert cfg["params"] == DEFAULTS["params"]
        assert cfg["output"]["formats"] == ["csv"]

    def test_unknown_block_rejected(self, tmp_path):
        with pytest.raises(ConfigParse):
            load_config(write_cfg(tmp_path, {"nope": {}}))

    def test_unknown_key_rejected(self, tmp_path):
        for payload in (
            {"grid": {"n": 8, "zzz": 1}},
            # keys that held one value in use, now constants of the code
            {"solver": {"solver_tol": 1e-6}},
            {"analysis": {"fit_window": "auto"}},
            {"oracle": {"tol": 1e-8}},
            {"barrier": {"tol": 1e-3}},
        ):
            with pytest.raises(ConfigParse, match="unknown key"):
                load_config(write_cfg(tmp_path, payload))

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
            {"analysis": {"theta_list": [1.0, "x"]}},
            {"output": {"formats": "csv"}},
            {"params": {"s": 1.5}},
            {"params": {"p": 1.0}},
            {"params": {"a": 1.0, "b": 0.0}},
            {"solver": {"solver_tol": 1e-6}},
            {"analysis": {"fit_window": [0.01, 0.1]}},
            {"oracle": {"tol": 1e-8}},
            {"barrier": {"tol": 1e-3}},
            # report.json is written on every run; "json" is no output format
            {"output": {"formats": ["csv", "json"]}},
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
        rep = json.loads((out / "report.json").read_text())
        rec = rep["experiments"][0]["record"]
        stages = rec["stages"]
        assert [st["eps"] for st in stages] == [0.5 * 2.0**-k for k in range(rec["solves"])]
        assert sum(st["newton_steps"] for st in stages) == rec["iterations_total"]
        # p = 2: the kept factor and CG replace most factorizations
        assert 1 <= sum(st["factorizations"] for st in stages) < rec["iterations_total"]
        assert all(st["cg_steps"] > 0 for st in stages[1:])

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
        # each stage's relative Newton decrement met the solver's 1e-10
        stages = rep["experiments"][3]["record"]["stages"]
        assert all(0.0 <= st["residual"] <= 1e-10 for st in stages)
        # and the stage records, counts and residuals, are reproducible
        rep2 = json.loads((out2 / "report.json").read_text())
        assert rep2["experiments"][3]["record"]["stages"] == stages
        # and so are the solver counts of each nonexistence-scan row
        counts = [
            [(r["newton_steps"], r["factorizations"], r["cg_steps"]) for r in
             report["experiments"][6]["record"]["rows"]]
            for report in (rep, rep2)
        ]
        assert counts[0] == counts[1]
        assert all(f >= 1 and n >= 1 for n, f, _ in counts[0])
        for f1 in sorted(out1.iterdir()):
            if f1.suffix in (".csv", ".dat"):
                f2 = out2 / f1.name
                assert f2.read_bytes() == f1.read_bytes(), f1.name

    def test_all_runs_one_continuation(self, tmp_path, monkeypatch):
        # solve, exponent-fit and compare share the continuation of one run
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(cli, "continuation", counted)
        assert run("all", write_cfg(tmp_path, QUICK), str(tmp_path / "out")) == 0
        assert len(calls) == 1

    def test_all_assembles_each_operator_once(self, tmp_path, assembly_calls):
        # the run grid (n = 128, not among the scan meshes) once, shared by
        # the continuation and nonexistence-scan, plus one per sobolev-scan mesh
        payload = dict(QUICK)
        payload["grid"] = {"n": 128, "grading": "auto"}
        assert run("all", write_cfg(tmp_path, payload), str(tmp_path / "out")) == 0
        assert sorted(n for n, _, _, _ in assembly_calls) == [48, 96, 128, 192]
        assert len(set(assembly_calls)) == len(assembly_calls)

    def test_failed_assembly_is_not_cached(self, tmp_path, assembly_calls):
        # s p = 7.2 lies beyond the verified far-field range: every experiment
        # that needs the run's operator tries it and names the error
        payload = dict(QUICK)
        payload["params"] = {"s": 0.9, "p": 8.0, "gamma": 1.0, "delta": 0.5}
        out = tmp_path / "out"
        assert run("all", write_cfg(tmp_path, payload), str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        errors = {e["id"]: e.get("error", {}).get("type") for e in rep["experiments"]}
        needs_op = ("solve", "exponent-fit", "nonexistence-scan", "compare")
        assert all(errors[name] == "OutOfRange" for name in needs_op)
        run_grid = [call for call in assembly_calls if call[0] == QUICK["grid"]["n"]]
        assert len(run_grid) >= len(needs_op)

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
