import json
import os
import re
import subprocess
import sys
import warnings
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
    "solver": {"halvings": 10, "tol": 1e-3},
    "analysis": {"theta_list": [1.0], "n_list": [48, 96, 192], "delta_list": [0.6, 0.8]},
    "oracle": {"alpha_fracs": [0.5], "s_list": [0.5], "p_list": [2.0]},
    "output": {"formats": ["csv", "plotdata"]},
}

#: the artifacts `all` writes on QUICK with both formats
ARTIFACTS = {
    "phi_table.csv", "barrier_check.csv", "solution.csv", "solution_profile.dat",
    "increments.dat", "exponent_fit.csv", "boundary_left.dat", "sobolev_scan.csv",
    "sobolev_theta_1.dat", "nonexistence_scan.csv", "nonexistence_exponent.dat",
    "nonexistence_hardy.dat", "compare.csv",
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
        for payload in (
            {"nope": {}},
            # the barrier's eta, alpha and lambda are constants of the code
            {"barrier": {"tol": 1e-3}},
            {"barrier": {"eta": 0.1, "rho": 0.5}},
        ):
            with pytest.raises(ConfigParse, match="unknown config block"):
                load_config(write_cfg(tmp_path, payload))

    def test_unknown_key_rejected(self, tmp_path):
        for payload in (
            {"grid": {"n": 8, "zzz": 1}},
            # keys that held one value in use, now constants of the code
            {"solver": {"solver_tol": 1e-6}},
            {"solver": {"eps0": 0.5}},
            {"analysis": {"fit_window": "auto"}},
            {"oracle": {"tol": 1e-8}},
        ):
            with pytest.raises(ConfigParse, match="unknown key"):
                load_config(write_cfg(tmp_path, payload))

    @pytest.mark.parametrize("preset", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_preset_loads_and_classifies(self, tmp_path, preset):
        # classify exits 1 on any config error
        assert main(["classify", "--config", str(preset), "--out", str(tmp_path / "out")]) == 0

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
            {"solver": {"eps0": 0.5}},
            {"analysis": {"theta_list": "auto"}},
            # ranges that do not depend on the problem
            {"grid": {"n": 1}},
            {"grid": {"grading": 0.5}},
            {"grid": {"grading": 5}},
            {"solver": {"halvings": 1}},
            {"analysis": {"n_list": [64, 32, 128]}},
            {"analysis": {"n_list": [64, 128]}},
            {"analysis": {"theta_list": [0.5]}},
            {"oracle": {"alpha_fracs": [1.5]}},
            {"oracle": {"s_list": [1.5]}},
            {"oracle": {"p_list": [0.5]}},
            {"analysis": {"delta_list": [-0.5]}},
            # each n_list entry is a mesh, checked at load as grid.n is
            {"analysis": {"n_list": [1, 64, 128]}},
            # each delta_list entry lies in the existence range [0, s p)
            {"analysis": {"delta_list": [0.6, 1.0]}},
            # sobolev-scan fits one energy per theta and mesh, and the
            # nonexistence trend is read in increasing delta
            {"analysis": {"theta_list": [1.0, 1.0]}},
            {"analysis": {"theta_list": [3.0, 1, 1.0]}},
            {"analysis": {"delta_list": [0.6, 0.6]}},
            {"analysis": {"delta_list": [0.8, 0.6]}},
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

    def test_output_path_is_a_file_exit_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        # through --out, and through output.directory
        assert main(["classify", "--config", write_cfg(tmp_path, {}), "--out", str(taken)]) == 1
        assert run("classify", write_cfg(tmp_path, {"output": {"directory": str(taken)}})) == 1
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith("error: cannot create output directory")
        assert taken.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("subcommand,taken", [("oracle", "phi_table.csv"),
                                                  ("classify", "report.json")])
    def test_artifact_path_is_a_directory_exit_1(self, tmp_path, capsys, subcommand, taken):
        # an artifact, or report.json, whose path is a directory in the
        # output directory ends in one error line naming it
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        assert main([subcommand, "--config", write_cfg(tmp_path, QUICK), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: cannot write {out / taken}: ")
        assert (out / taken).is_dir()

    def test_delta_list_outside_existence_range_exit_1(self, tmp_path, capsys):
        # delta_list is in absolute units: quick at p = 1.5 has 0.8 >= s p =
        # 0.75, refused at load rather than by nonexistence-scan with exit 2
        payload = {**QUICK, "params": {**QUICK["params"], "p": 1.5}}
        cfg = write_cfg(tmp_path, payload)
        message = "analysis.delta_list: delta = 0.8 is outside the solvable range [0, 0.75)"
        with pytest.raises(ConfigParse, match=re.escape(message)):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["nonexistence-scan", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_default_delta_list_is_not_checked_at_load(self, tmp_path, capsys):
        # the default list reaches past s p = 0.75; only nonexistence-scan
        # reads it, and refuses it there
        cfg = write_cfg(tmp_path, {"params": {"p": 1.5}, "grid": {"n": 32}})
        assert load_config(cfg)["analysis"]["delta_list"] == [0.6, 0.8, 0.9, 0.95]
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        assert main(["nonexistence-scan", "--config", cfg, "--out", str(tmp_path / "n")]) == 2
        assert "delta = 0.8 is outside the solvable range [0, 0.75)" in capsys.readouterr().err

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
            assert e["passed"] == (e["state"] == "passed"), e["id"]
            assert e["state"] == "passed" and all(e["checks"].values()), e["id"]
            if e["id"] in ("solve", "exponent-fit", "sobolev-scan", "nonexistence-scan", "compare"):
                assert e["record"]["continuation_converged"] is True, e["id"]
                assert e["checks"]["continuation_converged"] is True, e["id"]
        ids = [e["id"] for e in rep["experiments"]]
        assert ids == [
            "classify", "oracle", "barrier-check", "solve",
            "exponent-fit", "sobolev-scan", "nonexistence-scan", "compare",
        ]
        # each full-accuracy stage's relative Newton decrement met the
        # solver's 1e-10, the last among them, and each intermediate stage
        # stopped at 1e-4 of the increment before it
        solve = rep["experiments"][3]
        stages = solve["record"]["stages"]
        incs = solve["record"]["increments"]
        assert stages[-1]["newton_tol"] is None
        for k, st in enumerate(stages):
            if st["newton_tol"] is None:
                assert 0.0 <= st["residual"] <= 1e-10, k
            else:
                assert st["newton_tol"] == 1e-4 * incs[k - 2], k
        # each stage's seconds lie within the experiment's wall time
        assert all(st["seconds"] > 0.0 for st in stages)
        assert sum(st["seconds"] for st in stages) <= solve["wall_time_s"]
        # and the stage records, counts and residuals, are reproducible; the
        # seconds are wall-clock
        rep2 = json.loads((out2 / "report.json").read_text())

        def untimed(report):
            return [{k: v for k, v in st.items() if k != "seconds"}
                    for st in report["experiments"][3]["record"]["stages"]]

        assert untimed(rep2) == untimed(rep)
        # and so are the solver counts of each nonexistence-scan row
        counts = [
            [(r["newton_steps"], r["factorizations"], r["cg_steps"], r["evaluations"]) for r in
             report["experiments"][6]["record"]["rows"]]
            for report in (rep, rep2)
        ]
        assert counts[0] == counts[1]
        assert all(f >= 1 and n >= 1 for n, f, _, _ in counts[0])
        # every Newton step evaluates at least one line-search trial, and
        # each solve its start point
        assert all(st["evaluations"] > st["newton_steps"] for st in stages)
        assert all(e > n for n, _, _, e in counts[0])
        for f1 in sorted(out1.iterdir()):
            if f1.suffix in (".csv", ".dat"):
                f2 = out2 / f1.name
                assert f2.read_bytes() == f1.read_bytes(), f1.name

    @pytest.mark.parametrize(
        "formats, suffixes",
        [(["csv"], {".csv"}), (["plotdata"], {".dat"}), (["csv", "plotdata"], {".csv", ".dat"})],
    )
    def test_formats_select_artifacts(self, tmp_path, formats, suffixes):
        payload = dict(QUICK)
        payload["output"] = {"formats": formats}
        out = tmp_path / "out"
        assert run("all", write_cfg(tmp_path, payload), str(out)) == 0
        names = {f.name for f in out.iterdir()}
        expected = {name for name in ARTIFACTS if Path(name).suffix in suffixes}
        assert names == expected | {"report.json"}

    def test_all_runs_one_continuation(self, tmp_path, monkeypatch):
        # solve, exponent-fit, compare and sobolev-scan share the continuation
        # of the run grid (n = 96); the scan's other two meshes add one each
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return continuation(*args, **kwargs)

        monkeypatch.setattr(cli, "continuation", counted)
        assert run("all", write_cfg(tmp_path, QUICK), str(tmp_path / "out")) == 0
        assert sorted(args[1].n for args in calls) == [48, 96, 192]

    def test_all_assembles_each_operator_once(self, tmp_path, assembly_calls, continuation_calls):
        # the run grid (n = 128, not among the scan meshes) once, shared by
        # the continuation and nonexistence-scan, plus one per sobolev-scan mesh
        payload = dict(QUICK)
        payload["grid"] = {"n": 128, "grading": "auto"}
        assert run("all", write_cfg(tmp_path, payload), str(tmp_path / "out")) == 0
        assert sorted(n for n, _, _, _ in assembly_calls) == [48, 96, 128, 192]
        assert len(set(assembly_calls)) == len(assembly_calls)
        # one continuation per (n, q, delta): the configured delta on each
        # mesh, and the two nonexistence deltas on the run grid
        assert sorted((n, delta) for n, _, delta in continuation_calls) == [
            (48, 0.5), (96, 0.5), (128, 0.5), (128, 0.6), (128, 0.8), (192, 0.5)
        ]
        assert len(set(continuation_calls)) == len(continuation_calls)

    def test_sobolev_scan_reuses_the_run_mesh(self, tmp_path, assembly_calls, continuation_calls):
        # quick.json's run grid (n = 96) is a sobolev-scan mesh: the scan
        # reads the run's operator and continuation instead of redoing them
        assert run("all", str(REPO / "configs" / "quick.json"), str(tmp_path / "out")) == 0
        assert sorted(n for n, _, _, _ in assembly_calls) == [48, 96, 192]
        assert len(set(assembly_calls)) == len(assembly_calls)
        assert sorted((n, delta) for n, _, delta in continuation_calls) == [
            (48, 0.5), (96, 0.5), (96, 0.6), (96, 0.8), (192, 0.5)
        ]
        assert len(set(continuation_calls)) == len(continuation_calls)

    def test_sobolev_scan_alone_builds_only_the_scan_meshes(
        self, tmp_path, assembly_calls, continuation_calls
    ):
        # off the ladder, the run grid (n = 128) is neither assembled nor solved
        payload = dict(QUICK)
        payload["grid"] = {"n": 128, "grading": "auto"}
        out = tmp_path / "out"
        assert run("sobolev-scan", write_cfg(tmp_path, payload), str(out)) == 0
        assert sorted(n for n, _, _, _ in assembly_calls) == [48, 96, 192]
        assert sorted(n for n, _, _ in continuation_calls) == [48, 96, 192]
        rec = json.loads((out / "report.json").read_text())["experiments"][0]["record"]
        # one stage record per eps stage of each mesh's continuation
        assert sorted(rec["stages"], key=int) == ["48", "96", "192"]
        for n, stages in rec["stages"].items():
            assert [st["eps"] for st in stages] == [0.5 * 2.0**-k for k in range(len(stages))]
            assert stages[-1]["newton_tol"] is None
            assert all(0.0 <= st["residual"] <= 1e-10 for st in stages if st["newton_tol"] is None)
            assert all(st["newton_tol"] > 0.0 for st in stages if st["newton_tol"] is not None)

    def test_failed_assembly_is_not_cached(self, tmp_path, assembly_calls):
        # s p = 7.2 lies beyond the verified Gauss range: every experiment
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
            "solver": {"halvings": 4, "tol": 1e-4},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run("solve", cfg, str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        rec = rep["experiments"][0]
        assert rec["passed"] is False
        assert rec["state"] == "not-converged"
        assert rec["checks"] == {"positive": True, "continuation_converged": False}
        assert rec["record"]["continuation_converged"] is False
        assert rec["record"]["increments"][-1] > 1e-4
        assert rec["record"]["positivity_margin"] > 0.0
        # the last allowed stage is solved at full accuracy all the same
        last = rec["record"]["stages"][-1]
        assert last["newton_tol"] is None and last["residual"] <= 1e-10
        # an unconverged continuation outranks a false check: the slope read
        # from it leaves the band, and the state still names the continuation
        assert run("exponent-fit", cfg, str(out)) == 2
        fit = json.loads((out / "report.json").read_text())["experiments"][0]
        assert fit["checks"] == {"slope_in_band": False, "continuation_converged": False}
        assert fit["state"] == "not-converged" and fit["passed"] is False

    @pytest.mark.parametrize("subcommand", ["sobolev-scan", "nonexistence-scan"])
    def test_unconverged_continuation_fails_scan(self, tmp_path, subcommand):
        # two halvings leave every last increment far above tol
        payload = dict(QUICK)
        payload["solver"] = {"halvings": 2, "tol": 1e-4}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert run(subcommand, cfg, str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        rec = rep["experiments"][0]
        assert rec["passed"] is False
        assert rec["state"] == "not-converged"
        assert rec["checks"]["continuation_converged"] is False
        assert rec["record"]["continuation_converged"] is False
        if subcommand == "sobolev-scan":
            incs = list(rec["record"]["last_increments"].values())
            assert len(incs) == len(QUICK["analysis"]["n_list"])
        else:
            incs = [r["last_increment"] for r in rec["record"]["rows"]]
        assert min(incs) > 1e-4

    @pytest.mark.parametrize("subcommand", ["exponent-fit", "compare"])
    def test_unconverged_continuation_fails_what_reads_it(self, tmp_path, subcommand):
        # exponent-fit and compare read solve's minimal solution; two
        # halvings leave its last increment far above tol
        payload = {**QUICK, "solver": {"halvings": 2, "tol": 1e-4}}
        out = tmp_path / "out"
        assert run(subcommand, write_cfg(tmp_path, payload), str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        rec = rep["experiments"][0]
        assert rec["passed"] is False
        assert rec["state"] == "not-converged"
        assert rec["checks"]["continuation_converged"] is False
        assert rec["record"]["continuation_converged"] is False
        # and the schema requires the flag
        del rec["record"]["continuation_converged"]
        with pytest.raises(jsonschema.ValidationError, match="continuation_converged"):
            jsonschema.validate(rep, SCHEMA)

    @pytest.mark.parametrize("a,b", [(0.0, 0.15), (-1e6, 1e6)])
    def test_barrier_strip_is_a_tenth_of_the_domain(self, tmp_path, a, b):
        # the strip of barrier-check and compare scales with |Omega| = b - a,
        # like exponent-fit's window; an absolute 0.1 is wider than the
        # domain allows on the first and holds no node on the second
        payload = {**QUICK, "params": {**QUICK["params"], "a": a, "b": b}}
        cfg = write_cfg(tmp_path, payload)
        for subcommand in ("barrier-check", "compare"):
            out = tmp_path / subcommand
            assert run(subcommand, cfg, str(out)) == 0
            rec = json.loads((out / "report.json").read_text())["experiments"][0]["record"]
            barrier = rec["boundary_barrier" if subcommand == "barrier-check" else "barrier_record"]
            assert barrier["passed"] is True
        assert rec["eta"] == pytest.approx(0.1 * (b - a), rel=1e-15)

    def test_exponent_fit_csv_columns(self, tmp_path):
        payload = dict(QUICK)
        payload["grid"] = {"n": 256, "grading": "auto"}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        code = run("exponent-fit", cfg, str(out))
        lines = (out / "exponent_fit.csv").read_text().splitlines()
        assert lines[0] == "d_lo,d_hi,slope,reference,deviation,residual"
        assert len(lines) == 2
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
        assert exp["state"] == "failed" and "checks" not in exp
        assert exp["error"]["type"] == "RegimeError"

    @pytest.mark.parametrize("subcommand, check", [("exponent-fit", "slope_in_band"),
                                                   ("compare", "bracketed")])
    def test_a_false_check_on_a_converged_continuation_fails(self, tmp_path, subcommand, check):
        # quick.json at p = 1.5: the continuation converges, and the fitted
        # slope 0.1077 lies below its band [0.1167, 0.2167] and the super
        # barrier misses u_min by 8.2e-3; quick's delta_list reaches s p =
        # 0.75 and neither experiment reads it
        payload = json.loads((REPO / "configs" / "quick.json").read_text())
        payload["params"]["p"] = 1.5
        del payload["analysis"]["delta_list"]
        out = tmp_path / "out"
        assert run(subcommand, write_cfg(tmp_path, payload), str(out)) == 2
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        exp = rep["experiments"][0]
        assert exp["state"] == "failed" and exp["passed"] is False
        assert exp["checks"]["continuation_converged"] is True
        assert [name for name, ok in exp["checks"].items() if not ok] == [check]

    @pytest.mark.parametrize("checks, state", [
        ({}, "passed"),
        ({"a": True, "continuation_converged": True}, "passed"),
        ({"a": False, "continuation_converged": True}, "failed"),
        ({"a": False}, "failed"),
        ({"a": True, "continuation_converged": False}, "not-converged"),
        ({"a": False, "continuation_converged": False}, "not-converged"),
    ])
    def test_verdict_precedence(self, checks, state):
        assert cli.verdict(checks) == state

    def test_schema_requires_state_and_checks(self, tmp_path):
        assert run("oracle", write_cfg(tmp_path, QUICK), str(tmp_path / "out")) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        exp = rep["experiments"][0]
        assert exp["state"] == "passed" and exp["checks"] == {"phi_bracketed": True}
        for key, message in (("state", "'state' is a required property"),
                             ("checks", "'checks' is a required property")):
            missing = {k: v for k, v in exp.items() if k != key}
            with pytest.raises(jsonschema.ValidationError, match=message):
                jsonschema.validate({**rep, "experiments": [missing]}, SCHEMA)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**rep, "experiments": [{**exp, "state": "unknown"}]}, SCHEMA)

    def test_reaction_out_of_float_range_is_an_error_line(self, tmp_path, capsys):
        # at gamma = 60, eps**-gamma leaves the float range at eps = 2**-18
        payload = {"params": {"gamma": 60}, "grid": {"n": 64}, "solver": {"halvings": 20}}
        out = tmp_path / "out"
        assert run("solve", write_cfg(tmp_path, payload), str(out)) == 2
        assert "error in experiment solve: OutOfRange: eps**-gamma overflows" in capsys.readouterr().err
        rep = json.loads((out / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        assert rep["experiments"][0]["error"]["type"] == "OutOfRange"

    def test_reaction_out_of_factor_range_is_one_error_line(self, tmp_path, capsys):
        # at gamma = 120 the gradient leaves the float32 range of the p = 2
        # factor at eps = 1/4, long before eps**-gamma leaves float64's
        payload = {"params": {"gamma": 120}, "grid": {"n": 64}, "solver": {"halvings": 20}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("solve", write_cfg(tmp_path, payload), str(out)) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error in experiment solve: OutOfRange: the Newton gradient at eps = 0.25, "
            "gamma = 120.0 leaves the float32 range"
        ]
        rep = json.loads((out / "report.json").read_text())
        assert rep["experiments"][0]["error"]["type"] == "OutOfRange"

    @pytest.mark.parametrize("subcommand, payload", [
        ("oracle", {"oracle": {"alpha_fracs": [0.5], "s_list": [1e-300], "p_list": [2.0]}}),
        ("barrier-check", {"params": {"s": 1e-300, "delta": 0.0}}),
    ])
    def test_tiny_s_is_a_verdict_not_a_traceback(self, tmp_path, capsys, subcommand, payload):
        # the bracket constant c1 divides by st * s, which underflows to 0
        # below s ~ 1e-154 unless the two divisions are taken one by one.
        # Phi is then near 1/(sp) ~ 1e299, where the oracle's two rules agree
        # or differ by an ulp with the BLAS build and threads, so its verdict
        # may go either way; what must hold is a verdict and its exit code
        out = tmp_path / "out"
        code = run(subcommand, write_cfg(tmp_path, payload), str(out))
        (exp,) = json.loads((out / "report.json").read_text())["experiments"]
        assert code == (0 if exp["passed"] else 2)
        assert exp.get("error", {}).get("type") in (None, "QuadratureFail")
        if subcommand == "barrier-check":
            assert exp["checks"] == {"power_estimate": False, "boundary_barrier": True}
        assert "Traceback" not in capsys.readouterr().err


class TestMain:
    def test_usage_error_exit_1(self):
        assert main(["bogus-subcommand", "--config", "x.json"]) == 1

    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: fracp")

    def test_main_runs_classify(self, tmp_path):
        cfg = write_cfg(tmp_path, {"params": {"s": 0.5, "p": 2.0, "gamma": 0.0, "delta": 0.0}})
        assert main(["classify", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


class TestStartup:
    def test_import_loads_neither_scipy_integrate_nor_special(self):
        # a fresh process: the quadratures are fixed rules, so the two
        # modules, about a third of the start-up, need not load
        code = ("import sys, fracp.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy.integrate', 'scipy.special'))))")
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_report_records_the_import_seconds(self, tmp_path):
        cfg = write_cfg(tmp_path, {"params": {"s": 0.5, "p": 2.0, "gamma": 0.0, "delta": 0.0}})
        assert run("classify", cfg, str(tmp_path / "o")) == 0
        rep = json.loads((tmp_path / "o" / "report.json").read_text())
        jsonschema.validate(rep, SCHEMA)
        assert rep["timings"]["import_s"] == cli.IMPORT_S > 0.0

    def test_report_records_the_assembly_seconds_of_each_rung(self, tmp_path):
        # solve assembles the run grid's operator (n = 96), classify none;
        # each run reports its own rungs
        for sub, rungs in (("solve", {"96"}), ("classify", set())):
            out = tmp_path / sub
            assert run(sub, write_cfg(tmp_path, QUICK), str(out)) == 0
            rep = json.loads((out / "report.json").read_text())
            jsonschema.validate(rep, SCHEMA)
            seconds = rep["timings"]["assembly_s"]
            assert set(seconds) == rungs
            assert all(t > 0.0 for t in seconds.values())
