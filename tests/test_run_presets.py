import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("run_presets", REPO / "scripts" / "run_presets.py")
run_presets = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_presets)


def _report(record, seconds):
    return {
        "experiments": [{"id": "sobolev-scan", "wall_time_s": seconds, "record": record}],
        "timings": {"total_s": seconds},
    }


class TestAgainst:
    def test_a_one_sided_key_still_shows_the_numbers_that_moved(self, tmp_path, monkeypatch, capsys):
        # the key only this side has is listed by path, the slope that moved
        # under a shared key is still found, and the artifact counts as differing
        monkeypatch.chdir(tmp_path)
        mine, theirs = Path("out"), Path("parent") / "out"
        mine.mkdir()
        theirs.mkdir(parents=True)
        added = {"slopes": {"1.0": 1.25}, "stages": {"48": [{"eps": 0.5, "seconds": 0.1}]}}
        (mine / "report.json").write_text(json.dumps(_report(added, 1.0)))
        (theirs / "report.json").write_text(json.dumps(_report({"slopes": {"1.0": 1.0}}, 2.0)))
        assert run_presets.compare(mine, Path("parent")) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "largest relative difference 2.00e-01 (/experiments[0]/record/slopes/1.0)" in lines[0]
        assert lines[1].endswith("keys on one side only: /experiments[0]/record/stages (only here)")

    def test_keys_only_the_other_side_has_are_listed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"x": 1.0, "timings": {"total_s": 1.0, "import_s": 0.3}}))
        b.write_text(json.dumps({"x": 1.0, "y": [1, 2], "timings": {"total_s": 2.0}}))
        largest, _, one_sided = run_presets.largest_difference(a, b)
        assert largest == 0.0
        # timing keys on one side only are skipped
        assert one_sided == ["/y (only under DIR)"]

    def test_equal_numbers_are_reported_identical(self, tmp_path, monkeypatch, capsys):
        # only the timings differ: no key may be named as the largest difference
        monkeypatch.chdir(tmp_path)
        mine, theirs = Path("out"), Path("parent") / "out"
        mine.mkdir()
        theirs.mkdir(parents=True)
        (mine / "report.json").write_text(json.dumps(_report({"slope": 0.25}, 1.0)))
        (theirs / "report.json").write_text(json.dumps(_report({"slope": 0.25}, 2.0)))
        assert run_presets.compare(mine, Path("parent")) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("report.json: numbers identical (timings skipped)")
        assert "largest relative difference" not in out

    def test_an_absolute_output_directory_is_not_comparable(self, tmp_path, capsys):
        # against / mine would drop against and compare each file with itself
        mine = tmp_path / "out"
        mine.mkdir()
        (mine / "report.json").write_text(json.dumps(_report({}, 1.0)))
        assert run_presets.compare(mine, tmp_path / "no-such-parent") == 1
        out = capsys.readouterr().out
        assert "not comparable" in out and str(mine) in out
        assert "identical" not in out


class TestVerdictLines:
    def test_a_failing_preset_says_why(self, tmp_path, monkeypatch, capsys):
        # quick.json at p = 1.5: the slope leaves its band, the super barrier
        # misses u_min, and the default delta_list reaches s p = 0.75
        payload = json.loads((REPO / "configs" / "quick.json").read_text())
        payload["params"]["p"] = 1.5
        del payload["analysis"]["delta_list"]
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "quick.json").write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(run_presets, "CONFIGS", tmp_path / "configs")
        monkeypatch.setattr("sys.argv", ["run_presets.py"])
        assert run_presets.main() == 2
        assert capsys.readouterr().out.splitlines() == [
            "quick.json               -> exit 2 (artifacts in out/quick)",
            "  exponent-fit: failed (false: slope_in_band)",
            "  nonexistence-scan: failed (RegimeError)",
            "  compare: failed (false: bracketed)",
        ]

    def test_only_experiments_that_did_not_pass_are_listed(self):
        report = {"experiments": [
            {"id": "classify", "state": "passed", "checks": {}},
            {"id": "solve", "state": "not-converged",
             "checks": {"positive": True, "continuation_converged": False}},
            {"id": "compare", "state": "not-converged",
             "checks": {"bracketed": False, "continuation_converged": False}},
        ]}
        assert run_presets.not_passed(report) == [
            "  solve: not-converged (false: continuation_converged)",
            "  compare: not-converged (false: bracketed, continuation_converged)",
        ]
