import json

import pytest

from bcplab import cli
from bcplab.harness import (
    ConfigError,
    ScenarioConfig,
    _aggregate,
    report_to_csv,
    run_scenario,
)
from bcplab.seeding import derive_seed, splitmix64


class TestSeeding:
    def test_splitmix_is_stable(self):
        # frozen values so any change to the mixer is caught
        assert splitmix64(0) == 16294208416658607535
        assert splitmix64(1) == 10451216379200822465
        assert derive_seed(7, 3) == splitmix64(10)

    def test_masked_to_64_bits(self):
        assert 0 <= splitmix64(2**64 + 5) < 2**64
        assert splitmix64(2**64 + 5) == splitmix64(5)


class TestRunScenario:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig("nope", {}, 0))

    def test_bad_parameter(self):
        with pytest.raises(ConfigError):
            run_scenario(ScenarioConfig("ck_cover", {"lam": 0.9}, 0))

    def test_ck_cover_passes_with_positive_margin(self):
        r = run_scenario(ScenarioConfig(
            "ck_cover", {"nodes": 8, "lam": 1.2, "trials": 300}, 7))
        assert r.verdict == "pass"
        assert r.aggregates["successes"] == 300
        assert r.aggregates["min_margin"] > 0

    def test_ck_cover_ten_thousand_trials_seed_seven(self):
        r = run_scenario(ScenarioConfig(
            "ck_cover", {"nodes": 8, "lam": 1.2, "trials": 10_000}, 7))
        assert r.verdict == "pass"
        assert r.aggregates["min_margin"] > 0

    def test_ck_falsify_produces_witness(self):
        r = run_scenario(ScenarioConfig(
            "ck_falsify", {"nodes": 4, "zero_node": 2}, 3))
        assert r.verdict == "falsified"
        assert r.trials[0]["witness_open"] == [2]

    def test_reports_identical_modulo_wall_time(self):
        cfg = ScenarioConfig("lemma_scaling", {"n": 3, "p": 1.7, "trials": 64}, 11)
        a = run_scenario(cfg).to_dict()
        b = run_scenario(cfg).to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_changes_trials(self):
        base = ScenarioConfig("ck_cover", {"nodes": 4, "lam": 1.2, "trials": 16}, 1)
        other = ScenarioConfig("ck_cover", {"nodes": 4, "lam": 1.2, "trials": 16}, 2)
        assert run_scenario(base).trials != run_scenario(other).trials

    def test_parallel_jobs_match_serial(self):
        cfg = ScenarioConfig("ck_cover", {"nodes": 6, "lam": 1.2, "trials": 40}, 5)
        a = run_scenario(cfg, jobs=1).to_dict()
        b = run_scenario(cfg, jobs=3).to_dict()
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b

    def test_every_scenario_smoke(self):
        cases = [
            ("topology", {"kind": "convergent_model", "N": 5, "m": 2}),
            ("lemma_scaling", {"n": 2, "p": "inf", "trials": 32}),
            ("ck_cover", {"nodes": 4, "lam": 1.2, "trials": 16}),
            ("ck_falsify", {"nodes": 4, "zero_node": 3}),
            ("ckx_cover", {"trials": 16}),
            ("transfer_ckx", {"trials": 8, "m_max": 16}),
            ("rescale", {"trials": 16}),
            ("lp_operator", {"n": 2, "m": 2, "p": 2.0, "lam": 1.1, "trials": 8}),
            ("hilbert", {"dim": 3, "lam": 1.5, "delta": 0.05, "trials": 8}),
            ("linf_sum", {"trials": 16, "identity_checks": 10}),
            ("complementation", {"N": 4, "m": 2}),
        ]
        for name, params in cases:
            r = run_scenario(ScenarioConfig(name, params, 9))
            expected = "falsified" if name == "ck_falsify" else "pass"
            assert r.verdict == expected, f"{name}: {r.verdict}"

    def test_report_carries_seed_rule_and_tolerances(self):
        r = run_scenario(ScenarioConfig("topology", {"kind": "sierpinski"}, 0))
        d = r.to_dict()
        assert "splitmix64" in d["seed_derivation"]
        assert d["tolerance_policy"]["strict_slack"] == 1e-9

    def test_verdict_taxonomy(self):
        ok = {"trial": 0, "status": "ok", "margin": 0.5, "slack": 0.5}
        graze = {"trial": 1, "status": "ok", "margin": 5e-10, "slack": 5e-10}
        miss = {"trial": 2, "status": "falsified"}
        boom = {"trial": 3, "status": "error"}
        assert _aggregate([ok])[1] == "pass"
        assert _aggregate([ok, graze])[1] == "degenerate"
        assert _aggregate([ok, miss])[1] == "falsified"
        assert _aggregate([ok, miss, boom])[1] == "error"

    def test_csv_flattening(self):
        r = run_scenario(ScenarioConfig(
            "ck_cover", {"nodes": 4, "lam": 1.2, "trials": 4}, 1))
        csv = report_to_csv(r)
        lines = csv.strip().splitlines()
        assert lines[0] == "trial,ball_index,distance,radius,margin"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == 1.0


class TestCli:
    def write_cfg(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "ck_cover",
            "params": {"nodes": 4, "lam": 1.2, "trials": 8}, "seed": 7})
        rc = cli.main(["run", "--config", cfg])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"

    def test_falsified_exit_one(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "ck_falsify",
            "params": {"nodes": 4, "zero_node": 1}, "seed": 1})
        assert cli.main(["run", "--config", cfg]) == 1

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "ck_cover", "params": {"lam": 0.9}, "seed": 1})
        assert cli.main(["run", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        # the build rejects r_star 0.5 above the x_dim 3 covering's origin gap
        {"scenario": "ckx_cover", "params": {"x_dim": 3}, "seed": 1},
        {"scenario": "ck_cover", "params": {"lam": "abc"}, "seed": 1},
        {"scenario": "topology", "params": {"kind": "convergent_model", "N": 30},
         "seed": 1},
        {"scenario": "ck_cover", "params": {}, "seed": "x"},
    ], ids=["ckx_r_star_above_gap", "lam_not_a_number", "topology_too_large",
            "seed_not_an_integer"])
    def test_malformed_config_exit_two(self, tmp_path, capsys, payload):
        assert cli.main(["run", "--config", self.write_cfg(tmp_path, payload)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert cli.main(["run", "--config", "/nonexistent.json"]) == 2

    def test_unknown_scenario_exit_two(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"scenario": "bogus", "seed": 1})
        assert cli.main(["run", "--config", cfg]) == 2

    def test_out_file_and_seed_override(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "lemma_scaling",
            "params": {"n": 2, "p": 2.0, "trials": 8}, "seed": 1})
        out = tmp_path / "report.json"
        assert cli.main(["run", "--config", cfg, "--seed", "42",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 42

    def test_csv_output(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "ck_cover",
            "params": {"nodes": 4, "lam": 1.2, "trials": 4}, "seed": 7})
        assert cli.main(["run", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trial,ball_index,distance,radius,margin")

    def test_presets(self, capsys):
        assert cli.main(["topology"]) == 0
        capsys.readouterr()

    def test_jobs_env_override(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_cfg(tmp_path, {
            "scenario": "ck_cover",
            "params": {"nodes": 4, "lam": 1.2, "trials": 12}, "seed": 7})
        monkeypatch.setenv("BCPLAB_JOBS", "2")
        assert cli.main(["run", "--config", cfg]) == 0
        with_jobs = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("BCPLAB_JOBS")
        assert cli.main(["run", "--config", cfg]) == 0
        serial = json.loads(capsys.readouterr().out)
        with_jobs.pop("wall_time_s")
        serial.pop("wall_time_s")
        assert with_jobs == serial
