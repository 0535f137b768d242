"""Serving experiment: runner wiring, seed and --out, headline checks."""

import json
from pathlib import Path

import pytest

from repro.core.context import capture_contexts
from repro.experiments import serving_colocation
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import main as runner_main
from repro.core import RunOptions, current_options
from repro.serving import ServingConfig
from repro.serving.config import ServingConfigError

FAULTS_BASIC = (Path(__file__).resolve().parent.parent / "examples"
                / "faults_basic.json")


class TestServingConfigParse:
    def test_full_spec(self):
        config = ServingConfig.parse(
            "rate=60,kind=bursty,queue=32,shed=drop-oldest,"
            "batch=4,timeout=2.5,slo=200")
        assert config.rate_rps == 60.0
        assert config.trace_kind == "bursty"
        assert config.queue_capacity == 32
        assert config.shed_policy == "drop-oldest"
        assert config.max_batch == 4
        assert config.batch_timeout_ms == 2.5
        assert config.slo_p99_ms == 200.0

    def test_empty_spec_is_all_defaults(self):
        config = ServingConfig.parse("")
        assert config == ServingConfig()

    @pytest.mark.parametrize("spec", [
        "rate=fast",          # non-numeric value
        "nonesuch=1",         # unknown key
        "kind=weekly",        # unknown trace kind
        "shed=drop-random",   # unknown shed policy
        "queue=0",            # out of range
        "rate",               # missing '='
    ])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ServingConfigError):
            ServingConfig.parse(spec)


class TestHeadlineChecks:
    def result_with(self, rows):
        result = ExperimentResult(name="serving_colocation", title="t")
        for row in rows:
            result.add_row(**row)
        return result

    def row(self, policy, p99, goodput, slo="met",
            rate=serving_colocation.DEFAULT_RATE):
        return dict(policy=policy, rate_rps=rate, p99_ms=p99,
                    goodput_rps=goodput, slo=slo)

    def test_all_ok(self):
        checks = serving_colocation.headline_checks(self.result_with([
            self.row("SwitchFlow", 100.0, 28.0),
            self.row("TimeSlicing", 400.0, 12.0, slo="MISS"),
        ]))
        assert len(checks) == 3
        assert all(c.startswith("PASS: ") for c in checks)

    def test_p99_inversion_flagged(self):
        checks = serving_colocation.headline_checks(self.result_with([
            self.row("SwitchFlow", 500.0, 28.0),
            self.row("TimeSlicing", 400.0, 12.0),
        ]))
        assert any("p99" in c and c.startswith("FAIL: ") for c in checks)

    def test_missing_operating_point(self):
        checks = serving_colocation.headline_checks(self.result_with([
            self.row("SwitchFlow", 100.0, 28.0, rate=999.0),
        ]))
        assert len(checks) == 1 and checks[0].startswith("FAIL: ")


class TestServingSweep:
    def test_quick_sweep_writes_json(self, tmp_path, capsys):
        assert runner_main(["serving", "--quick", "--out",
                            str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "serving.json").read_text())
        assert payload["seed"] == 0
        # The SLO budget (solo batch time x SLO_FACTOR) is in the title.
        slo_ms = float(payload["title"].split(" solo batch = ")[1]
                       .split(" ms")[0])
        assert slo_ms > 0
        assert len(payload["rows"]) == 3
        policies = {row["policy"] for row in payload["rows"]}
        assert policies == {"SwitchFlow", "TimeSlicing", "MPS"}
        for row in payload["rows"]:
            assert row["p99_ms"] > 0
            assert 0.0 <= row["shed_pct"] <= 100.0
        assert "== " + payload["title"] + " ==" in capsys.readouterr().out

    def test_fault_plan_spares_the_solo_reference(self, tmp_path, capsys):
        # The SLO derives from an uncontended solo run: under --faults
        # that run injects nothing, and the budget in the title is the
        # one a run without faults derives.
        with capture_contexts(select=0) as capture:
            assert runner_main(["serving", "--quick", "--faults",
                                str(FAULTS_BASIC), "--out",
                                str(tmp_path)]) == 0
        solo = capture.selected
        assert [job.name for job in solo.jobs] == ["solo-serve"]
        assert solo.faults.injected_total() == 0
        faulted = json.loads((tmp_path / "serving.json").read_text())
        assert runner_main(["serving", "--quick", "--out",
                            str(tmp_path / "clean")]) == 0
        clean = json.loads((tmp_path / "clean" / "serving.json")
                           .read_text())
        assert faulted["title"] == clean["title"]

    def test_seed_flag_respected(self, tmp_path, capsys):
        assert runner_main(["serving", "--quick", "--seed", "7", "--out",
                            str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "serving.json").read_text())
        assert payload["seed"] == 7
        assert payload["title"].endswith("seed 7)")
        assert "seed 7)" in capsys.readouterr().out


class TestRunnerServingCli:
    def test_serving_listed(self, capsys):
        assert runner_main(["--list"]) == 0
        assert "serving" in capsys.readouterr().out

    def test_bad_serving_spec_fails_fast(self, capsys):
        # Fail before any experiment runs: exit 2, no result table.
        assert runner_main(["serving", "--quick",
                            "--serving", "rate=banana"]) == 2
        captured = capsys.readouterr()
        assert "serving" in (captured.err + captured.out).lower()

    def test_serving_env_restored_after_run(self, capsys):
        # The --serving run option is active only during the run.
        assert runner_main(["serving", "--quick",
                            "--serving", "rate=20,queue=128"]) == 0
        assert current_options() == RunOptions()
        out = capsys.readouterr().out
        assert "Serving co-location" in out
