"""Tests for the command-line front end."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "analysis" / "fixtures"
APPS = Path(__file__).parents[1] / "src" / "repro" / "apps"


class TestCLI:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_consensus_command(self, capsys):
        assert main(["consensus"]) == 0
        out = capsys.readouterr().out
        assert "PoW" in out and "PoS" in out
        assert "99.95" in out

    def test_fuzzing_command(self, capsys):
        assert main(["fuzzing", "--coverage", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "optimal fleet" in out
        assert "marginal energy" in out

    def test_fuzzing_custom_deadline(self, capsys):
        assert main(["fuzzing", "--coverage", "0.9",
                     "--deadline-days", "10"]) == 0

    @pytest.mark.parametrize("coverage", ["0", "1.2"])
    def test_fuzzing_coverage_out_of_range_exits_2(self, capsys, coverage):
        assert main(["fuzzing", "--coverage", coverage]) == 2
        _assert_one_line_usage_error(capsys, "fuzzing", "--coverage")
        assert capsys.readouterr().out == ""

    def test_fuzzing_low_coverage_starts_marginal_at_zero(self, capsys):
        assert main(["fuzzing", "--coverage", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "marginal energy 0% -> 3%" in out

    def test_calibrate_command(self, capsys):
        assert main(["calibrate", "--gpu", "sim3070"]) == 0
        out = capsys.readouterr().out
        assert "sim3070" in out
        assert "vram_sectors" in out

    def test_schedulers_command(self, capsys):
        assert main(["schedulers", "--quanta", "30"]) == 0
        out = capsys.readouterr().out
        assert "eas" in out and "interface" in out

    def test_table1_command_small(self, capsys):
        assert main(["table1", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "sim4090" in out and "sim3070" in out
        assert "paper" in out

    def test_mlservice_command(self, capsys):
        assert main(["mlservice", "--requests", "60"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out and "measured" in out

    @pytest.mark.parametrize("argv,needle", [
        (["table1", "--trials", "0"], "--trials"),
        (["mlservice", "--requests", "0"], "--requests"),
    ])
    def test_empty_runs_exit_2(self, capsys, argv, needle):
        # Zero trials/requests leave nothing to average or divide by.
        assert main(argv) == 2
        _assert_one_line_usage_error(capsys, argv[0], needle)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["warp-drive"])


class TestTraceCommand:
    def test_prints_tree_and_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "--requests", "6",
                     "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        # The span tree spans the stack's layers.
        assert "[runtime]" in out
        assert "[hardware]" in out
        assert "[os]" in out
        assert "session memo" in out
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0

    def test_out_can_be_skipped(self, capsys):
        assert main(["trace", "--requests", "4", "--out", ""]) == 0
        assert "chrome trace written" not in capsys.readouterr().out

    def test_rejects_nonpositive_requests(self, capsys):
        assert main(["trace", "--requests", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_rejects_nonpositive_max_error(self, capsys):
        assert main(["trace", "--max-error", "-1"]) == 2
        assert "--max-error" in capsys.readouterr().err

    def test_max_error_turns_divergence_into_exit_one(self, capsys):
        # An absurdly strict threshold: any nonzero per-layer error fails.
        assert main(["trace", "--requests", "4", "--out", "",
                     "--max-error", "1e-9"]) == 1
        assert "exceeds --max-error" in capsys.readouterr().err

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        out = capsys.readouterr().out
        assert "0 = clean" in out and "2 = usage" in out


class TestLintCommand:
    def test_clean_apps_exit_zero(self, capsys):
        assert main(["lint", str(APPS)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "buggy_radio.py"),
                     "--baseline", "/nonexistent"]) == 1
        assert "EB103" in capsys.readouterr().out

    def test_dotted_module_target(self, capsys):
        assert main(["lint", "repro.apps.crypto"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", str(APPS), "--select", "EB999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        # the error lists the full shared vocabulary: EB1xx and EB2xx
        assert "EB101" in err and "EB201" in err and "EB206" in err

    def test_missing_target_exits_two(self, capsys):
        assert main(["lint", "definitely/not/here.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_select_and_ignore_filter_rules(self, capsys):
        target = str(FIXTURES / "buggy_crypto.py")
        assert main(["lint", target, "--baseline", "/nonexistent",
                     "--select", "EB101"]) == 0
        assert main(["lint", target, "--baseline", "/nonexistent",
                     "--ignore", "EB102,EB106"]) == 0
        assert main(["lint", target, "--baseline", "/nonexistent",
                     "--select", "EB102"]) == 1

    def test_json_output(self, capsys):
        assert main(["lint", str(FIXTURES / "buggy_loop.py"),
                     "--baseline", "/nonexistent",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-energy lint"
        assert payload["findings"][0]["rule"] == "EB101"

    def test_sarif_output_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.sarif"
        assert main(["lint", str(FIXTURES / "buggy_dead.py"),
                     "--baseline", "/nonexistent",
                     "--format", "sarif", "--output", str(out_path)]) == 1
        out = capsys.readouterr().out
        assert "written to" in out
        sarif = json.loads(out_path.read_text())
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["results"][0]["ruleId"] == "EB106"

    def test_baseline_roundtrip_suppresses(self, capsys, tmp_path):
        target = str(FIXTURES / "buggy_refinement.py")
        baseline = tmp_path / "baseline.txt"
        assert main(["lint", target, "--baseline", str(baseline),
                     "--write-baseline"]) == 0
        assert main(["lint", target, "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "suppressed by baseline" in out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "0 = clean" in out and "1 = findings" in out

    def test_main_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "exit codes" in capsys.readouterr().out


class TestRegressCommand:
    REGRESS = FIXTURES / "regress"

    def test_head_matches_committed_baseline(self, capsys, monkeypatch):
        monkeypatch.chdir(Path(__file__).parents[1])
        assert main(["regress", "src/repro/apps"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_write_then_diff_is_clean(self, capsys, tmp_path):
        target = str(self.REGRESS / "before" / "eb201.py")
        baseline = tmp_path / "fp.json"
        assert main(["regress", target, "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        assert "written to" in capsys.readouterr().out
        assert main(["regress", target, "--baseline", str(baseline)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_regression_exits_one(self, capsys, tmp_path):
        baseline = tmp_path / "fp.json"
        assert main(["regress", str(self.REGRESS / "before" / "eb201.py"),
                     "--write-baseline", "--baseline", str(baseline)]) == 0
        assert main(["regress", str(self.REGRESS / "after" / "eb201.py"),
                     "--baseline", str(baseline)]) == 1
        assert "EB201" in capsys.readouterr().out

    def test_sarif_output_to_file(self, capsys, tmp_path):
        baseline = tmp_path / "fp.json"
        out_path = tmp_path / "report.sarif"
        assert main(["regress", str(self.REGRESS / "before" / "eb204.py"),
                     "--write-baseline", "--baseline", str(baseline)]) == 0
        assert main(["regress", str(self.REGRESS / "after" / "eb204.py"),
                     "--baseline", str(baseline),
                     "--format", "sarif", "--output", str(out_path)]) == 1
        assert "written to" in capsys.readouterr().out
        sarif = json.loads(out_path.read_text())
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-energy regress"
        assert run["results"][0]["ruleId"] == "EB204"

    def test_json_output_names_the_tool(self, capsys, tmp_path):
        baseline = tmp_path / "fp.json"
        assert main(["regress", str(self.REGRESS / "before" / "eb203.py"),
                     "--write-baseline", "--baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["regress", str(self.REGRESS / "after" / "eb203.py"),
                     "--baseline", str(baseline), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "repro-energy regress"
        assert payload["findings"][0]["rule"] == "EB203"

    def test_select_and_ignore_filter_rules(self, capsys, tmp_path):
        baseline = tmp_path / "fp.json"
        before = str(self.REGRESS / "before" / "eb201.py")
        after = str(self.REGRESS / "after" / "eb201.py")
        assert main(["regress", before, "--write-baseline",
                     "--baseline", str(baseline)]) == 0
        assert main(["regress", after, "--baseline", str(baseline),
                     "--select", "EB203"]) == 0
        assert main(["regress", after, "--baseline", str(baseline),
                     "--ignore", "EB201"]) == 0

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["regress", str(APPS), "--select", "EB999"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err
        assert "EB101" in err and "EB201" in err

    def test_negative_tolerance_exits_two(self, capsys):
        assert main(["regress", str(APPS), "--tolerance", "-1"]) == 2
        assert "--tolerance" in capsys.readouterr().err

    def test_missing_baseline_exits_two(self, capsys, tmp_path):
        assert main(["regress", str(self.REGRESS / "before" / "eb201.py"),
                     "--baseline", str(tmp_path / "absent.json")]) == 2
        assert "--write-baseline" in capsys.readouterr().err

    def test_malformed_bisect_range_exits_two(self, capsys):
        assert main(["regress", "src/repro/apps",
                     "--bisect", "deadbeef"]) == 2
        assert "GOOD..BAD" in capsys.readouterr().err

    def test_bisect_pinpoints_commit(self, capsys, tmp_path, monkeypatch):
        import subprocess

        repo = tmp_path / "history"
        repo.mkdir()
        module = repo / "mod.py"
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)

        def commit(source, message):
            module.write_text(source, encoding="utf-8")
            subprocess.run(["git", "add", "mod.py"], cwd=repo, check=True)
            subprocess.run(["git", "-c", "user.name=t",
                            "-c", "user.email=t@example.invalid",
                            "commit", "-q", "-m", message], cwd=repo,
                           check=True)
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo,
                                  check=True, capture_output=True,
                                  text=True).stdout.strip()

        good_src = (self.REGRESS / "before" / "eb201.py").read_text()
        bad_src = (self.REGRESS / "after" / "eb201.py").read_text()
        commits = [commit(good_src, "seed"),
                   commit(good_src + "\n# tweak\n", "benign"),
                   commit(bad_src, "double the cost"),
                   commit(bad_src + "\n# tweak\n", "benign 2")]
        monkeypatch.chdir(repo)
        assert main(["regress", "mod.py",
                     "--bisect", f"{commits[0]}..{commits[3]}"]) == 1
        out = capsys.readouterr().out
        assert f"first regressing commit: {commits[2]}" in out
        assert "EB201" in out


class TestServeCommand:
    def test_smoke_run_kvstore(self, capsys):
        assert main(["serve", "--app", "kvstore", "--rate", "50",
                     "--horizon", "1", "--budget", "0.2J+0.1W"]) == 0
        out = capsys.readouterr().out
        assert "serving report" in out
        assert "offered requests" in out
        assert "eval-cache hit rate" in out

    def test_attribution_flag(self, capsys):
        assert main(["serve", "--app", "kvstore", "--rate", "50",
                     "--horizon", "1", "--attribution"]) == 0
        out = capsys.readouterr().out
        assert "Attribution[proportional]" in out

    def test_policy_choices_parse(self, capsys):
        assert main(["serve", "--app", "kvstore", "--rate", "30",
                     "--horizon", "1", "--policy", "prob"]) == 0
        assert main(["serve", "--app", "kvstore", "--rate", "30",
                     "--horizon", "1", "--policy", "slo",
                     "--slo", "0.2"]) == 0

    def test_bad_budget_spec_exits_nonzero(self, capsys):
        assert main(["serve", "--budget", "banana"]) == 2
        err = capsys.readouterr().err
        assert "budget spec" in err

    def test_empty_budget_spec_exits_nonzero(self, capsys):
        assert main(["serve", "--budget", ""]) == 2

    def test_bad_slo_exits_nonzero(self, capsys):
        assert main(["serve", "--policy", "slo", "--slo", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--slo" in err

    def test_bad_rate_exits_nonzero(self, capsys):
        assert main(["serve", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_bad_horizon_exits_nonzero(self, capsys):
        assert main(["serve", "--horizon", "-3"]) == 2
        assert "--horizon" in capsys.readouterr().err

    def test_bad_quantile_exits_2(self, capsys):
        assert main(["serve", "--policy", "quantile",
                     "--quantile", "1.5"]) == 2
        _assert_one_line_usage_error(capsys, "serve", "admission_quantile")

    def test_bad_queue_exits_2(self, capsys):
        for queue in ("0", "-1"):
            assert main(["serve", "--queue", queue]) == 2
            _assert_one_line_usage_error(capsys, "serve", "max_queue")

    def test_unknown_app_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["serve", "--app", "warp-drive"])

    def test_seed_changes_the_workload(self, capsys):
        assert main(["--seed", "1", "serve", "--app", "kvstore",
                     "--rate", "50", "--horizon", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "2", "serve", "--app", "kvstore",
                     "--rate", "50", "--horizon", "1"]) == 0
        second = capsys.readouterr().out
        assert first != second


def _assert_one_line_usage_error(capsys, command, needle):
    err = capsys.readouterr().err
    assert err.startswith(f"repro-energy {command}: ")
    assert err.count("\n") == 1 and needle in err
    assert "Traceback" not in err


class TestChaosCommand:
    def test_smoke_run(self, capsys):
        assert main(["chaos", "--rate", "50", "--horizon", "1"]) == 0
        out = capsys.readouterr().out
        assert "chaos report" in out and "faults injected" in out

    @pytest.mark.parametrize("argv,needle", [
        (["--retries", "0"], "max_attempts"),
        (["--deadline", "-1"], "deadline"),
        (["--fault-rate", "1.5"], "--fault-rate"),
        (["--min-goodput", "2"], "--min-goodput"),
        (["--rate", "0"], "--rate"),
        (["--budget", "banana"], "budget spec"),
        (["--queue", "0"], "max_queue"),
    ])
    def test_usage_errors_exit_2(self, capsys, argv, needle):
        assert main(["chaos", *argv]) == 2
        _assert_one_line_usage_error(capsys, "chaos", needle)


class TestFleetCommand:
    def test_smoke_run(self, capsys):
        assert main(["fleet", "--rate", "100", "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "fleet report" in out
        assert "goodput / J" in out
        assert "budget violations" in out

    def test_balancer_and_replica_knobs(self, capsys):
        assert main(["fleet", "--rate", "100", "--horizon", "5",
                     "--replicas", "6", "--balancer", "power-of-two",
                     "--workload", "flash"]) == 0
        out = capsys.readouterr().out
        assert "power-of-two" in out
        assert out.count(",") >= 5  # six per-replica dispatch counts

    def test_json_output(self, capsys, tmp_path):
        target = tmp_path / "fleet.json"
        assert main(["fleet", "--rate", "50", "--horizon", "2",
                     "--json", str(target)]) == 0
        document = json.loads(target.read_text())
        assert document["n_replicas"] == 4
        assert document["violations"] == {}

    def test_fault_rate_run_is_clean_on_budget(self, capsys):
        assert main(["fleet", "--rate", "100", "--horizon", "5",
                     "--fault-rate", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "fleet report" in out

    def test_min_goodput_gate(self, capsys):
        # Starve the budget so requests are rejected, then demand 100%.
        assert main(["fleet", "--rate", "200", "--horizon", "5",
                     "--budget", "0.05J+0.01W",
                     "--min-goodput", "1.0"]) == 1
        err = capsys.readouterr().err
        assert "--min-goodput" in err

    def test_usage_errors_exit_2(self, capsys):
        assert main(["fleet", "--replicas", "0"]) == 2
        assert main(["fleet", "--tenants", "0"]) == 2
        assert main(["fleet", "--rate", "0"]) == 2
        assert main(["fleet", "--fault-rate", "1.5"]) == 2
        assert main(["fleet", "--min-goodput", "2"]) == 2
        assert main(["fleet", "--budget", "banana"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["--budget", "banana"],
        ["--lease-ttl", "0"],
        ["--balancer", "nope"],
    ])
    def test_bad_option_exits_2_before_any_trace(self, capsys, monkeypatch,
                                                 argv):
        import repro.workloads

        def no_trace(*args, **kwargs):
            raise AssertionError("arrival trace generated before the "
                                 "options were checked")
        for generator in ("poisson_arrivals", "flash_crowd_arrivals",
                          "diurnal_arrivals"):
            monkeypatch.setattr(repro.workloads, generator, no_trace)
        try:
            code = main(["fleet", "--rate", "5000", "--horizon", "60",
                         *argv])
        except SystemExit as exit_:  # argparse rejects --balancer itself
            code = exit_.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_seed_replays_bitwise(self, capsys):
        args = ["--seed", "3", "fleet", "--rate", "100", "--horizon", "5",
                "--balancer", "power-of-two"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
