"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_circuit_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["optimize", "nonsense"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "miller"])
        assert args.iterations == 5
        assert args.samples == 10000
        assert not args.no_constraints

    def test_ablation_flags(self):
        args = build_parser().parse_args(
            ["optimize", "folded-cascode", "--no-constraints",
             "--nominal-linearization"])
        assert args.no_constraints
        assert args.nominal_linearization


class TestEvaluateCommand:
    def test_prints_performances(self, capsys):
        assert main(["evaluate", "ota"]) == 0
        out = capsys.readouterr().out
        assert "nominal performances" in out
        assert "a0" in out and "noise" in out
        assert "PASS" in out
        assert "sizing rules" in out


class TestSimulateCommand:
    def test_netlist_file(self, tmp_path, capsys):
        netlist = tmp_path / "divider.sp"
        netlist.write_text(
            "divider\nV1 in 0 DC 2.0\nR1 in out 1k\nR2 out 0 1k\n.end\n")
        assert main(["simulate", str(netlist)]) == 0
        out = capsys.readouterr().out
        assert "V(out) = 1.000000" in out

    def test_ac_readout(self, tmp_path, capsys):
        netlist = tmp_path / "rc.sp"
        netlist.write_text(
            "rc\nV1 in 0 DC 0 AC 1\nR1 in out 1k\nC1 out 0 1u\n.end\n")
        assert main(["simulate", str(netlist), "--node", "out",
                     "--ac", "159.155"]) == 0
        out = capsys.readouterr().out
        assert "-3.0 dB" in out


@pytest.mark.slow
class TestAnalysisCommands:
    def test_corners_exit_code_signals_failures(self, capsys):
        # The OTA initial sizing fails a0 at a hot corner -> exit code 1.
        code = main(["corners", "ota"])
        out = capsys.readouterr().out
        assert "worst value" in out
        assert code in (0, 1)

    def test_analyze_local_only(self, capsys):
        assert main(["analyze", "ota", "--local-only"]) == 0
        out = capsys.readouterr().out
        assert "worst-case distances" in out

    def test_optimize_quick(self, capsys):
        code = main(["optimize", "ota", "--iterations", "1",
                     "--samples", "2000", "--verify-samples", "30",
                     "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Y_tilde" in out
        assert "stop reason:" in out

    def test_optimize_with_faults_and_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "run.ckpt.json"
        # The fault seed must inject faults without ever exhausting the
        # retry budget on one point: model building runs strict, so a
        # point whose original and jittered probes all fault aborts the
        # run (by design).  Injection is point-deterministic, so the
        # safe seeds shift whenever evaluation values move the search
        # trajectory at all.
        args = ["optimize", "ota", "--iterations", "1",
                "--samples", "2000", "--verify-samples", "30",
                "--seed", "3", "--inject-faults", "0.05",
                "--fault-seed", "2", "--checkpoint", str(checkpoint)]
        code = main(args)
        assert code == 0
        out = capsys.readouterr().out
        assert "stop reason:" in out
        assert checkpoint.exists()
        # Resuming from the finished run's checkpoint replays the same
        # trace without re-optimizing.
        code = main(args + ["--resume"])
        assert code == 0
        resumed = capsys.readouterr().out
        assert "stop reason:" in resumed
        assert "final design" in out

    def test_optimize_with_faults_reports_the_simulating_template(
            self, tmp_path, capsys):
        """``--inject-faults`` wraps its own evaluator: the effort the run
        reports must be that evaluator's template's, not an idle
        second instance's."""
        import json
        out = tmp_path / "opt.json"
        code = main(["optimize", "ota", "--iterations", "1",
                     "--samples", "2000", "--verify-samples", "30",
                     "--seed", "3", "--inject-faults", "0.05",
                     "--fault-seed", "2", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert sum(result["dc_effort"].values()) > 0
        assert result["warm_cache"]["hits"] > 0
        assert "dc_effort" in capsys.readouterr().out


@pytest.mark.slow
class TestYieldCommand:
    def test_pooled_run_reports_worker_template_effort(self, capsys):
        """``--jobs 2`` folds the workers' DC and warm-start effort into
        the report, and its estimate equals the serial run's."""
        import json
        args = ["yield", "ota", "--estimator", "mc", "--samples", "24",
                "--seed", "3", "--json"]
        assert main(args) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(args + ["--jobs", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert pooled["report"]["backend"] == "process-pool"
        report = pooled["report"]
        assert sum(report["dc_effort"].values()) > 0
        assert sum(report["warm_cache"].values()) > 0
        for key in ("estimate", "ci_low", "ci_high", "n_samples",
                    "simulations", "bad_fraction", "performance_mean"):
            assert pooled[key] == serial[key], key


class TestOptimizeWithSuppliedEvaluator:
    def test_linsolve_reaches_the_evaluated_template(self):
        from repro.circuits import CIRCUITS
        from repro.evaluation import Evaluator
        from repro.runtime import FaultInjectingEvaluator
        from repro.serve.jobs import OptimizeRequest, execute_optimize
        template = CIRCUITS["ota"]()
        evaluator = FaultInjectingEvaluator(Evaluator(template))
        result = execute_optimize(
            OptimizeRequest(circuit="ota", iterations=1,
                            samples_linear=500, samples_verify=8,
                            seed=3, linsolve="sparse"),
            evaluator=evaluator)
        assert template.linsolve == "sparse"
        assert result.dc_effort == template.dc_effort_stats()
        assert sum(result.dc_effort.values()) > 0
