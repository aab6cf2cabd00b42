"""Tests for the additive effort record (repro.effort) and its reach:
one counter recorded at one call site must arrive in every report,
fold and artifact without any other edit."""

from helpers import LinearTemplate
from repro.core import OptimizerConfig, YieldOptimizer
from repro.effort import Effort
from repro.evaluation import Evaluator
from repro.reporting import health_table
from repro.runtime import load_checkpoint
from repro.yieldsim import OperationalMC, ShardPlan, merge_reports
from repro.yieldsim.telemetry import RunReport

THETA = {"f>=": {"temp": 27.0}}
D = {"d0": 1.0, "d1": 0.0}


class TestEffortAlgebra:
    def test_count_snapshot_delta_fold(self):
        effort = Effort()
        effort.count("simulations", 3)
        before = effort.snapshot()
        effort.count("simulations")
        effort.count("dc_effort.newton", 2)
        delta = effort - before
        assert delta == Effort({"simulations": 1, "dc_effort.newton": 2})
        assert before["simulations"] == 3  # the snapshot is independent
        assert (before + delta) == effort

    def test_delta_drops_still_counters_but_keeps_declared_ones(self):
        effort = Effort(declare=["warm_cache.evictions"])
        effort.count("constraint", 5)
        before = effort.snapshot()
        effort.count("requests")
        assert (effort - before).to_dict() == {
            "warm_cache": {"evictions": 0}, "requests": 1}

    def test_dict_round_trip_nests_at_the_first_dot(self):
        effort = Effort({"simulations": 4, "dc_effort.newton-warm": 3},
                        declare=["dc_effort.failed"])
        data = effort.to_dict()
        assert data == {"dc_effort": {"failed": 0, "newton-warm": 3},
                        "simulations": 4}
        assert Effort.from_dict(data) == effort
        assert Effort.from_dict(data).to_dict() == data
        assert effort.namespace("dc_effort") == {"failed": 0,
                                                 "newton-warm": 3}

    def test_clear_keeps_only_declared_keys(self):
        effort = Effort({"extra": 2, "kept": 1}, declare=["kept"])
        effort.clear()
        assert effort.to_dict() == {"kept": 0}


class ProbeTemplate(LinearTemplate):
    """A template that counts a counter no production code knows."""

    def evaluate(self, d, s_hat, theta):
        self.effort.count("probe.evaluations")
        return super().evaluate(d, s_hat, theta)


class TestANewCounterReachesEveryLayer:
    def test_run_report_and_shard_merge(self):
        report = OperationalMC().estimate(
            Evaluator(ProbeTemplate()), D, THETA, n_samples=40,
            seed=3).report
        data = report.to_dict()
        assert data["probe"] == {"evaluations": report.simulations}
        assert RunReport.from_dict(data).effort == report.effort

        shards = [OperationalMC().estimate(
            Evaluator(ProbeTemplate()), D, THETA, n_samples=40, seed=3,
            shard=ShardPlan(index, 2)).report for index in range(2)]
        merged = merge_reports(shards)
        assert merged.probe == {"evaluations": sum(
            shard.probe["evaluations"] for shard in shards)}
        assert merged.probe["evaluations"] == merged.simulations > 0

    def test_pooled_optimizer_checkpoint_and_health_table(self, tmp_path):
        path = str(tmp_path / "ck.json")
        template = ProbeTemplate()
        result = YieldOptimizer(
            template,
            OptimizerConfig(n_samples_linear=500, n_samples_verify=40,
                            max_iterations=1, seed=11, jobs=2),
            checkpoint_path=path).run()
        assert result.pool_tasks > 0
        probed = result.effort["probe.evaluations"]
        # Pool workers fold their template effort into the parent's:
        # every simulation the parent counts ran the probe at least once
        # somewhere in the fleet.
        assert probed >= result.total_simulations > 0
        assert probed == template.effort["probe.evaluations"]

        verified = result.records[-1].mc.report
        assert verified.probe["evaluations"] > 0
        restored = load_checkpoint(path, ProbeTemplate())
        assert restored.records[-1].mc.report.effort == verified.effort

        assert f"evaluations={probed}" in health_table(result)
