"""Tests for the version-2 checkpoint compaction (delta-encoded
worst-case blocks) and for atomic, durable checkpoint writes."""

import copy
import json
import os
from concurrent.futures import ProcessPoolExecutor

from helpers import LinearTemplate
from repro.core.optimizer import OptimizerConfig, YieldOptimizer
from repro.evaluation import Evaluator
from repro.runtime import (CHECKPOINT_VERSION, OptimizerCheckpoint,
                           READABLE_VERSIONS, load_checkpoint,
                           record_to_dict, save_checkpoint,
                           splice_merged_result)
from repro.yieldsim import OperationalMC
from repro.runtime.checkpoint import _wc_to_dict


def checkpointed_run(tmp_path, name="ck.json"):
    path = str(tmp_path / name)
    config = OptimizerConfig(max_iterations=3, n_samples_linear=400,
                             n_samples_verify=60, multistart=1, seed=7,
                             min_improvement=-1.0)
    result = YieldOptimizer(LinearTemplate(), config,
                            checkpoint_path=path).run()
    return path, config, result


def assert_states_equal(restored, state):
    assert restored.iteration == state.iteration
    assert restored.d_f == state.d_f
    assert len(restored.records) == len(state.records)
    for ours, theirs in zip(restored.records, state.records):
        assert record_to_dict(ours) == record_to_dict(theirs)
    if state.previous_wc is None:
        assert restored.previous_wc is None
    else:
        assert {k: _wc_to_dict(v)
                for k, v in restored.previous_wc.items()} == \
            {k: _wc_to_dict(v) for k, v in state.previous_wc.items()}


class TestCompaction:
    def test_markers_appear_for_repeated_worst_case_blocks(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        # force guaranteed repetition: append bitwise copies of the last
        # record (a converged run repeats its worst-case blocks exactly)
        last = state.records[-1]
        for offset in (1, 2):
            duplicate = copy.deepcopy(last)
            duplicate.index = last.index + offset
            state.records.append(duplicate)
        state.previous_wc = dict(last.worst_case)
        out = str(tmp_path / "compact.json")
        save_checkpoint(out, state)
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["version"] == CHECKPOINT_VERSION == 2
        for record in payload["records"][-2:]:
            assert set(record["worst_case"].values()) == {"@prev"}
        assert set(payload["previous_wc"].values()) == {"@prev"}
        # the first record is always stored in full
        first = payload["records"][0]["worst_case"]
        assert all(isinstance(wc, dict) for wc in first.values())

    def test_round_trip_is_bit_identical(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        duplicate = copy.deepcopy(state.records[-1])
        duplicate.index += 1
        state.records.append(duplicate)
        state.previous_wc = dict(duplicate.worst_case)
        out = str(tmp_path / "compact.json")
        save_checkpoint(out, state)
        restored = load_checkpoint(out, LinearTemplate())
        assert_states_equal(restored, state)
        # saving the restored state reproduces the same bytes
        again = str(tmp_path / "again.json")
        save_checkpoint(again, restored)
        with open(out) as a, open(again) as b:
            assert a.read() == b.read()

    def test_resume_through_compacted_checkpoint(self, tmp_path):
        path, config, result = checkpointed_run(tmp_path)
        with open(path) as handle:
            assert json.load(handle)["version"] == 2
        resumed = YieldOptimizer(LinearTemplate(), config,
                                 checkpoint_path=path, resume=True).run()
        assert resumed.d_final == result.d_final
        assert [r.yield_mc for r in resumed.records] == \
            [r.yield_mc for r in result.records]

    def test_version_1_checkpoints_still_load(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        # re-serialize the exact payload the version-1 writer produced:
        # full worst-case blocks, no markers
        payload = {
            "version": 1,
            "template_name": state.template_name,
            "seed": state.seed,
            "iteration": state.iteration,
            "d_f": dict(state.d_f),
            "records": [record_to_dict(r) for r in state.records],
            "previous_wc": None if state.previous_wc is None else {
                key: _wc_to_dict(wc)
                for key, wc in state.previous_wc.items()},
            "sample_state": dict(state.sample_state),
            "counters": dict(state.counters),
            "wall_time_s": state.wall_time_s,
            "stop_reason": state.stop_reason,
        }
        legacy = tmp_path / "v1.json"
        legacy.write_text(json.dumps(payload))
        assert 1 in READABLE_VERSIONS
        restored = load_checkpoint(str(legacy), LinearTemplate())
        assert_states_equal(restored, state)

    def test_compaction_shrinks_the_file(self, tmp_path):
        path, _, _ = checkpointed_run(tmp_path)
        state = load_checkpoint(path, LinearTemplate())
        for offset in range(1, 6):
            duplicate = copy.deepcopy(state.records[-1])
            duplicate.index += offset
            state.records.append(duplicate)
        compact = str(tmp_path / "compact.json")
        save_checkpoint(compact, state)
        expanded = len(json.dumps(
            [record_to_dict(r)["worst_case"] for r in state.records]))
        with open(compact) as handle:
            stored = len(json.dumps(
                [r["worst_case"]
                 for r in json.load(handle)["records"]]))
        assert stored < 0.5 * expanded


def hammer_checkpoints(job):
    """Worker: write ``writes`` distinct checkpoints to one path."""
    path, tag, writes = job
    for index in range(writes):
        checkpoint = OptimizerCheckpoint(
            template_name=tag, seed=index, iteration=index,
            d_f={"d0": float(index)},
            sample_state={"write": index},
            counters={"simulations": index})
        save_checkpoint(path, checkpoint)
    return tag


class TestConcurrentWrites:
    def test_parallel_jobs_never_interleave(self, tmp_path):
        """Two jobs hammering distinct checkpoint paths from separate
        processes: every observable file state is one complete,
        internally consistent JSON document (the atomic temp-file +
        rename protocol), never a mix of the two writers."""
        jobs = [(str(tmp_path / f"job{n}.json"), f"job{n}", 40)
                for n in range(2)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(hammer_checkpoints, job)
                       for job in jobs]
            observations = 0
            while not all(f.done() for f in futures):
                for path, tag, _ in jobs:
                    try:
                        with open(path) as handle:
                            payload = json.load(handle)
                    except (OSError, ValueError):
                        continue  # not yet created; never half-written
                    # a parse that succeeds must be one writer's complete
                    # payload: the tag matches the path and the monotone
                    # fields agree with each other
                    assert payload["template_name"] == tag
                    assert payload["iteration"] == \
                        payload["sample_state"]["write"] == \
                        payload["counters"]["simulations"]
                    observations += 1
            assert [f.result() for f in futures] == ["job0", "job1"]
        assert observations > 0
        for path, tag, writes in jobs:
            with open(path) as handle:
                final = json.load(handle)
            assert final["template_name"] == tag
            assert final["iteration"] == writes - 1
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []


class TestDurableWrites:
    def test_writes_fsync_the_temp_file_before_the_rename(self, tmp_path,
                                                          monkeypatch):
        """Both checkpoint writers flush and fsync the temp file before
        ``os.replace`` publishes it, so a crash after the rename cannot
        leave a checkpoint whose data never reached the disk."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = str(tmp_path / "ck.json")
        save_checkpoint(path, OptimizerCheckpoint(
            template_name="linear", seed=0, iteration=0,
            d_f={"d0": 1.0, "d1": 0.0}))
        assert [kind for kind, _ in events] == ["fsync", "replace"]
        assert events[0][1] == events[1][1]  # the renamed temp file
        with open(path) as handle:
            payload = json.load(handle)
        payload["records"] = [{"mc": None}]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        result = OperationalMC().estimate(
            Evaluator(LinearTemplate()), {"d0": 1.0, "d1": 0.0},
            {"f>=": {"temp": 27.0}}, n_samples=8, seed=1)
        events.clear()
        splice_merged_result(path, result)
        assert [kind for kind, _ in events] == ["fsync", "replace"]
        assert events[0][1] == events[1][1]  # the renamed temp file
        with open(path) as handle:
            assert json.load(handle)["records"][0]["yield_mc"] == \
                result.estimate
