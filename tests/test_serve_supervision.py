"""Tests for worker supervision in ``repro.serve``: heartbeats,
bounded fault-classified retry, wedge detection, running-job
cancellation, graceful drain, and the client's polling backoff.

The retry/wedge/cancel scenarios monkeypatch the pool worker function
(``repro.serve.server.execute_yield_job``) with deterministic stand-ins
defined at module top level — the pool pickles them by reference, and
the forked children import this module off the test path.
"""

import asyncio
import os
import time

import pytest

from repro.errors import AnalysisError, NetlistError
from repro.serve import (ResultStore, ServeApp, ServeClient, ServerThread,
                         WriteAheadLog, make_provenance, worker_heartbeat,
                         wrap_result)
from repro.serve.queue import CANCELLED, DONE, FAILED, QUEUED, RUNNING
from repro.statistics import wilson_interval
from repro.yieldsim import SufficientStats, YieldResult
from repro.yieldsim.result import KIND_BINOMIAL

REQUEST = {"circuit": "ota", "estimator": "qmc", "n_samples": 8,
           "seed": 3}


def stub_artifact():
    """A minimal contract-valid yield artifact for stub workers."""
    k, n = 7, 10
    stats = SufficientStats(kind=KIND_BINOMIAL, n=n, successes=k,
                            failed=0, w_sum=float(n), w_sq_sum=float(n),
                            w_pass_sum=float(k), w_sq_pass_sum=float(k))
    low, high = wilson_interval(k, n, 0.95)
    result = YieldResult(estimator="mc", estimate=k / n, n_samples=n,
                         simulations=n, ci_low=low, ci_high=high,
                         ci_level=0.95, ess=float(n), failed_samples=0,
                         stats=stats)
    return wrap_result(result, make_provenance(
        template="ota", seed=3, estimator="mc", n_samples=n,
        command="yield"))


# -- pool worker stand-ins (top level: must pickle by reference) -----------
def flaky_worker(payload):
    """Transient fault on the first attempt, clean result after."""
    if payload["attempt"] == 1:
        raise AnalysisError("transient solver blow-up")
    with worker_heartbeat(payload.get("heartbeat"), interval_s=0.05):
        return stub_artifact()


def structural_worker(payload):
    raise NetlistError("no such node: vout")


def always_transient_worker(payload):
    raise AnalysisError("still broken")


def sleepy_worker(payload):
    """Heartbeats, then blocks far longer than any test timeout."""
    with worker_heartbeat(payload.get("heartbeat"), interval_s=0.05):
        time.sleep(60.0)
    return stub_artifact()


def wedged_then_ok_worker(payload):
    """First attempt wedges silently (no heartbeat); retry succeeds."""
    if payload["attempt"] == 1:
        time.sleep(60.0)
    with worker_heartbeat(payload.get("heartbeat"), interval_s=0.05):
        return stub_artifact()


def fast_worker(payload):
    with worker_heartbeat(payload.get("heartbeat"), interval_s=0.05):
        return stub_artifact()


def run_app(coro_fn, **app_kwargs):
    async def runner():
        app = ServeApp(**app_kwargs)
        try:
            return await coro_fn(app)
        finally:
            await app.close()
    return asyncio.run(runner())


async def poll_until(predicate, timeout_s=30.0, message="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.01)


class TestWorkerHeartbeat:
    def test_touches_file_until_exit(self, tmp_path):
        path = str(tmp_path / "beat")
        with worker_heartbeat(path, interval_s=0.02):
            time.sleep(0.1)
            assert os.path.exists(path)
            first = os.stat(path).st_mtime
            time.sleep(0.1)
            assert os.stat(path).st_mtime > first
        stopped = os.stat(path).st_mtime
        time.sleep(0.1)
        assert os.stat(path).st_mtime == stopped

    def test_none_path_is_a_no_op(self):
        with worker_heartbeat(None, interval_s=0.01):
            pass


class TestRetryPolicy:
    def test_transient_fault_is_retried_with_backoff(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            flaky_worker)

        async def scenario(app):
            job = await app.submit({"kind": "yield", "request": REQUEST})
            await app.wait_idle()
            return app.status(job["id"]), app.stats()
        record, stats = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=1,
            retry_backoff_s=0.01)
        assert record["state"] == DONE, record["error"]
        assert record["attempt"] == 2
        # the successful attempt clears the transient error
        assert record["error"] is None
        assert stats["queue"]["retries"] == 1

    def test_structural_fault_fails_on_first_attempt(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            structural_worker)

        async def scenario(app):
            job = await app.submit({"kind": "yield", "request": REQUEST})
            await app.wait_idle()
            return app.status(job["id"])
        record = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=1,
            retry_backoff_s=0.01)
        assert record["state"] == FAILED
        assert record["attempt"] == 1
        assert "NetlistError" in record["error"]

    def test_retries_are_bounded_by_max_attempts(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            always_transient_worker)

        async def scenario(app):
            job = await app.submit({"kind": "yield", "request": REQUEST})
            await app.wait_idle()
            return app.status(job["id"]), app.stats()
        record, stats = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=1,
            max_attempts=2, retry_backoff_s=0.01)
        assert record["state"] == FAILED
        assert record["attempt"] == 2
        assert stats["queue"]["retries"] == 1


class TestCancellation:
    def test_cancel_running_job_kills_the_worker(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            sleepy_worker)
        store = ResultStore(str(tmp_path / "s"))

        async def scenario(app):
            job = await app.submit({"kind": "yield", "request": REQUEST})
            job_id = job["id"]
            # wait for the worker to actually pick the task up (it
            # heartbeats as its first act)
            await poll_until(
                lambda: os.path.exists(store.heartbeat_path(job_id)),
                message="worker heartbeat")
            record = app.cancel(job_id)
            assert record["state"] == CANCELLED
            assert record["stop_reason"] == "cancelled"
            await app.wait_idle()

            # the pool was killed to enforce the cancellation, and a
            # fresh pool serves the next job
            assert app.pool_kills >= 1
            monkeypatch.setattr("repro.serve.server.execute_yield_job",
                                fast_worker)
            replacement = await app.submit(
                {"kind": "yield",
                 "request": dict(REQUEST, seed=4)})
            await app.wait_idle()
            return app.status(job_id), app.status(replacement["id"])
        cancelled, replacement = run_app(scenario, store=store, workers=1)
        assert cancelled["state"] == CANCELLED
        assert replacement["state"] == DONE, replacement["error"]


class TestWedgeDetection:
    def test_stale_heartbeat_kills_pool_and_retries(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            wedged_then_ok_worker)

        async def scenario(app):
            job = await app.submit({"kind": "yield", "request": REQUEST})
            await app.wait_idle()
            return app.status(job["id"]), app.pool_kills
        record, pool_kills = run_app(
            scenario, store=ResultStore(str(tmp_path / "s")), workers=1,
            heartbeat_timeout_s=0.5, supervise_interval_s=0.05,
            retry_backoff_s=0.01)
        assert record["state"] == DONE, record["error"]
        assert record["attempt"] == 2
        assert pool_kills >= 1


class TestDrain:
    def test_drain_leaves_interrupted_jobs_recoverable(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            sleepy_worker)
        store_dir = str(tmp_path / "s")

        async def scenario():
            store = ResultStore(store_dir)
            app = ServeApp(store, workers=1)
            job = await app.submit({"kind": "yield", "request": REQUEST})
            job_id = job["id"]
            await poll_until(
                lambda: os.path.exists(store.heartbeat_path(job_id)),
                message="worker heartbeat")
            await app.drain(grace_s=0.1)
            # draining daemons reject new work
            from repro.errors import ServeError
            with pytest.raises(ServeError, match="draining"):
                await app.submit({"kind": "yield", "request": REQUEST})
            await app.close()

            # the WAL still carries the job as running: an orphan for
            # the next daemon start to recover
            orphans = WriteAheadLog(store.wal_path()).orphans()
            assert (job_id, RUNNING) in orphans

            monkeypatch.setattr("repro.serve.server.execute_yield_job",
                                fast_worker)
            revived = ServeApp(ResultStore(store_dir), workers=1)
            recovered = revived.queue.get(job_id)
            assert recovered.state == QUEUED
            assert recovered.attempt == 2
            assert recovered.recovered is True
            assert job_id in revived.recovered_jobs
            revived.start()
            try:
                await revived.wait_idle()
                return revived.status(job_id)
            finally:
                await revived.close()
        record = asyncio.run(scenario())
        assert record["state"] == DONE, record["error"]
        assert record["attempt"] == 2
        assert record["recovered"] is True


class TestClientBackoff:
    def test_jitter_bounds_without_retry_after(self):
        client = ServeClient("http://example.invalid")
        for _ in range(100):
            value = client.next_poll_s(1.0, max_poll_s=5.0)
            assert 0.75 <= value <= 1.25

    def test_retry_after_acts_as_a_floor(self):
        client = ServeClient("http://example.invalid")
        client.last_headers = {"retry-after": "3"}
        assert client.retry_after_s() == 3.0
        for _ in range(100):
            value = client.next_poll_s(0.2, max_poll_s=5.0)
            assert 2.25 <= value <= 3.75

    def test_retry_after_is_capped_by_max_poll(self):
        client = ServeClient("http://example.invalid")
        client.last_headers = {"retry-after": "60"}
        for _ in range(100):
            value = client.next_poll_s(0.2, max_poll_s=5.0)
            assert 3.75 <= value <= 6.25

    def test_malformed_retry_after_is_ignored(self):
        client = ServeClient("http://example.invalid")
        client.last_headers = {"retry-after": "soon"}
        assert client.retry_after_s() is None

    def test_server_sends_retry_after_on_pending_jobs(self, tmp_path):
        with ServerThread(str(tmp_path / "store"), workers=1) as server:
            client = ServeClient(server.url)
            job = client.submit({"kind": "yield", "request": REQUEST})
            if job["state"] in ("queued", "running"):
                assert client.retry_after_s() == 1.0
            final = client.wait(job["id"], timeout_s=300, poll_s=0.05)
            assert final["state"] == DONE, final.get("error")
            # terminal responses carry no Retry-After
            assert client.retry_after_s() is None


def http_error(url, payload=None):
    """``(status, Retry-After, error text)`` of a request the server
    refuses."""
    import json
    import urllib.error
    import urllib.request
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=(
        "GET" if payload is None else "POST"))
    with pytest.raises(urllib.error.HTTPError) as refused:
        urllib.request.urlopen(request, timeout=30)
    error = refused.value
    return (error.code, error.headers.get("Retry-After"),
            json.loads(error.read().decode())["error"])


class TestTypedErrorStatus:
    def test_pending_result_is_409_and_draining_submit_is_503(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.serve.server.execute_yield_job",
                            sleepy_worker)
        with ServerThread(str(tmp_path / "store"), workers=1) as server:
            job = ServeClient(server.url).submit(
                {"kind": "yield", "request": REQUEST})
            status, retry, text = http_error(
                f"{server.url}/v1/jobs/{job['id']}/result")
            assert status == 409 and retry == "1"
            assert text.startswith(f"job {job['id']} is ")

            asyncio.run_coroutine_threadsafe(
                server.app.drain(grace_s=0.0), server._loop).result(30)
            status, retry, text = http_error(
                f"{server.url}/v1/jobs", {"kind": "yield",
                                          "request": REQUEST})
            assert status == 503 and retry == "1"
            assert "draining" in text

            status, retry, text = http_error(
                f"{server.url}/v1/jobs/doesnotexist")
            assert status == 404 and retry is None
