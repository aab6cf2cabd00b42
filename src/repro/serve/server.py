"""The ``repro.serve`` daemon: asyncio HTTP front end, durable job
dispatch, worker supervision, shard orchestration, and the
content-addressed cache path.

Layering::

    ServeDaemon   -- minimal HTTP/1.1 on asyncio streams (stdlib only)
      ServeApp    -- submit/status/result/cancel/stats; owns the queue,
                     the WAL, the result store, the worker pool, and
                     the supervisor task
        JobQueue  -- priority scheduling (repro.serve.queue), WAL-backed
        WriteAheadLog -- durable job transitions (repro.serve.wal)
        ResultStore -- content-addressed artifacts + per-job optimizer
                     checkpoints + heartbeat files (repro.serve.store)
        workers   -- repro.serve.jobs.execute_yield_job /
                     execute_optimize_job in a ProcessPoolExecutor

**Durability.**  Every queue transition is WAL-appended before it takes
effect, so construction replays the log: terminal jobs rejoin the
registry (their artifacts live in the store), queued jobs re-enter the
heap, and jobs that were *running* when the previous process died are
re-enqueued with ``attempt + 1`` and ``recovered: true``.  A recovered
``optimize`` job resumes from its store-owned checkpoint and — by the
runtime's determinism contract — reproduces the uninterrupted
trajectory bit-identically (see
:func:`~repro.serve.jobs.trace_fingerprint`).

**Supervision.**  Workers heartbeat a per-job file once a second; the
supervisor reads the file's mtime.  A running job whose heartbeat goes
stale past ``heartbeat_timeout_s`` is declared wedged: the pool is
killed (the same degradation path :class:`BrokenProcessPool` failures
take) and every affected job is retried with exponential backoff,
``retry_backoff_s * 2**(attempt-1)``, up to ``max_attempts``.  Worker
faults are classified through the runtime's
:class:`~repro.runtime.FaultPolicy` taxonomy: transient analysis
failures and pool breakage retry; structural errors fail the job
immediately.  The supervisor also compacts the WAL and runs store GC
(protecting live jobs' checkpoints) in the background.

**Cancellation** of a running job cancels its pool futures and, when a
worker already picked the task up, kills the pool — the job records
``stop_reason="cancelled"`` and innocent siblings caught in the pool
kill are retried, not failed.

**Drain** (``SIGTERM``): stop accepting submissions, give running jobs
a grace period, then kill the pool and compact the WAL — interrupted
jobs stay ``running`` in the log, so the next start recovers them.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional

from ..errors import (ArtifactError, DrainingError, JobPendingError,
                      ReproError, ServeError)
from .jobs import (OptimizeRequest, YieldRequest, cache_key,
                   execute_optimize_job, execute_yield_job,
                   merge_artifacts, optimize_cache_key)
from .queue import CANCELLED, DONE, Job, JobQueue, QUEUED, RUNNING
from .store import ResultStore
from .wal import WriteAheadLog

#: API version prefix of every route
API_PREFIX = "/v1"

#: job kinds this build serves
_KINDS = ("yield", "optimize")

#: WAL appends between background compactions
_COMPACT_EVERY = 500

#: exception types that indicate the worker died rather than the job
#: being wrong (always retryable, like the BatchExecutor degradation)
_POOL_FAULTS = (BrokenProcessPool, ConnectionError, OSError)


def _pool_worker_guard(poll_interval_s: float = 1.0) -> None:
    """Pool-worker initializer: hard-exit when the daemon dies.

    A SIGKILLed daemon cannot clean up its pool, and an orphaned
    worker would otherwise block forever on the call queue.  The guard
    watches for re-parenting (``getppid`` changes when the parent is
    gone) from a daemon thread and exits the worker outright.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(poll_interval_s)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _is_retryable(exc: BaseException) -> bool:
    """True when a failed attempt should be retried: the pool broke
    under it, or the fault classifies as transient in the runtime's
    :class:`~repro.runtime.FaultPolicy` taxonomy."""
    if isinstance(exc, _POOL_FAULTS):
        return True
    from ..runtime import FaultAction, FaultPolicy
    return FaultPolicy().classify(exc) == FaultAction.RETRY


class ServeApp:
    """The daemon's protocol-independent core (one per event loop)."""

    def __init__(self, store: ResultStore, workers: int = 2,
                 max_concurrent: Optional[int] = None,
                 max_queued_per_tenant: Optional[int] = None,
                 heartbeat_timeout_s: float = 60.0,
                 supervise_interval_s: float = 1.0,
                 max_attempts: int = 3,
                 retry_backoff_s: float = 0.5,
                 retry_after_s: float = 1.0,
                 gc_interval_s: float = 60.0):
        self.store = store
        self.workers = max(1, int(workers))
        self.wal = WriteAheadLog(store.wal_path())
        self.queue = JobQueue(
            max_queued_per_tenant=max_queued_per_tenant, wal=self.wal)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.supervise_interval_s = float(supervise_interval_s)
        self.max_attempts = max(1, int(max_attempts))
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_after_s = float(retry_after_s)
        self.gc_interval_s = float(gc_interval_s)
        self._max_concurrent = max_concurrent or self.workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._results: Dict[str, Dict] = {}
        self._running: set = set()
        #: live pool futures per running job (cancel/supervision handle)
        self._futures: Dict[str, List] = {}
        self._wakeup = asyncio.Event()
        self._closing = False
        self._draining = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._compacted_appends = 0
        self._last_gc = time.monotonic()
        #: pool kills since start (wedge detection + cancellation)
        self.pool_kills = 0
        #: job ids re-enqueued by startup recovery
        self.recovered_jobs: List[str] = []
        self._recover()

    # -- recovery --------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the WAL into the registry; re-enqueue interrupted
        work (see module docstring)."""
        records = self.wal.replay()
        if not records:
            return
        for record in records:
            job = Job.from_dict(record)
            if job.state == RUNNING:
                # The previous process died mid-attempt: back to the
                # queue as a new, recovered attempt.
                job.state = QUEUED
                job.attempt += 1
                job.recovered = True
                job.started_at = None
                job.heartbeat_at = None
                job.error = None
            elif job.state == QUEUED:
                job.recovered = True
            self.queue.restore(job)
            if job.state == QUEUED:
                self.recovered_jobs.append(job.id)
        self._compact_wal()

    def _compact_wal(self) -> None:
        self.wal.compact(job.to_dict()
                         for job in self.queue.jobs.values())
        self._compacted_appends = self.wal.appends

    # -- lifecycle -------------------------------------------------------------
    def _ensure_started(self) -> None:
        loop = asyncio.get_running_loop()
        if self._dispatcher is None:
            self._dispatcher = loop.create_task(self._dispatch_loop())
            # Recovered queued jobs must dispatch without a new submit.
            self._wakeup.set()
        if self._supervisor is None:
            self._supervisor = loop.create_task(self._supervise_loop())

    def start(self) -> None:
        """Start the dispatcher and supervisor on the running loop
        (idempotent; also called lazily by :meth:`submit`)."""
        self._ensure_started()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_worker_guard)
        return self._executor

    def _kill_pool(self) -> None:
        """Forcibly terminate every pool worker (cancellation / wedge
        recovery).  Pending futures raise :class:`BrokenProcessPool`,
        which the retry path classifies as retryable."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        self.pool_kills += 1
        for process in list(
                getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except OSError:  # pragma: no cover - already gone
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    async def drain(self, grace_s: float = 10.0) -> None:
        """Graceful SIGTERM path: stop accepting, give running jobs
        ``grace_s`` to finish, then kill the pool and compact the WAL.
        Interrupted jobs stay ``running`` in the log — the next daemon
        start recovers and resumes them."""
        self._draining = True
        deadline = time.monotonic() + max(0.0, grace_s)
        while self._running and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._running:
            self._kill_pool()
            # Give the broken-pool exceptions a beat to propagate so
            # the WAL compaction below sees settled state.
            await asyncio.sleep(0.05)
        self._compact_wal()

    async def close(self) -> None:
        self._closing = True
        self._wakeup.set()
        for task in (self._dispatcher, self._supervisor):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._dispatcher = None
        self._supervisor = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- API methods -----------------------------------------------------------
    async def submit(self, payload: Mapping) -> Dict:
        """Submit a job; returns the job record (already ``done`` on a
        cache hit)."""
        if not isinstance(payload, Mapping):
            raise ServeError("job submission must be a JSON object")
        if self._draining:
            raise DrainingError("daemon is draining; not accepting jobs")
        kind = payload.get("kind", "yield")
        if kind not in _KINDS:
            raise ServeError(
                f"unsupported job kind {kind!r}; this build serves "
                f"{', '.join(_KINDS)} jobs")
        shards = int(payload.get("shards", 1))
        if shards < 1:
            raise ServeError(f"shards must be >= 1, got {shards}")
        budget = payload.get("budget")
        if budget is not None and not isinstance(budget, Mapping):
            raise ServeError("budget must be an object")
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind,
            request={},
            tenant=str(payload.get("tenant", "default")),
            priority=int(payload.get("priority", 0)),
            shards=shards,
            budget=dict(budget) if budget else None,
            splice_checkpoint=payload.get("splice_checkpoint"))
        if kind == "optimize":
            request = OptimizeRequest.from_dict(
                payload.get("request", {}))
            if shards != 1:
                raise ServeError(
                    "optimize jobs do not shard; submit shards=1 (the "
                    "optimizer owns its own verification parallelism)")
            if job.splice_checkpoint:
                raise ServeError(
                    "splice_checkpoint applies to sharded yield jobs, "
                    "not optimize jobs")
            job.request = request.to_dict()
            job.cache_key = optimize_cache_key(request)
            # Every optimize job owns a store-resident checkpoint: the
            # worker writes it per iteration and a recovered attempt
            # resumes from it.
            job.checkpoint = self.store.checkpoint_path(job.id)
        else:
            request = YieldRequest.from_dict(payload.get("request", {}))
            if request.shard is not None:
                raise ServeError(
                    "submit the unsharded request and set 'shards': N; "
                    "the service orchestrates the shard fan-out itself")
            if shards > request.n_samples:
                raise ServeError(
                    f"cannot split {request.n_samples} samples into "
                    f"{shards} non-empty shards")
            job.request = request.to_dict()
            job.cache_key = cache_key(request, shards=shards)
        cached = self.store.get(job.cache_key)
        if cached is not None:
            job.state = DONE
            job.cache_hit = True
            job.simulations = 0
            job.started_at = job.finished_at = job.submitted_at
            self.queue.submit(job)
            self._results[job.id] = cached
            await self._maybe_splice(job, cached)
            return job.to_dict()
        self._ensure_started()
        self.queue.submit(job)
        self._wakeup.set()
        return job.to_dict()

    def status(self, job_id: str) -> Dict:
        return self.queue.get(job_id).to_dict()

    def result(self, job_id: str) -> Dict:
        """The finished job's artifact, with the job's own accounting
        stamped into the provenance block.  Falls back to the store for
        jobs completed by a previous daemon process."""
        job = self.queue.get(job_id)
        if job.state != DONE:
            error = JobPendingError if job.state in _NONTERMINAL \
                else ServeError
            raise error(f"job {job_id} is {job.state}"
                        + (f": {job.error}" if job.error else ""))
        artifact = self._results.get(job_id)
        if artifact is None:
            # Completed before the last restart: the registry came from
            # the WAL, the artifact from the content-addressed store.
            artifact = self.store.get(job.cache_key)
        if artifact is None:
            raise ServeError(
                f"job {job_id} finished but its artifact was evicted "
                f"from the store; resubmit to recompute")
        stamped = dict(artifact)
        provenance = dict(stamped.get("provenance", {}))
        provenance["job"] = {
            "id": job.id,
            "tenant": job.tenant,
            "cache_hit": job.cache_hit,
            "simulations": job.simulations,
            "shards": job.shards,
            "attempt": job.attempt,
            "recovered": job.recovered,
        }
        stamped["provenance"] = provenance
        return stamped

    def cancel(self, job_id: str) -> Dict:
        """Cancel a job.  A queued job never runs; a running job's pool
        futures are cancelled and, when a worker already picked the
        task up, the pool is killed — the attempt dies with it (caught
        siblings are retried by the supervision path)."""
        job = self.queue.get(job_id)
        was_running = job.state == RUNNING
        job = self.queue.cancel(job_id)
        if was_running and job.state == CANCELLED:
            live = [future for future in self._futures.get(job_id, ())
                    if not future.cancel() and not future.done()]
            if live:
                self._kill_pool()
        return job.to_dict()

    def stats(self) -> Dict:
        now = time.time()
        active = []
        for job in self.queue.active_jobs():
            beat = job.heartbeat_at or job.started_at
            active.append({
                "id": job.id,
                "kind": job.kind,
                "state": job.state,
                "tenant": job.tenant,
                "attempt": job.attempt,
                "recovered": job.recovered,
                "heartbeat_age_s": (round(now - beat, 3)
                                    if job.state == RUNNING and beat
                                    else None),
            })
        return {
            "queue": self.queue.stats(),
            "store": self.store.stats(),
            "workers": self.workers,
            "running": len(self._running),
            "active": active,
            "pool_kills": self.pool_kills,
            "wal": {"appends": self.wal.appends,
                    "compactions": self.wal.compactions,
                    "torn_lines": self.wal.torn_lines},
        }

    async def wait_idle(self) -> None:
        """Block until no job is queued or running (test helper)."""
        while True:
            states = self.queue.stats()["by_state"]
            if not states.get("queued") and not states.get("running") \
                    and not self._running:
                return
            await asyncio.sleep(0.01)

    # -- dispatch --------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while not self._closing:
            self._wakeup.clear()
            while len(self._running) < self._max_concurrent \
                    and not self._draining:
                job = self.queue.pop_next()
                if job is None:
                    break
                self._running.add(job.id)
                asyncio.get_running_loop().create_task(
                    self._run_job(job))
            await self._wakeup.wait()

    async def _run_job(self, job: Job) -> None:
        try:
            deadline = (job.budget or {}).get("deadline_s")
            artifact = await asyncio.wait_for(
                self._execute(job),
                timeout=float(deadline) if deadline else None)
        except asyncio.TimeoutError:
            self.queue.finish(job.id, error="deadline exceeded")
        except asyncio.CancelledError:
            # Our pool future was cancelled: either the job itself was
            # cancelled (terminal already) or the daemon is closing.
            if job.state != CANCELLED and not self._closing:
                raise
        except (ReproError, OSError, RuntimeError, ValueError) as exc:
            await self._handle_failure(job, exc)
        else:
            if job.state == CANCELLED:
                # Cancelled mid-flight: the result is discarded, not
                # stored — the caller asked for it to not exist.
                return
            result = artifact.get("result") or {}
            job.simulations = int(
                result.get("simulations")
                or result.get("total_simulations") or 0)
            max_sims = (job.budget or {}).get("max_simulations")
            if max_sims is not None and job.simulations > int(max_sims):
                job.budget_exceeded = True
            self.store.put(job.cache_key, artifact)
            self._results[job.id] = artifact
            try:
                await self._maybe_splice(job, artifact)
            except ReproError as exc:
                self.queue.finish(
                    job.id, error=f"splice failed: {exc}")
                return
            self.queue.finish(job.id)
        finally:
            self._running.discard(job.id)
            self._futures.pop(job.id, None)
            self._remove_heartbeat(job)
            self._wakeup.set()

    async def _handle_failure(self, job: Job,
                              exc: BaseException) -> None:
        """Failed attempt: retry transient faults with exponential
        backoff, fail structural ones immediately."""
        error = f"{type(exc).__name__}: {exc}"
        if job.state == CANCELLED:
            return
        if self._draining and isinstance(exc, _POOL_FAULTS):
            # Drain killed the pool under this attempt: leave the job
            # `running` in the WAL so the next start recovers it.
            return
        if job.attempt < self.max_attempts and _is_retryable(exc):
            delay = self.retry_backoff_s * (2 ** (job.attempt - 1))
            await asyncio.sleep(delay)
            if job.state == CANCELLED or self._closing:
                return
            self.queue.requeue(job.id, error=error)
        else:
            self.queue.finish(job.id, error=error)

    def _worker_payload(self, job: Job) -> Dict:
        payload = {
            "request": dict(job.request),
            "heartbeat": self.store.heartbeat_path(job.id),
            "attempt": job.attempt,
        }
        if job.kind == "optimize":
            payload["checkpoint"] = job.checkpoint
        return payload

    def _remove_heartbeat(self, job: Job) -> None:
        try:
            os.unlink(self.store.heartbeat_path(job.id))
        except (OSError, ArtifactError):
            pass

    async def _execute(self, job: Job) -> Dict:
        """Run the job's attempt on the pool; pool futures are tracked
        in ``self._futures`` so cancel/supervision can reach them."""
        if job.kind == "optimize":
            worker, payloads = execute_optimize_job, \
                [self._worker_payload(job)]
        elif job.shards <= 1:
            worker, payloads = execute_yield_job, \
                [self._worker_payload(job)]
        else:
            worker = execute_yield_job
            payloads = []
            for index in range(job.shards):
                payload = self._worker_payload(job)
                payload["request"]["shard"] = \
                    f"{index + 1}/{job.shards}"
                payloads.append(payload)
        pool = self._pool()
        futures = [pool.submit(worker, payload)
                   for payload in payloads]
        self._futures[job.id] = futures
        artifacts = await asyncio.gather(
            *(asyncio.wrap_future(future) for future in futures))
        if job.shards <= 1 or job.kind == "optimize":
            return artifacts[0]
        return merge_artifacts(artifacts,
                               YieldRequest.from_dict(job.request),
                               shards=job.shards)

    async def _maybe_splice(self, job: Job, artifact: Dict) -> None:
        """Splice a merged sharded verification into the optimizer
        checkpoint the job names (the shard-launcher absorbing the
        manual ``merge-verify --checkpoint`` step)."""
        if not job.splice_checkpoint:
            return
        from ..runtime import splice_merged_result
        from ..yieldsim import YieldResult
        merged = YieldResult.from_dict(artifact["result"])
        await asyncio.get_running_loop().run_in_executor(
            None, splice_merged_result, job.splice_checkpoint, merged)

    # -- supervision -----------------------------------------------------------
    async def _supervise_loop(self) -> None:
        while not self._closing:
            await asyncio.sleep(self.supervise_interval_s)
            if self._draining:
                continue
            self._check_heartbeats()
            self._maybe_compact()
            self._maybe_gc()

    def _check_heartbeats(self) -> None:
        """Refresh each running job's heartbeat from its file's mtime;
        kill the pool when any beat is stale (wedged or dead worker —
        the broken futures route every affected job into retry)."""
        now = time.time()
        stale = False
        for job_id in list(self._running):
            try:
                job = self.queue.get(job_id)
            except ServeError:
                continue
            if job.state != RUNNING:
                continue
            try:
                job.heartbeat_at = os.stat(
                    self.store.heartbeat_path(job_id)).st_mtime
            except (OSError, ArtifactError):
                pass  # worker hasn't beaten yet: age from started_at
            beat = job.heartbeat_at or job.started_at
            if beat and now - beat > self.heartbeat_timeout_s:
                stale = True
        if stale and self._executor is not None:
            self._kill_pool()

    def _maybe_compact(self) -> None:
        if self.wal.appends - self._compacted_appends >= _COMPACT_EVERY:
            self._compact_wal()

    def _maybe_gc(self) -> None:
        if self.store.max_bytes is None and self.store.max_age_s is None:
            return
        if time.monotonic() - self._last_gc < self.gc_interval_s:
            return
        self._last_gc = time.monotonic()
        protect = []
        for job in self.queue.active_jobs():
            if job.checkpoint:
                protect.append(job.checkpoint)
            protect.append(self.store.heartbeat_path(job.id))
        self.store.gc(protect=protect)


# -- HTTP layer ---------------------------------------------------------------
_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 409: "Conflict",
                500: "Internal Server Error",
                503: "Service Unavailable"}

#: job states a client should poll again after
_NONTERMINAL = (QUEUED, RUNNING)


class ServeDaemon:
    """Minimal HTTP/1.1 JSON front end over :class:`ServeApp`."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        # Dispatcher + supervisor must run even before the first
        # submission: recovered jobs dispatch immediately.
        self.app.start()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.app.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # -- request handling ------------------------------------------------------
    def _retry_after(self) -> Dict[str, str]:
        return {"Retry-After":
                str(max(1, int(round(self.app.retry_after_s))))}

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        headers: Dict[str, str] = {}
        try:
            response = await self._respond(reader)
            status, body = response[0], response[1]
            if len(response) > 2:
                headers = response[2]
        except Exception as exc:  # pragma: no cover - defensive
            status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
        payload = json.dumps(body).encode("utf-8")
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in headers.items())
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, '')}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{extra}"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + payload)
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _respond(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode(
            "latin-1").strip()
        if not request_line:
            return 400, {"error": "empty request"}
        try:
            method, path, _ = request_line.split(" ", 2)
        except ValueError:
            return 400, {"error": f"malformed request line "
                                  f"{request_line!r}"}
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "bad Content-Length"}
        body: Optional[Dict] = None
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                return 400, {"error": f"request body is not JSON: {exc}"}
        return await self._route(method.upper(), path, body)

    async def _route(self, method: str, path: str,
                     body: Optional[Dict]):
        parts = [part for part in path.split("/") if part]
        try:
            if parts == ["v1", "health"] and method == "GET":
                return 200, {"status": "ok",
                             "jobs": self.app.queue.stats()["by_state"]}
            if parts == ["v1", "stats"] and method == "GET":
                return 200, self.app.stats()
            if parts == ["v1", "jobs"] and method == "POST":
                job = await self.app.submit(body or {})
                if job.get("state") in _NONTERMINAL:
                    # Accepted but not done: tell pollers how long to
                    # hold off (the client's backoff floor).
                    return 202, job, self._retry_after()
                return 202, job
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"] \
                    and method == "GET":
                job = self.app.status(parts[2])
                if job.get("state") in _NONTERMINAL:
                    return 200, job, self._retry_after()
                return 200, job
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "result" and method == "GET":
                return 200, self.app.result(parts[2])
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                    and parts[3] == "cancel" and method == "POST":
                return 200, self.app.cancel(parts[2])
        except ServeError as exc:
            if exc.retry_after:
                return exc.status, {"error": str(exc)}, self._retry_after()
            return exc.status, {"error": str(exc)}
        except (ArtifactError, ReproError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        return 404, {"error": f"no route {method} {path}"}


class ServerThread:
    """Run a daemon on a background thread (tests and ``--wait`` CLI
    flows); context manager yielding the base URL via ``self.url``."""

    def __init__(self, store_dir: str, workers: int = 1,
                 host: str = "127.0.0.1", port: int = 0,
                 max_queued_per_tenant: Optional[int] = None,
                 store_options: Optional[Dict] = None,
                 **app_options):
        self.store_dir = store_dir
        self.workers = workers
        self.host = host
        self.port = port
        self.max_queued_per_tenant = max_queued_per_tenant
        self.store_options = dict(store_options or {})
        self.app_options = app_options
        self.url = ""
        self.app: Optional[ServeApp] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("serve daemon failed to start in 30 s")
        if self._error is not None:
            raise ServeError(f"serve daemon failed to start: "
                             f"{self._error}")
        return self

    def __exit__(self, *exc) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def _main(self) -> None:
        try:
            asyncio.run(self._run())
        except BaseException as exc:  # pragma: no cover - startup bugs
            self._error = exc
            self._ready.set()

    async def _run(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.app = ServeApp(
            ResultStore(self.store_dir, **self.store_options),
            workers=self.workers,
            max_queued_per_tenant=self.max_queued_per_tenant,
            **self.app_options)
        daemon = ServeDaemon(self.app, host=self.host, port=self.port)
        await daemon.start()
        self.port = daemon.port
        self.url = f"http://{self.host}:{daemon.port}"
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await daemon.stop()


async def run_daemon(store_dir: str, host: str = "127.0.0.1",
                     port: int = 8754, workers: int = 2,
                     max_queued_per_tenant: Optional[int] = None,
                     store_max_bytes: Optional[int] = None,
                     store_max_age_s: Optional[float] = None,
                     heartbeat_timeout_s: float = 60.0,
                     max_attempts: int = 3,
                     drain_grace_s: float = 10.0,
                     announce=print) -> None:
    """Foreground daemon entry point of ``repro serve``.

    Installs a ``SIGTERM``/``SIGINT`` handler that drains gracefully:
    stop accepting, give running jobs ``drain_grace_s``, compact the
    WAL, exit (interrupted jobs recover on the next start).
    """
    app = ServeApp(
        ResultStore(store_dir, max_bytes=store_max_bytes,
                    max_age_s=store_max_age_s),
        workers=workers, max_queued_per_tenant=max_queued_per_tenant,
        heartbeat_timeout_s=heartbeat_timeout_s,
        max_attempts=max_attempts)
    daemon = ServeDaemon(app, host=host, port=port)
    await daemon.start()
    recovered = f", recovered: {len(app.recovered_jobs)} job(s)" \
        if app.recovered_jobs else ""
    announce(f"repro serve listening on http://{host}:{daemon.port} "
             f"(store: {app.store.root}, workers: {workers}"
             f"{recovered})")
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    server_task = asyncio.ensure_future(daemon.serve_forever())
    stop_task = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait({server_task, stop_task},
                           return_when=asyncio.FIRST_COMPLETED)
        if stop.is_set():
            announce("repro serve draining "
                     f"(grace: {drain_grace_s:.0f} s)")
            await app.drain(grace_s=drain_grace_s)
    finally:
        for task in (server_task, stop_task):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        await daemon.stop()


__all__ = ["API_PREFIX", "ServeApp", "ServeDaemon", "ServerThread",
           "run_daemon"]
