"""Multi-tenant priority job queue of the ``repro.serve`` daemon.

Jobs are plain records with a small state machine::

    queued -> running -> done
                      -> failed
                      -> queued               (supervised retry)
    queued -> cancelled            (before dispatch)
    running -> cancelled           (cancel requested; worker terminated)

Scheduling is strict priority (higher first), FIFO within a priority
level; a ``max_queued_per_tenant`` cap keeps one chatty client from
starving the queue for everyone else.  The queue is a pure data
structure — no threads, no asyncio — so the daemon drives it from its
event loop and the tests drive it directly.

When constructed with a :class:`~repro.serve.wal.WriteAheadLog`, every
state transition is durably appended *before* the in-memory update, so
a crashed daemon can replay the log and pick up exactly where it died
(see :meth:`restore` for the replay side).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from ..errors import ServeError, UnknownJobError
from .wal import (EVENT_CANCEL, EVENT_FINISH, EVENT_RETRY, EVENT_START,
                  EVENT_SUBMIT, WriteAheadLog)

#: job states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a job can still leave
_ACTIVE = (QUEUED, RUNNING)


@dataclass
class Job:
    """One submitted job and its lifecycle record."""

    id: str
    kind: str
    request: Dict
    tenant: str = "default"
    priority: int = 0
    #: shard fan-out of the verification (1 = no decomposition)
    shards: int = 1
    #: optional per-job budget: {"deadline_s": float,
    #: "max_simulations": int}
    budget: Optional[Dict] = None
    #: optional checkpoint path to splice a merged verification into
    splice_checkpoint: Optional[str] = None
    #: store-owned checkpoint path of an ``optimize`` job (the file a
    #: recovered attempt resumes from)
    checkpoint: Optional[str] = None
    state: str = QUEUED
    #: canonical content hash of the request (the result-store key)
    cache_key: str = ""
    #: True when the result was served from the store without simulation
    cache_hit: bool = False
    #: simulator calls spent by *this* job (0 on a cache hit)
    simulations: int = 0
    #: True when fresh spend exceeded budget["max_simulations"]
    budget_exceeded: bool = False
    error: Optional[str] = None
    #: 1-based execution attempt (bumped by retries and crash recovery)
    attempt: int = 1
    #: True when this job was re-enqueued by daemon-restart recovery
    recovered: bool = False
    #: last worker heartbeat timestamp observed by the supervisor
    heartbeat_at: Optional[float] = None
    #: why a terminal job stopped the way it did (e.g. "cancelled")
    stop_reason: Optional[str] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "request": dict(self.request),
            "tenant": self.tenant,
            "priority": self.priority,
            "shards": self.shards,
            "budget": self.budget,
            "splice_checkpoint": self.splice_checkpoint,
            "checkpoint": self.checkpoint,
            "state": self.state,
            "cache_key": self.cache_key,
            "cache_hit": self.cache_hit,
            "simulations": self.simulations,
            "budget_exceeded": self.budget_exceeded,
            "error": self.error,
            "attempt": self.attempt,
            "recovered": self.recovered,
            "heartbeat_at": self.heartbeat_at,
            "stop_reason": self.stop_reason,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Job":
        """Rebuild a job from its :meth:`to_dict` form (WAL replay).
        Unknown fields are ignored, missing ones default, so logs from
        adjacent code versions stay readable."""
        try:
            return cls(
                id=data["id"],
                kind=data.get("kind", "yield"),
                request=dict(data.get("request", {})),
                tenant=data.get("tenant", "default"),
                priority=int(data.get("priority", 0)),
                shards=int(data.get("shards", 1)),
                budget=dict(data["budget"]) if data.get("budget") else None,
                splice_checkpoint=data.get("splice_checkpoint"),
                checkpoint=data.get("checkpoint"),
                state=data.get("state", QUEUED),
                cache_key=data.get("cache_key", ""),
                cache_hit=bool(data.get("cache_hit", False)),
                simulations=int(data.get("simulations", 0)),
                budget_exceeded=bool(data.get("budget_exceeded", False)),
                error=data.get("error"),
                attempt=int(data.get("attempt", 1)),
                recovered=bool(data.get("recovered", False)),
                heartbeat_at=data.get("heartbeat_at"),
                stop_reason=data.get("stop_reason"),
                submitted_at=float(data.get("submitted_at", time.time())),
                started_at=data.get("started_at"),
                finished_at=data.get("finished_at"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ServeError(f"invalid job record: {exc}")


class JobQueue:
    """Priority queue + job registry (see module docstring)."""

    def __init__(self, max_queued_per_tenant: Optional[int] = None,
                 wal: Optional[WriteAheadLog] = None):
        self.jobs: Dict[str, Job] = {}
        self._heap: List = []
        self._seq = itertools.count()
        self.max_queued_per_tenant = max_queued_per_tenant
        #: optional write-ahead log; every transition is appended before
        #: the in-memory state changes
        self.wal = wal

    # -- submission ------------------------------------------------------------
    def submit(self, job: Job) -> Job:
        if job.id in self.jobs:
            raise ServeError(f"duplicate job id {job.id!r}")
        if self.max_queued_per_tenant is not None:
            queued = sum(1 for other in self.jobs.values()
                         if other.tenant == job.tenant
                         and other.state == QUEUED)
            if queued >= self.max_queued_per_tenant:
                raise ServeError(
                    f"tenant {job.tenant!r} already has {queued} queued "
                    f"job(s); per-tenant limit is "
                    f"{self.max_queued_per_tenant}")
        if self.wal is not None:
            # Cache-hit submissions arrive already terminal; the single
            # submit event carries their full (done) record.
            self.wal.append(EVENT_SUBMIT, job=job.to_dict())
        self.jobs[job.id] = job
        if job.state == QUEUED:
            self._push(job)
        return job

    def restore(self, job: Job) -> Job:
        """Register a replayed job without logging (the WAL snapshot
        already holds its state); queued jobs re-enter the heap."""
        if job.id in self.jobs:
            raise ServeError(f"duplicate job id {job.id!r}")
        self.jobs[job.id] = job
        if job.state == QUEUED:
            self._push(job)
        return job

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap,
                       (-job.priority, next(self._seq), job.id))

    # -- scheduling ------------------------------------------------------------
    def pop_next(self) -> Optional[Job]:
        """The highest-priority queued job, marked running; None when
        nothing is dispatchable."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self.jobs.get(job_id)
            # Cancelled-while-queued entries stay in the heap until
            # popped here (lazy deletion).
            if job is not None and job.state == QUEUED:
                if self.wal is not None:
                    self.wal.append(EVENT_START, id=job.id,
                                    attempt=job.attempt)
                job.state = RUNNING
                job.started_at = time.time()
                return job
        return None

    # -- lookups ---------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id!r}")

    def active_jobs(self) -> List[Job]:
        """Queued and running jobs, oldest first (supervision view)."""
        return sorted((job for job in self.jobs.values()
                       if job.state in _ACTIVE),
                      key=lambda job: job.submitted_at)

    # -- transitions -----------------------------------------------------------
    def finish(self, job_id: str, *, error: Optional[str] = None) -> Job:
        job = self.get(job_id)
        if job.state not in _ACTIVE:
            return job  # cancelled mid-flight: keep the terminal state
        if self.wal is not None:
            self.wal.append(
                EVENT_FINISH, id=job.id,
                state=FAILED if error else DONE, error=error,
                simulations=job.simulations, cache_hit=job.cache_hit,
                budget_exceeded=job.budget_exceeded,
                stop_reason=job.stop_reason)
        job.state = FAILED if error else DONE
        job.error = error
        job.finished_at = time.time()
        return job

    def requeue(self, job_id: str, *, error: Optional[str] = None) -> Job:
        """Send a running job back to the queue for another attempt
        (worker crash / wedge recovery); bumps ``attempt``."""
        job = self.get(job_id)
        if job.state not in _ACTIVE:
            return job  # cancelled while the retry was pending
        if self.wal is not None:
            self.wal.append(EVENT_RETRY, id=job.id,
                            attempt=job.attempt + 1, error=error)
        job.attempt += 1
        job.state = QUEUED
        job.started_at = None
        job.heartbeat_at = None
        job.error = error
        self._push(job)
        return job

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: a queued job never runs; a running job's worker
        is terminated by the daemon and the job records
        ``stop_reason="cancelled"``."""
        job = self.get(job_id)
        if job.state in _ACTIVE:
            if self.wal is not None:
                self.wal.append(EVENT_CANCEL, id=job.id,
                                stop_reason="cancelled")
            job.state = CANCELLED
            job.stop_reason = "cancelled"
            job.finished_at = time.time()
        return job

    # -- telemetry -------------------------------------------------------------
    def stats(self) -> Dict:
        by_state: Dict[str, int] = {}
        by_tenant: Dict[str, Dict[str, int]] = {}
        cache_hits = 0
        simulations = 0
        recovered = 0
        retried = 0
        for job in self.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
            tenant = by_tenant.setdefault(job.tenant, {})
            tenant[job.state] = tenant.get(job.state, 0) + 1
            cache_hits += int(job.cache_hit)
            simulations += job.simulations
            recovered += int(job.recovered)
            retried += max(0, job.attempt - 1)
        return {
            "jobs": len(self.jobs),
            "by_state": by_state,
            "by_tenant": by_tenant,
            "cache_hits": cache_hits,
            "simulations": simulations,
            "recovered": recovered,
            "retries": retried,
        }


__all__ = ["CANCELLED", "DONE", "FAILED", "Job", "JobQueue", "QUEUED",
           "RUNNING"]
