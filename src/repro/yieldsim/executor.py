"""Batched parallel execution engine for sample-matrix evaluation.

Every yield estimator reduces to the same inner loop: evaluate each
statistical sample at each distinct worst-case operating corner.  This
module runs that loop either serially (sharing the caller's cached
:class:`~repro.evaluation.evaluator.Evaluator`) or on a process pool:

* the sample matrix is split into contiguous **chunks**, one pool task
  each, so per-task overhead amortizes over many simulations;
* each worker process builds its **own** evaluator around the (pickled)
  circuit template — templates are pure analytic objects, so results are
  bit-identical to serial evaluation;
* each chunk has a **timeout and one retry**: a chunk that raises in the
  pool is re-run serially in the parent, which always terminates, so a
  wedged worker cannot hang a verification run;
* a chunk **timeout** or a ``BrokenProcessPool`` marks the pool dead: its
  workers are terminated (a truly hung process must not outlive the run)
  and the remainder of the batch **degrades to serial** in-parent
  execution — already-finished chunk results are still harvested, and
  nothing is retried against a dead pool;
* results are reassembled **by chunk index**, so the output ordering (and
  therefore every downstream estimate) is independent of worker count and
  scheduling;
* worker-side simulation/cache counters are folded back into the parent
  evaluator, keeping Table-7 effort accounting complete.

:class:`PoolHandle` is the persistent variant: one process pool created
per optimizer run and shared by the worst-case searches, the
finite-difference gradient probes and the verification Monte-Carlo, so
worker spawn and template pickling are paid once instead of per batch.
Workers ship back the **cache entries** each task added (not just the
counter deltas); the parent folds them in a deterministic task order via
:meth:`repro.evaluation.evaluator.Evaluator.absorb_cache`, which makes
the parent cache — and therefore every Table-7 counter — identical to a
serial run's, and keeps the evaluations themselves bit-identical (values
never depend on which process computed them).
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..effort import Effort
from ..errors import ReproError
from ..evaluation.evaluator import Evaluator

#: Chunks submitted per worker (when no explicit chunk size is given):
#: small enough to balance uneven chunk runtimes, large enough to
#: amortize task submission overhead.
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class ExecutionConfig:
    """How a batch of sample evaluations is executed."""

    #: worker processes; 1 = serial in the calling process
    jobs: int = 1
    #: samples per pool task (None = automatic)
    chunk_size: Optional[int] = None
    #: per-chunk wait budget in seconds (None = wait forever)
    timeout_s: Optional[float] = None
    #: serial in-parent re-runs for a failed/timed-out chunk
    retries: int = 1
    #: samples per vectorized simulation chunk on the in-process path
    #: (None = auto: the template's default chunk; 1 = force the scalar
    #: per-sample path).  Only affects templates with a sample-batched
    #: engine; results are bit-identical either way.
    batch_samples: Optional[int] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ReproError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.retries < 0:
            raise ReproError(f"retries must be >= 0, got {self.retries}")
        if self.batch_samples is not None and self.batch_samples < 1:
            raise ReproError(
                f"batch_samples must be >= 1, got {self.batch_samples}")


@dataclass
class BatchOutcome:
    """Evaluation of a full sample matrix.

    ``values[j][g]`` is the performance dict of sample ``j`` at operating
    point (theta group) ``g`` — ordering matches the input matrix exactly,
    regardless of backend.
    """

    values: List[List[Dict[str, float]]]
    backend: str = "serial"
    jobs: int = 1
    #: the batch's effort: the evaluation stack's counters plus the
    #: executor's ``chunks``/``retried_chunks``/``timed_out_chunks``
    effort: Effort = field(default_factory=Effort)
    #: True when the pool died (timeout-killed or broken workers) and the
    #: remaining chunks ran serially in the parent
    degraded_to_serial: bool = False
    #: True when an alive pool was attached but could not serve this
    #: evaluation stack (template mismatch / non-replicable wrapper), so
    #: the batch ran serially despite a healthy pool
    pool_incompatible: bool = False


# -- worker side -------------------------------------------------------------
_WORKER: Dict[str, object] = {}


def _init_worker(template, cache_enabled: bool,
                 d: Dict[str, float], thetas: List[Dict[str, float]]):
    """Pool initializer: build a private evaluator in each worker."""
    _WORKER["evaluator"] = Evaluator(template, cache=cache_enabled)
    _WORKER["d"] = d
    _WORKER["thetas"] = thetas


def _run_chunk(start: int, rows: np.ndarray
               ) -> Tuple[int, List[List[Dict[str, float]]], Effort]:
    """Evaluate one chunk inside a worker; returns the evaluator's
    effort delta."""
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    d = _WORKER["d"]
    thetas = _WORKER["thetas"]
    before = evaluator.effort.snapshot()
    values = [[dict(evaluator.evaluate(d, row, theta)) for theta in thetas]
              for row in rows]
    return start, values, evaluator.effort - before


def _pool_context():
    """Prefer fork on POSIX: workers inherit loaded modules, so templates
    defined outside installed packages (tests, notebooks) stay usable."""
    if sys.platform != "win32":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover
            pass
    return multiprocessing.get_context()


# -- persistent shared pool ---------------------------------------------------
@dataclass
class TaskCounts:
    """Effort of one pool task, in parent-foldable form.

    ``entries`` are the cache entries the task *added* to its worker's
    evaluator (insertion order); ``effort`` is the worker evaluator's
    delta (fault-policy counters included) and ``template_effort`` the
    worker template's.
    """

    entries: List[Tuple[Tuple, Dict[str, float]]] = field(
        default_factory=list)
    effort: Effort = field(default_factory=Effort)
    template_effort: Effort = field(default_factory=Effort)


def _init_pool_worker(template, cache_enabled: bool) -> None:
    """Pool initializer: one private evaluator per worker, reused across
    tasks (its cache persists, so repeated nominal/gradient points hit)."""
    _WORKER["evaluator"] = Evaluator(template, cache=cache_enabled)


def _task_target(policy, fail_mode):
    """The evaluation target of one pool task: the worker evaluator,
    wrapped in a fault-tolerant facade when the parent runs one (the
    facade counts into the worker evaluator's record)."""
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    if policy is None:
        return evaluator
    from ..runtime.tolerant import FaultTolerantEvaluator
    return FaultTolerantEvaluator(evaluator, policy, fail_mode)


def _task_snapshot(evaluator: Evaluator) -> Tuple:
    return (evaluator.cache_size, evaluator.effort.snapshot(),
            evaluator.template.effort.snapshot())


def _task_counts(evaluator: Evaluator, before: Tuple) -> TaskCounts:
    cache_len0, effort0, template0 = before
    return TaskCounts(
        entries=evaluator.cache_items_since(cache_len0),
        effort=evaluator.effort - effort0,
        template_effort=evaluator.template.effort - template0)


def _pool_worst_case(spec, d: Dict[str, float], theta: Dict[str, float],
                     s_start, multistart: int, seed: int,
                     policy, fail_mode) -> Tuple[object, TaskCounts]:
    """One Eq.-8 worst-case search inside a worker."""
    from ..core.worst_case import find_worst_case_point
    target = _task_target(policy, fail_mode)
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    before = _task_snapshot(evaluator)
    result = find_worst_case_point(target, spec, d, theta, s_start=s_start,
                                   multistart=multistart, seed=seed)
    return result, _task_counts(evaluator, before)


def _pool_points(points: List[Tuple[Dict[str, float], np.ndarray,
                                    Dict[str, float]]],
                 policy, fail_mode
                 ) -> Tuple[List[Dict[str, float]], TaskCounts]:
    """Evaluate a list of ``(d, s_hat, theta)`` points inside a worker
    (finite-difference gradient probes)."""
    target = _task_target(policy, fail_mode)
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    before = _task_snapshot(evaluator)
    values = [dict(target.evaluate(d, s_hat, theta))
              for d, s_hat, theta in points]
    return values, _task_counts(evaluator, before)


def _pool_chunk_shared(d: Dict[str, float],
                       thetas: List[Dict[str, float]], rows: np.ndarray,
                       policy, fail_mode
                       ) -> Tuple[List[List[Dict[str, float]]], TaskCounts]:
    """Evaluate one Monte-Carlo chunk on the persistent pool."""
    target = _task_target(policy, fail_mode)
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    before = _task_snapshot(evaluator)
    values = [[dict(target.evaluate(d, row, theta)) for theta in thetas]
              for row in rows]
    return values, _task_counts(evaluator, before)


def unwrap_pool_stack(evaluator):
    """``(inner, policy, fail_mode)`` when ``evaluator`` is an evaluation
    stack that pool workers can replicate exactly — a plain
    :class:`Evaluator`, or a
    :class:`~repro.runtime.tolerant.FaultTolerantEvaluator` around one —
    else ``None`` (e.g. a fault-injecting wrapper, whose call-order state
    lives in the parent; such stacks must stay serial)."""
    from ..runtime.tolerant import FaultTolerantEvaluator
    if type(evaluator) is Evaluator:
        return evaluator, None, None
    if isinstance(evaluator, FaultTolerantEvaluator) \
            and type(evaluator.inner) is Evaluator:
        return evaluator.inner, evaluator.policy, evaluator.fail_mode
    return None


def fold_task(evaluator, counts: TaskCounts) -> None:
    """Fold one task's effort into the parent evaluation stack.

    With caching on, the fold reconstructs exactly what a serial run
    would have counted: every entry new to the parent cache is one
    simulation + one miss; every entry the parent already holds would
    have been a hit.  Tasks must be folded in a deterministic order (the
    dispatch order), never completion order.  The template delta is a
    fleet-wide *effort* total (each worker owns a private anchor cache),
    not a replay of the serial hit pattern.
    """
    inner = evaluator
    maybe = unwrap_pool_stack(evaluator)
    if maybe is not None:
        inner = maybe[0]
    effort = counts.effort
    if inner.cache_enabled:
        new, duplicate = inner.absorb_cache(counts.entries)
        effort = effort + Effort({
            "simulations": new - effort["simulations"],
            "cache_misses": new - effort["cache_misses"],
            "cache_hits": duplicate})
    inner.effort += effort
    inner.template.effort += counts.template_effort


class PoolHandle:
    """A persistent process pool shared across the phases of one run.

    Created once (e.g. per optimizer run) from the run's evaluation
    stack; the worst-case search, the gradient probes and the
    verification Monte-Carlo all submit tasks to the same workers, so
    process spawn and template pickling are paid once.  Each worker owns
    one cached :class:`Evaluator` that persists across tasks.

    A timeout or broken pool marks the handle **dead** (workers are
    terminated); every dispatcher checks :attr:`alive` and falls back to
    its serial path, which by construction produces the same results.
    """

    def __init__(self, template, jobs: int, cache_enabled: bool = True,
                 task_timeout_s: Optional[float] = None):
        if jobs < 2:
            raise ReproError(f"a pool needs jobs >= 2, got {jobs}")
        self.template = template
        self.jobs = jobs
        self.cache_enabled = cache_enabled
        #: per-task wait budget for non-MC tasks (None = wait forever)
        self.task_timeout_s = task_timeout_s
        self.tasks_dispatched = 0
        self._dead = False
        self._pool = futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=_pool_context(),
            initializer=_init_pool_worker,
            initargs=(template, cache_enabled))

    @classmethod
    def for_evaluator(cls, evaluator, jobs: int,
                      task_timeout_s: Optional[float] = None
                      ) -> Optional["PoolHandle"]:
        """A handle for ``evaluator``'s stack, or None when the stack
        cannot be replicated in workers (or ``jobs`` < 2)."""
        if jobs < 2:
            return None
        maybe = unwrap_pool_stack(evaluator)
        if maybe is None:
            return None
        inner = maybe[0]
        return cls(inner.template, jobs, cache_enabled=inner.cache_enabled,
                   task_timeout_s=task_timeout_s)

    @property
    def alive(self) -> bool:
        return not self._dead

    def compatible(self, evaluator) -> bool:
        """True when ``evaluator`` evaluates against this pool's template
        with a worker-replicable stack."""
        maybe = unwrap_pool_stack(evaluator)
        return maybe is not None and maybe[0].template is self.template

    def submit(self, fn, *args) -> futures.Future:
        self.tasks_dispatched += 1
        return self._pool.submit(fn, *args)

    def kill(self) -> None:
        """Terminate the workers and mark the handle dead (used on
        timeout/breakage; all later dispatches degrade to serial)."""
        if not self._dead:
            self._dead = True
            BatchExecutor._kill_pool(self._pool)

    def close(self) -> None:
        """Orderly shutdown at end of run.  Waits for teardown: an
        executor still dismantling itself at interpreter exit races
        CPython's own atexit hook (unlocked ``thread_wakeup.wakeup()``
        against the management thread closing the same pipe), spraying
        "Exception ignored ... Bad file descriptor" on stderr."""
        if not self._dead:
            self._dead = True
            self._pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PoolHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def dispatch_points(pool: Optional[PoolHandle], evaluator,
                    points: Sequence[Tuple[Mapping[str, float], np.ndarray,
                                           Mapping[str, float]]]
                    ) -> Optional[List[Dict[str, float]]]:
    """Evaluate ``points`` on the pool, folding effort back in dispatch
    order; returns the value dicts in input order, or None when the pool
    path is unavailable (caller then runs its serial loop).

    A failed or timed-out task is re-evaluated serially on the parent —
    the values and parent-side accounting come out identical either way.
    """
    if pool is None or not pool.alive or not pool.compatible(evaluator) \
            or len(points) < 2:
        return None
    maybe = unwrap_pool_stack(evaluator)
    assert maybe is not None
    _, policy, fail_mode = maybe
    plain = [(dict(d), np.asarray(s_hat, dtype=float), dict(theta))
             for d, s_hat, theta in points]
    size = max(1, math.ceil(len(plain) / pool.jobs))
    chunks = [plain[start:start + size]
              for start in range(0, len(plain), size)]
    pending = [pool.submit(_pool_points, chunk, policy, fail_mode)
               for chunk in chunks]
    values: List[Dict[str, float]] = []
    for chunk, future in zip(chunks, pending):
        chunk_values = None
        if pool.alive:
            try:
                chunk_values, counts = future.result(
                    timeout=pool.task_timeout_s)
                fold_task(evaluator, counts)
            except (futures.TimeoutError, BrokenProcessPool):
                pool.kill()
            except Exception:
                chunk_values = None  # re-run serially below
        if chunk_values is None:
            chunk_values = [dict(evaluator.evaluate(d, s_hat, theta))
                            for d, s_hat, theta in chunk]
        values.extend(chunk_values)
    return values


# -- driver ------------------------------------------------------------------
class BatchExecutor:
    """Drives an :class:`Evaluator` over a sample matrix in batches.

    With a :class:`PoolHandle` attached, batches run on the persistent
    shared pool (when the evaluator stack is worker-replicable); a dead
    handle degrades to the serial path.  Without one, ``config.jobs > 1``
    spawns a throwaway per-call pool (the legacy path).
    """

    def __init__(self, config: Optional[ExecutionConfig] = None,
                 pool: Optional[PoolHandle] = None):
        self.config = config or ExecutionConfig()
        self.pool = pool

    def run(self, evaluator: Evaluator, d: Mapping[str, float],
            thetas: Sequence[Mapping[str, float]],
            matrix: np.ndarray) -> BatchOutcome:
        """Evaluate every row of ``matrix`` at every theta in ``thetas``."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ReproError("sample matrix must be 2-D (n, dim)")
        if not thetas:
            raise ReproError("at least one operating point is required")
        before = evaluator.total_effort()
        outcome = self._dispatch(evaluator, d, thetas, matrix)
        outcome.effort += evaluator.total_effort() - before
        return outcome

    def _dispatch(self, evaluator, d: Mapping[str, float],
                  thetas: Sequence[Mapping[str, float]],
                  matrix: np.ndarray) -> BatchOutcome:
        if self.pool is not None:
            compatible = self.pool.compatible(evaluator)
            if self.pool.alive and compatible and matrix.shape[0] > 1:
                return self._run_shared_pool(evaluator, d, thetas, matrix)
            outcome = self._run_serial(evaluator, d, thetas, matrix)
            # Telemetry must name the *reason* the pool went unused: an
            # incompatible stack is flagged even while the pool is
            # healthy, whereas a dead pool only counts as degradation
            # when serial was not the natural path anyway (n == 1 runs
            # serially by design, dead pool or not).
            if not compatible:
                outcome.pool_incompatible = True
            elif not self.pool.alive and matrix.shape[0] > 1:
                outcome.degraded_to_serial = True
            return outcome
        if self.config.jobs == 1 or matrix.shape[0] == 1:
            return self._run_serial(evaluator, d, thetas, matrix)
        return self._run_pool(evaluator, d, thetas, matrix)

    # -- serial ----------------------------------------------------------------
    def _batched_columns(self, evaluator, d: Mapping[str, float],
                         thetas: Sequence[Mapping[str, float]],
                         matrix: np.ndarray
                         ) -> Optional[List[List[Dict[str, float]]]]:
        """In-process evaluation through the sample-batched engine.

        Evaluates column-major — all samples at one theta per
        :meth:`~repro.evaluation.evaluator.Evaluator.evaluate_batch`
        call, so one vectorized simulation covers a whole chunk — then
        transposes back to the row-major output layout.  Values, cache
        contents and counter totals are identical to the scalar
        per-sample loop (the batched engine guarantees bitwise parity;
        column order only permutes *when* each theta's work happens).

        Fault handling replicates the serial stack: a sample whose first
        attempt raised is resumed through the parent's
        :meth:`~repro.runtime.tolerant.FaultTolerantEvaluator.
        resume_after_failure` (same classification, same deterministic
        jitter, same counters).  Without a policy the serial loop would
        propagate the first failure in row-major order, so the earliest
        (row, theta) failure is re-raised.

        Returns None when the evaluation stack is not batchable (a
        non-replicable wrapper); the caller then runs the scalar loop.
        """
        maybe = unwrap_pool_stack(evaluator)
        if maybe is None:
            return None
        inner, policy, _ = maybe
        rows = [np.asarray(row, dtype=float) for row in matrix]
        columns: List[List] = []
        for theta in thetas:
            entries = inner.evaluate_batch(
                d, rows, theta, batch_samples=self.config.batch_samples)
            column: List = []
            for row, entry in zip(rows, entries):
                if isinstance(entry, BaseException) and policy is not None:
                    entry = evaluator.resume_after_failure(
                        d, row, theta, entry)
                column.append(entry)
            columns.append(column)
        for j in range(len(rows)):  # earliest failure in row-major order
            for column in columns:
                if isinstance(column[j], BaseException):
                    raise column[j]
        return [[dict(column[j]) for column in columns]
                for j in range(len(rows))]

    def _run_serial(self, evaluator: Evaluator, d: Mapping[str, float],
                    thetas: Sequence[Mapping[str, float]],
                    matrix: np.ndarray) -> BatchOutcome:
        values = None
        if matrix.shape[0] > 1 and self.config.batch_samples != 1:
            values = self._batched_columns(evaluator, d, thetas, matrix)
        if values is None:
            values = [[dict(evaluator.evaluate(d, row, theta))
                       for theta in thetas] for row in matrix]
        return BatchOutcome(values=values, backend="serial", jobs=1,
                            effort=Effort({"chunks": 1}))

    # -- process pool ----------------------------------------------------------
    def _chunk_bounds(self, n: int) -> List[Tuple[int, int]]:
        size = self.config.chunk_size
        if size is None:
            size = max(1, math.ceil(n / (self.config.jobs
                                         * _CHUNKS_PER_WORKER)))
        return [(start, min(start + size, n)) for start in range(0, n, size)]

    def _retry_chunk(self, evaluator: Evaluator, d: Mapping[str, float],
                     thetas: Sequence[Mapping[str, float]],
                     rows: np.ndarray, error: BaseException
                     ) -> List[List[Dict[str, float]]]:
        """In-parent serial re-run of one failed chunk (counts on the
        parent evaluator directly)."""
        last: BaseException = error
        for _ in range(self.config.retries):
            try:
                return [[dict(evaluator.evaluate(d, row, theta))
                         for theta in thetas] for row in rows]
            except Exception as exc:
                last = exc
        raise ReproError(
            f"batch chunk failed after {self.config.retries} "
            f"retr{'y' if self.config.retries == 1 else 'ies'}: {last}"
        ) from last

    @staticmethod
    def _kill_pool(pool: futures.ProcessPoolExecutor) -> None:
        """Tear a (possibly wedged) pool down without waiting.

        ``Future.cancel`` has no effect on a *running* future, so a hung
        worker would outlive the run if we merely shut the executor
        down; terminate the worker processes explicitly (and escalate to
        SIGKILL if termination does not take).  The process list must be
        snapshotted *before* ``shutdown``, which drops the pool's
        reference to it."""
        processes = list((getattr(pool, "_processes", None) or {})
                         .values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)

    @staticmethod
    def _harvest_finished(future):
        """The payload of a future that completed *before* the pool
        died, else None (cancelled / still running / poisoned)."""
        if not future.done() or future.cancelled():
            return None
        try:
            return future.result(timeout=0)
        except Exception:
            return None

    # -- persistent shared pool ------------------------------------------------
    def _run_shared_pool(self, evaluator, d: Mapping[str, float],
                         thetas: Sequence[Mapping[str, float]],
                         matrix: np.ndarray) -> BatchOutcome:
        pool = self.pool
        assert pool is not None
        maybe = unwrap_pool_stack(evaluator)
        assert maybe is not None
        _, policy, fail_mode = maybe
        n = matrix.shape[0]
        size = self.config.chunk_size
        if size is None:
            size = max(1, math.ceil(n / (pool.jobs * _CHUNKS_PER_WORKER)))
        bounds = [(start, min(start + size, n))
                  for start in range(0, n, size)]
        d_plain = dict(d)
        thetas_plain = [dict(theta) for theta in thetas]
        outcome = BatchOutcome(values=[[] for _ in range(n)],
                               backend="process-pool", jobs=pool.jobs,
                               effort=Effort({"chunks": len(bounds)}))
        pending = [pool.submit(_pool_chunk_shared, d_plain, thetas_plain,
                               matrix[start:end], policy, fail_mode)
                   for start, end in bounds]
        for (start, end), future in zip(bounds, pending):
            values = None
            if pool.alive:
                try:
                    values, counts = future.result(
                        timeout=self.config.timeout_s)
                    fold_task(evaluator, counts)
                except futures.TimeoutError:
                    outcome.effort.count("timed_out_chunks")
                    pool.kill()
                except BrokenProcessPool:
                    pool.kill()
                except Exception as exc:
                    outcome.effort.count("retried_chunks")
                    values = self._retry_chunk(evaluator, d_plain,
                                               thetas_plain,
                                               matrix[start:end], exc)
            if values is None:
                # The shared pool died: harvest what finished, run the
                # rest serially in the parent (results are identical).
                outcome.degraded_to_serial = True
                harvest = self._harvest_finished(future)
                if harvest is not None:
                    values, counts = harvest
                    fold_task(evaluator, counts)
                else:
                    outcome.effort.count("retried_chunks")
                    values = self._retry_chunk(
                        evaluator, d_plain, thetas_plain,
                        matrix[start:end],
                        ReproError("shared worker pool died"))
            for offset, per_theta in enumerate(values):
                outcome.values[start + offset] = per_theta
        return outcome

    def _run_pool(self, evaluator: Evaluator, d: Mapping[str, float],
                  thetas: Sequence[Mapping[str, float]],
                  matrix: np.ndarray) -> BatchOutcome:
        n = matrix.shape[0]
        bounds = self._chunk_bounds(n)
        jobs = min(self.config.jobs, len(bounds))
        d_plain = dict(d)
        thetas_plain = [dict(theta) for theta in thetas]
        outcome = BatchOutcome(values=[[] for _ in range(n)],
                               backend="process-pool", jobs=jobs,
                               effort=Effort({"chunks": len(bounds)}))
        worker_effort = Effort()

        pool = futures.ProcessPoolExecutor(
            max_workers=jobs, mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(evaluator.template, evaluator.cache_enabled,
                      d_plain, thetas_plain))
        pool_dead: Optional[BaseException] = None
        try:
            pending = [(start, end,
                        pool.submit(_run_chunk, start, matrix[start:end]))
                       for start, end in bounds]
            for start, end, future in pending:
                values = None
                if pool_dead is None:
                    try:
                        _, values, delta = future.result(
                            timeout=self.config.timeout_s)
                        worker_effort += delta
                    except futures.TimeoutError as exc:
                        # A wedged worker: kill the pool (the hung
                        # process must not outlive the run) and degrade
                        # the rest of the batch to serial execution.
                        outcome.effort.count("timed_out_chunks")
                        pool_dead = exc
                        self._kill_pool(pool)
                    except BrokenProcessPool as exc:
                        # Dead pool: retrying chunk-by-chunk against it
                        # would fail every time.  Degrade to serial.
                        pool_dead = exc
                        self._kill_pool(pool)
                    except Exception as exc:
                        outcome.effort.count("retried_chunks")
                        # The retry runs on the parent evaluator, so its
                        # counter deltas land there directly.
                        values = self._retry_chunk(evaluator, d_plain,
                                                   thetas_plain,
                                                   matrix[start:end], exc)
                if values is None:
                    # The pool died: harvest chunks that finished before
                    # the collapse, run the rest serially in the parent.
                    outcome.degraded_to_serial = True
                    harvest = self._harvest_finished(future)
                    if harvest is not None:
                        _, values, delta = harvest
                        worker_effort += delta
                    else:
                        outcome.effort.count("retried_chunks")
                        values = self._retry_chunk(evaluator, d_plain,
                                                   thetas_plain,
                                                   matrix[start:end],
                                                   pool_dead)
                for offset, per_theta in enumerate(values):
                    outcome.values[start + offset] = per_theta
        finally:
            # Wait: every future is already resolved here (or its worker
            # terminated by _kill_pool), and a shutdown still in flight at
            # interpreter exit races CPython's atexit wakeup of the same
            # executor (stderr "Bad file descriptor" noise).
            pool.shutdown(wait=True, cancel_futures=True)
        # Fold worker-side effort into the parent's accounting (retried
        # chunks already counted themselves on the parent evaluator).
        record = evaluator.effort
        record += worker_effort
        return outcome
