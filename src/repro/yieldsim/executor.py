"""Batched parallel execution engine for sample-matrix evaluation.

Every yield estimator reduces to the same inner loop: evaluate each
statistical sample at each distinct worst-case operating corner.  This
module runs that loop either serially (sharing the caller's cached
:class:`~repro.evaluation.evaluator.Evaluator`) or on a
:class:`PoolHandle`, the one process-pool path of the package:

* a handle is either run-long (the optimizer creates one and shares it
  across the worst-case searches, the finite-difference gradient probes
  and the verification Monte-Carlo, so worker spawn and template
  pickling are paid once) or opened by :class:`BatchExecutor` for a
  single batch when ``jobs > 1`` and none is attached;
* each worker owns one cached evaluator around the (pickled) circuit
  template, wrapped in the parent's fault policy when the parent runs
  one; a stack workers cannot replicate (e.g. fault injection, whose
  call-order state lives in the parent) gets no pool and runs serially;
* the sample matrix is split into contiguous **chunks**, one pool task
  each, and a worker runs its chunk through the same in-process path as
  a serial run (:meth:`BatchExecutor._run_serial`);
* each task has a **timeout**; a task that raises in the pool is re-run
  serially in the parent once, which always terminates, so a wedged
  worker cannot hang a verification run;
* a task **timeout** or a ``BrokenProcessPool`` marks the pool dead: its
  workers are terminated (a truly hung process must not outlive the run)
  and the rest of the work **degrades to serial** in-parent execution —
  tasks that finished before the collapse are still harvested, and
  nothing is retried against a dead pool;
* results are reassembled in **dispatch order**, so the output (and
  therefore every downstream estimate) is independent of worker count
  and scheduling;
* workers ship back the **cache entries** each task added plus its
  effort deltas; the parent folds them in dispatch order via
  :meth:`repro.evaluation.evaluator.Evaluator.absorb_cache`, which makes
  the parent cache — and therefore every Table-7 counter — identical to
  a serial run's, and keeps the evaluations themselves bit-identical
  (values never depend on which process computed them).
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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


def _pool_context():
    """Prefer fork on POSIX: workers inherit loaded modules, so templates
    defined outside installed packages (tests, notebooks) stay usable."""
    if sys.platform != "win32":
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover
            pass
    return multiprocessing.get_context()


# -- worker side -------------------------------------------------------------
_WORKER: Dict[str, object] = {}


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


def _run_task(body: Callable, policy, fail_mode, *args
              ) -> Tuple[object, TaskCounts]:
    """Run ``body(target, *args)`` inside a worker.

    ``target`` is the worker evaluator, wrapped in a fault-tolerant
    facade when the parent runs one (the facade counts into the worker
    evaluator's record).  Returns the body's result and the task's
    effort in parent-foldable form."""
    evaluator: Evaluator = _WORKER["evaluator"]  # type: ignore[assignment]
    target = evaluator
    if policy is not None:
        from ..runtime.tolerant import FaultTolerantEvaluator
        target = FaultTolerantEvaluator(evaluator, policy, fail_mode)
    cache_len0 = evaluator.cache_size
    effort0 = evaluator.effort.snapshot()
    template0 = evaluator.template.effort.snapshot()
    result = body(target, *args)
    return result, TaskCounts(
        entries=evaluator.cache_items_since(cache_len0),
        effort=evaluator.effort - effort0,
        template_effort=evaluator.template.effort - template0)


def _evaluate_points(evaluator, points: Sequence[Tuple]
                     ) -> List[Dict[str, float]]:
    """Values of ``(d, s_hat, theta)`` points (gradient probes), one
    ``evaluate`` each, in order."""
    return [dict(evaluator.evaluate(d, s_hat, theta))
            for d, s_hat, theta in points]


def _evaluate_chunk(evaluator, d: Dict[str, float],
                    thetas: List[Dict[str, float]], rows: np.ndarray,
                    batch_samples: Optional[int]
                    ) -> List[List[Dict[str, float]]]:
    """One Monte-Carlo chunk through the executor's in-process path."""
    executor = BatchExecutor(ExecutionConfig(batch_samples=batch_samples))
    return executor._run_serial(evaluator, d, thetas, rows).values


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


def _harvest_finished(future):
    """The payload of a future that completed *before* the pool died,
    else None (cancelled / still running / poisoned)."""
    if not future.done() or future.cancelled():
        return None
    try:
        return future.result(timeout=0)
    except Exception:
        return None


# -- the pool ------------------------------------------------------------------
class PoolHandle:
    """A process pool whose workers replicate one evaluation stack.

    Created once per optimizer run (or per batch, see
    :class:`BatchExecutor`); the worst-case search, the gradient probes
    and the verification Monte-Carlo all submit tasks through
    :meth:`run_tasks`, so process spawn and template pickling are paid
    once.  Each worker owns one cached :class:`Evaluator` that persists
    across tasks.

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
        #: True once a task timeout killed the pool
        self.timed_out = False
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

    def run_tasks(self, evaluator, body: Callable,
                  task_args: Sequence[Tuple],
                  timeout_s: Optional[float]) -> List[Optional[object]]:
        """Run ``body(worker_stack, *args)`` for every ``args`` in
        ``task_args`` on the workers.

        Results are collected in dispatch order, each waited on for at
        most ``timeout_s``, and every finished task's effort is folded
        into ``evaluator`` in that order.  A timeout or a broken pool
        kills the pool; tasks that finished before it died still count.
        Returns one entry per task: its result, or None when the caller
        must re-run the task serially (it raised in the worker, or the
        pool died before it finished).
        """
        _, policy, fail_mode = unwrap_pool_stack(evaluator)
        self.tasks_dispatched += len(task_args)
        pending = [self._pool.submit(_run_task, body, policy, fail_mode,
                                     *args)
                   for args in task_args]
        results: List[Optional[object]] = []
        for future in pending:
            payload = None
            if self.alive:
                try:
                    payload = future.result(timeout=timeout_s)
                except futures.TimeoutError:
                    self.timed_out = True
                    self.kill()
                except BrokenProcessPool:
                    self.kill()
                except Exception:
                    pass  # the caller re-runs this task serially
            if payload is None and not self.alive:
                payload = _harvest_finished(future)
            if payload is None:
                results.append(None)
                continue
            result, counts = payload
            fold_task(evaluator, counts)
            results.append(result)
        return results

    def kill(self) -> None:
        """Terminate the workers without waiting and mark the handle dead
        (used on timeout/breakage; all later dispatches degrade to
        serial).

        ``Future.cancel`` has no effect on a *running* future, so a hung
        worker would outlive the run if the executor were merely shut
        down; terminate the worker processes explicitly (and escalate to
        SIGKILL if termination does not take).  The process list must be
        snapshotted *before* ``shutdown``, which drops the pool's
        reference to it."""
        if self._dead:
            return
        self._dead = True
        processes = list((getattr(self._pool, "_processes", None) or {})
                         .values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=1.0)

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
                    ) -> List[Dict[str, float]]:
    """Value dicts of ``(d, s_hat, theta)`` points, in input order.

    With a usable pool (alive, compatible with ``evaluator``'s stack, and
    at least two points) the points run as pool tasks whose effort is
    folded back in dispatch order, and a failed or timed-out task is
    re-evaluated on the parent.  Otherwise every point runs in-process
    through :func:`_evaluate_points`, the same body the workers run —
    so the values and the parent-side accounting come out identical
    either way.
    """
    if pool is None or not pool.alive or not pool.compatible(evaluator) \
            or len(points) < 2:
        return _evaluate_points(evaluator, points)
    plain = [(dict(d), np.asarray(s_hat, dtype=float), dict(theta))
             for d, s_hat, theta in points]
    size = max(1, math.ceil(len(plain) / pool.jobs))
    chunks = [plain[start:start + size]
              for start in range(0, len(plain), size)]
    results = pool.run_tasks(evaluator, _evaluate_points,
                             [(chunk,) for chunk in chunks],
                             pool.task_timeout_s)
    values: List[Dict[str, float]] = []
    for chunk, chunk_values in zip(chunks, results):
        if chunk_values is None:
            chunk_values = _evaluate_points(evaluator, chunk)
        values.extend(chunk_values)
    return values


# -- driver ------------------------------------------------------------------
class BatchExecutor:
    """Drives an :class:`Evaluator` over a sample matrix in batches.

    With a :class:`PoolHandle` attached, batches run on it (when the
    evaluation stack is worker-replicable); a dead handle degrades to the
    serial path.  Without one, ``config.jobs > 1`` opens a handle for the
    call and closes it afterwards.
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
        n = matrix.shape[0]
        if self.pool is not None:
            compatible = self.pool.compatible(evaluator)
            if self.pool.alive and compatible and n > 1:
                return self._run_shared_pool(self.pool, evaluator, d,
                                             thetas, matrix)
            outcome = self._run_serial(evaluator, d, thetas, matrix)
            # Telemetry must name the *reason* the pool went unused: an
            # incompatible stack is flagged even while the pool is
            # healthy, whereas a dead pool only counts as degradation
            # when serial was not the natural path anyway (n == 1 runs
            # serially by design, dead pool or not).
            if not compatible:
                outcome.pool_incompatible = True
            elif not self.pool.alive and n > 1:
                outcome.degraded_to_serial = True
            return outcome
        if self.config.jobs > 1 and n > 1:
            # No more workers than chunks; a single chunk (or a stack
            # workers cannot replicate) gets no pool and runs serially.
            chunks = math.ceil(n / self._chunk_size(n, self.config.jobs))
            pool = PoolHandle.for_evaluator(
                evaluator, min(self.config.jobs, chunks))
            if pool is not None:
                with pool:
                    return self._run_shared_pool(pool, evaluator, d,
                                                 thetas, matrix)
        return self._run_serial(evaluator, d, thetas, matrix)

    def _chunk_size(self, n: int, jobs: int) -> int:
        if self.config.chunk_size is not None:
            return self.config.chunk_size
        return max(1, math.ceil(n / (jobs * _CHUNKS_PER_WORKER)))

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

        Fault handling is the serial stack's own: a sample whose first
        attempt raised is resumed through the parent's
        :meth:`~repro.runtime.tolerant.FaultTolerantEvaluator.
        resume_after_failure`, the retry loop that ``evaluate`` runs after
        its own first attempt.  Without a policy the serial loop would
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
    def _run_shared_pool(self, pool: PoolHandle, evaluator,
                         d: Mapping[str, float],
                         thetas: Sequence[Mapping[str, float]],
                         matrix: np.ndarray) -> BatchOutcome:
        n = matrix.shape[0]
        size = self._chunk_size(n, pool.jobs)
        task_args = [(dict(d), [dict(theta) for theta in thetas],
                      matrix[start:start + size], self.config.batch_samples)
                     for start in range(0, n, size)]
        outcome = BatchOutcome(values=[], backend="process-pool",
                               jobs=pool.jobs,
                               effort=Effort({"chunks": len(task_args)}))
        results = pool.run_tasks(evaluator, _evaluate_chunk, task_args,
                                 self.config.timeout_s)
        for args, values in zip(task_args, results):
            if values is None:
                # One in-parent re-run (counts on the parent evaluator
                # directly); results are identical to the pool's.
                outcome.effort.count("retried_chunks")
                try:
                    values = _evaluate_chunk(evaluator, *args)
                except Exception as exc:
                    raise ReproError(
                        f"batch chunk failed after one in-parent retry: "
                        f"{exc}") from exc
            outcome.values.extend(values)
        if not pool.alive:
            outcome.degraded_to_serial = True
            if pool.timed_out:
                outcome.effort.count("timed_out_chunks")
        return outcome
