"""DC operating-point solver.

Newton-Raphson on the MNA companion-model formulation with up to four
layers of robustness, applied in order until one converges:

1. warm-started damped Newton from a supplied nearby operating point
   (``x0``): a statistical sample or finite-difference step lands a few
   millivolts from its anchor, so this converges in a handful of
   iterations instead of the ~20 a cold solve needs,
2. plain damped Newton from the zero vector (the classic cold start;
   this is stage 1 when no ``x0`` is given),
3. gmin stepping: solve with a large conductance from every node to ground,
   then relax it geometrically down to ``GMIN_FINAL``,
4. source stepping: ramp all independent sources from 0 to 100 %.

Opamp circuits with the smooth level-1 model almost always converge in
the first applicable stage; the homotopies cover pathological
statistical corners so the Monte-Carlo and worst-case loops never die on
a single sample.  A bad warm start can only cost iterations, never
correctness: the cold chain below it is exactly the chain that runs when
no ``x0`` is supplied.

:class:`WarmStartCache` is the bounded anchor store the evaluation layer
uses to key warm starts on quantized ``(d, theta)`` cells.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from ..effort import Effort
from ..errors import ConvergenceError
from .devices import Isource, Vsource, _voltage
from .linsolve import resolve_backend
from .netlist import Circuit, MnaLayout

#: Final shunt conductance left on every node, as in SPICE.
GMIN_FINAL = 1e-12

#: Gmin-stepping homotopy: start conductance and geometric relaxation
#: factor.  The schedule values are *products* of repeated multiplication
#: (see :func:`gmin_schedule`), which is not bitwise the same as the
#: round literals — both the serial and the batched solver must iterate
#: the shared generator so they cannot drift.
GMIN_START = 1e-2
GMIN_FACTOR = 1e-2

#: Source-stepping homotopy ramp, shared by the serial and batched
#: solvers.  Every independent source is scaled by each value in turn.
SOURCE_SCALES = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 1.0)

#: Absolute/relative Newton convergence tolerances on the update step.
ABSTOL_V = 1e-9
RELTOL = 1e-6

#: Maximum Newton iterations per (gmin, source-scale) stage.
MAX_ITERATIONS = 120

#: Voltage-step damping limit per Newton iteration [V].
MAX_STEP_V = 0.6

#: Homotopy strategy labels in chain order; ``failed`` counts chains that
#: exhaust every stage.  :func:`solve_dc` counts the winning label under
#: the ``dc_effort`` namespace of the record it is handed.
DC_STRATEGIES = ("newton-warm", "newton", "gmin-stepping",
                 "source-stepping", "failed")
DC_EFFORT_KEYS = tuple(f"dc_effort.{label}" for label in DC_STRATEGIES)

#: Warm-start cache counters, under the ``warm_cache`` namespace.
WARM_CACHE_KEYS = tuple(f"warm_cache.{name}" for name in (
    "hits", "misses", "chain_seeds", "chain_solves", "evictions"))


def gmin_schedule() -> Iterator[float]:
    """The gmin-stepping conductance schedule, ending on ``GMIN_FINAL``.

    Yields ``GMIN_START`` relaxed geometrically by ``GMIN_FACTOR`` while
    above ``GMIN_FINAL``, then ``GMIN_FINAL`` itself for the finishing
    solve.  Serial gmin stepping and the lockstep batched homotopy both
    iterate this generator, so the stage conductances are bitwise
    identical by construction.
    """
    gmin = GMIN_START
    while gmin >= GMIN_FINAL:
        yield gmin
        gmin *= GMIN_FACTOR
    yield GMIN_FINAL


class DCResult:
    """Solved DC operating point.

    Provides node-voltage lookup, per-device operating-point records and the
    branch currents of voltage sources (for power measurements).
    """

    def __init__(self, circuit: Circuit, layout: MnaLayout, x: np.ndarray,
                 temp_c: float, iterations: int, strategy: str):
        self._circuit = circuit
        self._layout = layout
        self.x = x
        self.temp_c = temp_c
        self.iterations = iterations
        self.strategy = strategy
        self._ops: Optional[Dict[str, dict]] = None

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` relative to ground."""
        index = self._layout.node_index.get(node)
        if index is None:
            from .netlist import is_ground
            if is_ground(node):
                return 0.0
            raise KeyError(f"unknown node {node!r}")
        return _voltage(self.x, index)

    def voltages(self) -> Dict[str, float]:
        """All node voltages as a dict."""
        return {name: _voltage(self.x, i)
                for name, i in self._layout.node_index.items() if i >= 0}

    def operating_points(self) -> Dict[str, dict]:
        """Per-device operating-point records, keyed by device name."""
        if self._ops is None:
            ops: Dict[str, dict] = {}
            for dev, nodes, branches in zip(self._circuit.devices,
                                            self._layout.device_nodes,
                                            self._layout.device_branches):
                record = dev.operating_point(self.x, nodes, branches)
                if record is not None:
                    ops[dev.name] = record
            self._ops = ops
        return self._ops

    def op(self, device_name: str) -> dict:
        """Operating-point record of one device."""
        ops = self.operating_points()
        if device_name not in ops:
            raise KeyError(f"no operating point for device {device_name!r}")
        return ops[device_name]

    def source_current(self, source_name: str) -> float:
        """Branch current through an independent voltage source, flowing
        from its positive terminal through the source to the negative one."""
        for dev, branches in zip(self._circuit.devices,
                                 self._layout.device_branches):
            if dev.name == source_name:
                if not branches:
                    raise KeyError(
                        f"device {source_name!r} has no branch current")
                return float(self.x[branches[0]])
        raise KeyError(f"no device named {source_name!r}")


def _newton(circuit: Circuit, layout: MnaLayout, x0: np.ndarray,
            gmin: float, backend) -> tuple[np.ndarray, int]:
    """Damped Newton iteration; raises ConvergenceError on failure.

    The linear-solve kernel comes from ``backend``
    (:mod:`repro.circuit.linsolve`): the backend's DC system stamps the
    linear devices and the gmin diagonal once, then each iteration
    re-stamps only the nonlinear devices and solves — densely via LAPACK
    or sparsely via a pattern-cached ``splu`` factorization.
    """
    x = x0.copy()
    system = backend.dc_system(circuit, layout, gmin)
    for iteration in range(1, MAX_ITERATIONS + 1):
        x_new = system.solve_at(x)
        if not np.all(np.isfinite(x_new)):
            raise ConvergenceError(
                f"non-finite Newton update in circuit {circuit.title!r}")
        delta = x_new - x
        # Damp only the node-voltage part; branch currents may legitimately
        # jump by large amounts.
        nv = layout.n_nodes
        step = np.max(np.abs(delta[:nv])) if nv else 0.0
        if step > MAX_STEP_V:
            x = x + delta * (MAX_STEP_V / step)
            continue
        x = x_new
        if nv == 0:
            # No node voltages to test: any undamped step is converged
            # (branch-current-only systems are linear in practice).
            return x, iteration
        if step <= ABSTOL_V + RELTOL * np.max(np.abs(x[:nv])):
            return x, iteration
    raise ConvergenceError(
        f"Newton did not converge in {MAX_ITERATIONS} iterations "
        f"(circuit {circuit.title!r}, gmin={gmin:g})")


def _gmin_stepping(circuit: Circuit, layout: MnaLayout,
                   x0: np.ndarray, backend) -> tuple[np.ndarray, int]:
    x = x0.copy()
    total = 0
    for gmin in gmin_schedule():
        x, iters = _newton(circuit, layout, x, gmin, backend)
        total += iters
    return x, total


def _source_stepping(circuit: Circuit, layout: MnaLayout,
                     x0: np.ndarray, backend) -> tuple[np.ndarray, int]:
    sources = [d for d in circuit.devices if isinstance(d, (Vsource, Isource))]
    x = x0.copy()
    total = 0
    saved = [src.scale for src in sources]
    try:
        for scale in SOURCE_SCALES:
            for src in sources:
                src.scale = scale
            x, iters = _newton(circuit, layout, x, GMIN_FINAL, backend)
            total += iters
    finally:
        # Restore the pre-call scales (not a hardcoded 1.0) so a caller
        # that legitimately runs with scaled sources is not clobbered.
        for src, scale in zip(sources, saved):
            src.scale = scale
    return x, total


def solve_dc(circuit: Circuit, temp_c: float = 27.0,
             x0: Optional[np.ndarray] = None,
             backend=None, effort: Optional[Effort] = None) -> DCResult:
    """Find the DC operating point of ``circuit`` at ``temp_c`` Celsius.

    ``x0`` seeds a leading "newton-warm" stage (e.g. with the solution of
    a nearby statistical sample), which dramatically speeds up
    Monte-Carlo loops; the cold strategy chain below it is unchanged, so
    a bad guess costs iterations but never the solution.

    ``backend`` selects the linear-solver backend (``None``/``"auto"``/
    ``"dense"``/``"sparse"`` or a :mod:`repro.circuit.linsolve` instance);
    the default picks by node count and keeps small circuits on the
    dense path bit-identically.

    ``effort`` is an optional :class:`~repro.effort.Effort` record: the
    winning strategy label is counted as ``dc_effort.<label>`` on
    success, ``dc_effort.failed`` when the whole chain gives up.

    Raises :class:`ConvergenceError` if all homotopy strategies fail.
    """
    layout = circuit.layout()
    backend = resolve_backend(backend, layout.n_nodes)
    for dev in circuit.devices:
        dev.prepare(temp_c)

    strategies = []
    if x0 is not None and len(x0) == layout.size \
            and np.all(np.isfinite(x0)):
        warm = np.asarray(x0, dtype=float).copy()
        strategies.append(
            ("newton-warm", lambda: _newton(circuit, layout, warm,
                                            GMIN_FINAL, backend)))
    strategies += [
        ("newton", lambda: _newton(circuit, layout,
                                   np.zeros(layout.size), GMIN_FINAL,
                                   backend)),
        ("gmin-stepping", lambda: _gmin_stepping(circuit, layout,
                                                 np.zeros(layout.size),
                                                 backend)),
        ("source-stepping", lambda: _source_stepping(circuit, layout,
                                                     np.zeros(layout.size),
                                                     backend)),
    ]
    last_error: Optional[Exception] = None
    for label, run in strategies:
        try:
            x, iterations = run()
            if effort is not None:
                effort.count(f"dc_effort.{label}")
            return DCResult(circuit, layout, x, temp_c, iterations, label)
        except ConvergenceError as exc:
            last_error = exc
    if effort is not None:
        effort.count("dc_effort.failed")
    raise ConvergenceError(
        f"all DC strategies failed for circuit {circuit.title!r}: "
        f"{last_error}")


class WarmStartCache:
    """Bounded FIFO store of DC anchor solutions, keyed by quantized
    ``(d, theta)`` cells.

    A key maps to the solved ``x`` vector of its cell's *representative*
    point, or to ``None`` when that solve failed (negative caching, so a
    dead cell is not re-attempted on every sample).  Entries are evicted
    oldest-first once ``maxsize`` is reached; anchors are cheap to
    recompute, so no LRU bookkeeping is justified on this hot path.

    A second, smaller store holds *chain* anchors: cold-solved
    representatives of **coarser** quantization cells, used to seed a new
    fine cell's representative solve instead of cold-starting it (the
    ROADMAP "anchor-of-anchor" chain).  Chain anchors are keyed by a
    deterministic function of the fine key alone — never by solve
    history — so every anchor remains a pure function of its key and
    pooled/serial evaluation stay bit-identical.  Counters
    (``hits``/``misses``/``chain_seeds``/``chain_solves``/``evictions``)
    go to the ``warm_cache`` namespace of :attr:`effort`.
    """

    _MISSING = object()

    def __init__(self, maxsize: int = 256, chain_maxsize: int = 64,
                 effort: Optional[Effort] = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if chain_maxsize < 1:
            raise ValueError(
                f"chain_maxsize must be >= 1, got {chain_maxsize}")
        self.maxsize = maxsize
        self.chain_maxsize = chain_maxsize
        #: record the ``warm_cache.*`` counters go to (the owning
        #: template's, so they travel with the rest of its effort)
        self.effort = effort if effort is not None \
            else Effort(declare=WARM_CACHE_KEYS)
        self._data: Dict[tuple, Optional[np.ndarray]] = {}
        self._chain: Dict[tuple, Optional[np.ndarray]] = {}

    def lookup(self, key: tuple):
        """The cached anchor (may be None for a failed cell), or the
        :data:`WarmStartCache._MISSING` sentinel when unknown."""
        value = self._data.get(key, self._MISSING)
        self.effort.count("warm_cache.misses" if value is self._MISSING
                          else "warm_cache.hits")
        return value

    def store(self, key: tuple, x) -> None:
        """Cache an anchor: ``None`` (failed cell), an ``x`` vector, or a
        tuple of per-cell artifacts (solution, sensitivities, hints...).
        Arrays are copied so callers cannot mutate cached state."""
        if key not in self._data and len(self._data) >= self.maxsize:
            self._data.pop(next(iter(self._data)))
            self.effort.count("warm_cache.evictions")
        if x is None:
            value = None
        elif isinstance(x, tuple):
            value = tuple(np.array(part, dtype=float, copy=True)
                          if isinstance(part, np.ndarray) else part
                          for part in x)
        else:
            value = np.asarray(x, dtype=float).copy()
        self._data[key] = value

    def lookup_chain(self, key: tuple):
        """The cached chain anchor ``x`` (``None`` for a failed coarse
        cell), or :data:`WarmStartCache._MISSING` when unknown.  Chain
        lookups do not touch the hit/miss counters — their effectiveness
        is measured by ``chain_seeds`` vs ``chain_solves``."""
        return self._chain.get(key, self._MISSING)

    def store_chain(self, key: tuple, x) -> None:
        """Cache a coarse-cell chain anchor (``x`` vector or ``None``)."""
        if key not in self._chain and len(self._chain) >= self.chain_maxsize:
            self._chain.pop(next(iter(self._chain)))
            self.effort.count("warm_cache.evictions")
        self._chain[key] = None if x is None \
            else np.asarray(x, dtype=float).copy()

    def stats(self) -> Dict[str, int]:
        """Counter view plus the ``entries``/``chain_entries`` gauges
        (gauges are sizes, not additive counts)."""
        return {**self.effort.namespace("warm_cache"),
                "entries": len(self._data),
                "chain_entries": len(self._chain)}

    def clear(self) -> None:
        self._data.clear()
        self._chain.clear()

    def __len__(self) -> int:
        return len(self._data)
