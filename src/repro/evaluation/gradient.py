"""Finite-difference gradients of performances.

The worst-case point search (Eq. 8) needs ``grad_s f`` and the spec-wise
linear models (Eq. 16) additionally need ``grad_d f``.  The paper's
industrial simulator provided sensitivities; here they are computed by
forward differences on the counted evaluator, which keeps the simulation
accounting honest (each probe is one simulation, as it would be in the
industrial flow).

Normalized statistical coordinates are all O(1) (unit variance), so one
absolute step works for ``s``.  Design parameters span decades of physical
magnitude, so their step is relative.

Each axis kind has one private kernel that differences
``(probe - base) / step`` for every name in the base values; the
single-performance functions pass a one-entry base, and every design
probe (constraint Jacobian included) comes from one builder that flips
the step at the upper bound.  The probes of one gradient are mutually
independent and go through
:func:`~repro.yieldsim.executor.dispatch_points`, which
evaluates them on an optional ``pool``
(:class:`~repro.yieldsim.executor.PoolHandle`) when one is usable and
in-process otherwise; the values are the same either way, so pooled
gradients are bit-identical to serial ones.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..yieldsim.executor import dispatch_points
from .evaluator import Evaluator

#: Absolute step in normalized statistical coordinates (unit variance).
STEP_S = 1e-3

#: Relative step for design parameters.
STEP_D_REL = 1e-3


def _design_step(parameter, value: float, rel_step: float) -> float:
    """Finite-difference step for one design parameter.

    Relative to the current value, but floored at a fraction of the
    parameter's box span so parameters sitting at (or near) zero still get
    a numerically meaningful probe."""
    span = parameter.upper - parameter.lower
    return max(abs(value) * rel_step, span * rel_step * 1e-2, 1e-15)


def _design_probes(evaluator: Evaluator, d: Mapping[str, float],
                   rel_step: float) -> List[Tuple[str, float, Dict]]:
    """``(parameter name, step, probed design)`` per design parameter.

    Probes respect the box bounds by stepping backwards at the upper
    bound."""
    probes = []
    for parameter in evaluator.template.design_parameters:
        name = parameter.name
        step = _design_step(parameter, d[name], rel_step)
        if d[name] + step > parameter.upper:
            step = -step
        probe = dict(d)
        probe[name] = d[name] + step
        probes.append((name, step, probe))
    return probes


def _s_gradients(evaluator: Evaluator, base: Mapping[str, float],
                 d: Mapping[str, float], s_hat: np.ndarray,
                 theta: Mapping[str, float], step: float,
                 pool) -> Dict[str, np.ndarray]:
    """Forward differences of every value in ``base`` along each
    statistical axis (dim(s) probes)."""
    probes = []
    for k in range(len(s_hat)):
        probe = s_hat.copy()
        probe[k] += step
        probes.append((d, probe, theta))
    values = dispatch_points(pool, evaluator, probes)
    gradients = {name: np.empty(len(s_hat)) for name in base}
    for k, probe_values in enumerate(values):
        for name in base:
            gradients[name][k] = (probe_values[name] - base[name]) / step
    return gradients


def _d_gradients(base: Mapping[str, float],
                 probes: Sequence[Tuple[str, float, Dict]],
                 values: Sequence[Mapping[str, float]]
                 ) -> Dict[str, Dict[str, float]]:
    """Forward differences of every value in ``base`` along each design
    parameter, from the values at the :func:`_design_probes`."""
    gradients: Dict[str, Dict[str, float]] = {name: {} for name in base}
    for (pname, step, _), probe_values in zip(probes, values):
        for name in base:
            gradients[name][pname] = (probe_values[name] - base[name]) / step
    return gradients


def performance_gradient_s(
    evaluator: Evaluator,
    performance: str,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    base_value: Optional[float] = None,
    step: float = STEP_S,
    pool=None,
) -> np.ndarray:
    """``grad_s_hat f`` by forward differences (dim(s) extra simulations).

    Pass ``base_value`` to reuse an already simulated value at ``s_hat``.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    if base_value is None:
        base_value = evaluator.performance(performance, d, s_hat, theta)
    return _s_gradients(evaluator, {performance: base_value}, d, s_hat,
                        theta, step, pool)[performance]


def all_gradients_s(
    evaluator: Evaluator,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    step: float = STEP_S,
    pool=None,
) -> Dict[str, np.ndarray]:
    """Gradients of *all* template performances w.r.t. ``s_hat`` from one
    shared set of probes (dim(s)+1 simulations total).

    One simulation evaluates every performance at once (as in a real
    testbench), so when several specs share an operating point their
    gradients come at no extra cost.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    base = evaluator.evaluate(d, s_hat, theta)
    return _s_gradients(evaluator, base, d, s_hat, theta, step, pool)


def performance_gradient_d(
    evaluator: Evaluator,
    performance: str,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    base_value: Optional[float] = None,
    rel_step: float = STEP_D_REL,
    pool=None,
) -> Dict[str, float]:
    """``grad_d f`` by forward differences (dim(d) extra simulations).

    Returns a dict keyed by design-parameter name.  Probes respect the box
    bounds by stepping backwards at the upper bound.
    """
    if base_value is None:
        base_value = evaluator.performance(performance, d, s_hat, theta)
    probes = _design_probes(evaluator, d, rel_step)
    values = dispatch_points(pool, evaluator,
                             [(probe, s_hat, theta)
                              for _, _, probe in probes])
    return _d_gradients({performance: base_value}, probes,
                        values)[performance]


def all_gradients_d(
    evaluator: Evaluator,
    d: Mapping[str, float],
    s_hat: np.ndarray,
    theta: Mapping[str, float],
    rel_step: float = STEP_D_REL,
    pool=None,
) -> Dict[str, Dict[str, float]]:
    """Gradients of all performances w.r.t. all design parameters from one
    shared set of probes (dim(d)+1 simulations)."""
    base = evaluator.evaluate(d, s_hat, theta)
    probes = _design_probes(evaluator, d, rel_step)
    values = dispatch_points(pool, evaluator,
                             [(probe, s_hat, theta)
                              for _, _, probe in probes])
    return _d_gradients(base, probes, values)


def constraint_jacobian(
    evaluator: Evaluator,
    d: Mapping[str, float],
    rel_step: float = STEP_D_REL,
) -> tuple[Dict[str, float], Dict[str, Dict[str, float]]]:
    """Constraint values and their Jacobian w.r.t. ``d`` (Eq. 15 inputs).

    Returns ``(c0, jac)`` with ``jac[constraint][parameter]``.  Costs
    dim(d)+1 constraint (DC) simulations.
    """
    c0 = evaluator.constraints(d)
    probes = _design_probes(evaluator, d, rel_step)
    values = [evaluator.constraints(probe) for _, _, probe in probes]
    return c0, _d_gradients(c0, probes, values)
