"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from its span dump.

Every target is patched from outside, at every name a caller can look it
up by: a module-level function is replaced in *every* loaded ``repro``
module whose globals hold it (``repro.core.worst_case`` imports
``performance_gradient_s`` by name, so patching only
``repro.evaluation.gradient`` would record nothing), and a method is
replaced on its class.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Callable, Dict, List, Optional

from quantiles import nearest_rank
from spans import (Span, Tracer, self_times, span_records, stand_in,
                   write_dump)

DC_STRATEGIES = ("newton-warm", "newton", "gmin-stepping",
                 "source-stepping", "failed")


# -- attribute extractors -----------------------------------------------------
def _plan_rows(args, kwargs, result):
    return {"rows": int(getattr(args[0], "n_samples", 0))}


def _dc_iterations(args, kwargs, result):
    return {"iterations": int(getattr(result, "iterations", 0))}


def _batched_iterations(args, kwargs, result):
    iterations = args[2] if len(args) > 2 else kwargs.get("iterations", 0)
    return {"iterations": int(iterations)}


def _report_attr(args, kwargs, result):
    report = getattr(result, "report", None)
    if report is None:
        return None
    return {"phase_seconds": dict(report.phase_seconds),
            "theta_groups": int(report.theta_groups)}


#: (span name, module, qualified name, attribute extractor).  The span
#: name's first dotted part is its layer.
TARGETS = [
    ("worst_case.find_all", "repro.core.worst_case",
     "find_all_worst_case_points", None),
    ("worst_case.find_point", "repro.core.worst_case",
     "find_worst_case_point", None),
    ("gradient.performance_s", "repro.evaluation.gradient",
     "performance_gradient_s", None),
    ("gradient.all_s", "repro.evaluation.gradient", "all_gradients_s",
     None),
    ("gradient.performance_d", "repro.evaluation.gradient",
     "performance_gradient_d", None),
    ("gradient.all_d", "repro.evaluation.gradient", "all_gradients_d",
     None),
    ("gradient.constraint_jacobian", "repro.evaluation.gradient",
     "constraint_jacobian", None),
    ("linear_model.build", "repro.core.linear_model", "build_spec_models",
     None),
    ("linear_model.detect_quadratic", "repro.core.linear_model",
     "detect_quadratic", None),
    ("coordinate_search.search", "repro.core.coordinate_search",
     "coordinate_search", None),
    ("line_search.search", "repro.core.line_search",
     "feasibility_line_search", None),
    ("feasible_point.find", "repro.core.feasible_point",
     "find_feasible_point", None),
    ("feasible_point.linearize_constraints", "repro.core.constraints",
     "linearize_constraints", None),
    ("operating.find_worst_case", "repro.spec.operating",
     "find_worst_case_operating_points", None),
    ("template.evaluate", "repro.circuits.base", "OpampTemplate.evaluate",
     None),
    ("template.evaluate_batch", "repro.circuits.base",
     "OpampTemplate.evaluate_batch", None),
    ("yieldsim.estimate", "repro.yieldsim.operational",
     "OperationalMC.estimate", _report_attr),
    ("batch.solve", "repro.circuit.batch", "SampleBatchPlan.solve",
     _plan_rows),
    ("dc.solve_dc", "repro.circuit.dc", "solve_dc", _dc_iterations),
    ("dc.batched_result", "repro.circuit.batch",
     "SampleBatchPlan.dc_result", _batched_iterations),
    ("linsolve.sparse_factor", "repro.circuit.linsolve",
     "SparsePattern.factor", None),
    ("linsolve.splu", "repro.circuit.linsolve", "_splu_factor", None),
    ("linsolve.dense_dc_solve", "repro.circuit.linsolve",
     "DenseDcSystem.solve_at", None),
    ("linsolve.dense_ac_solve", "repro.circuit.linsolve",
     "DenseAcEngine._solve", None),
    ("linsolve.dense_ac_sweep", "repro.circuit.linsolve",
     "DenseAcEngine.solve_many", None),
    ("ac.unity_gain_frequency", "repro.circuit.ac", "unity_gain_frequency",
     None),
    ("ac.refine_unity_crossing", "repro.circuit.ac",
     "refine_unity_crossing", None),
    ("ac.warm_unity_crossing", "repro.circuit.ac", "warm_unity_crossing",
     None),
    ("mos.evaluate_nmos_stacked", "repro.circuit.mos",
     "evaluate_nmos_stacked", None),
    ("measure.measure", "repro.evaluation.measure",
     "OpenLoopOpampBench.measure", None),
    ("runtime.save_checkpoint", "repro.runtime.checkpoint",
     "save_checkpoint", None),
    ("serve.store_get", "repro.serve.store", "ResultStore.get", None),
    ("serve.store_put", "repro.serve.store", "ResultStore.put", None),
    ("serve.wal_append", "repro.serve.wal", "WriteAheadLog.append", None),
]

SPARSE_FACTOR_SPANS = ("linsolve.sparse_factor", "linsolve.splu")
DENSE_SOLVE_SPANS = ("linsolve.dense_dc_solve", "linsolve.dense_ac_solve",
                     "linsolve.dense_ac_sweep")
UGF_SPANS = ("ac.unity_gain_frequency", "ac.refine_unity_crossing",
             "ac.warm_unity_crossing")


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner, _, attr = qualname.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr, holder.__dict__[attr]


def _replace_everywhere(original, replacement) -> int:
    """Rebind every ``repro`` module global that holds ``original``."""
    count = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) \
                or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                count += 1
    return count


def _evaluator_wrapper(tracer: Tracer, fn: Callable, name: str):
    def counted(self, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, *args, **kwargs)
        sims, requests, hits = (self.simulation_count, self.request_count,
                                self.cache_hits)
        token = tracer.begin()
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.sims += self.simulation_count - sims
            tracer.requests += self.request_count - requests
            tracer.end(token, name,
                       {"hits": self.cache_hits - hits})
    return stand_in(fn, counted)


def _template_wrapper(tracer: Tracer, fn: Callable, name: str,
                      rows: bool):
    """Template calls also record the DC strategy counters they add."""
    def traced(self, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, *args, **kwargs)
        before = self.dc_effort_stats()
        token = tracer.begin()
        attrs: Dict = {}
        try:
            return fn(self, *args, **kwargs)
        finally:
            after = self.dc_effort_stats()
            attrs["dc_effort"] = {key: after.get(key, 0)
                                  - before.get(key, 0)
                                  for key in after
                                  if after.get(key, 0) != before.get(key, 0)}
            if rows:
                attrs["rows"] = len(args[1] if len(args) > 1
                                    else kwargs["rows"])
            tracer.end(token, name, attrs)
    return stand_in(fn, traced)


def _worker_job_wrapper(tracer: Tracer, fn: Callable, marker: str,
                        out_dir: str):
    """``execute_yield_job`` in a serve worker process: trace the job
    while ``marker`` exists and append its spans to a per-process dump
    file the parent merges."""
    owner = os.getpid()

    def job(payload):
        if os.getpid() == owner:
            return fn(payload)
        tracer.enabled = os.path.exists(marker)
        if not tracer.enabled:
            return fn(payload)
        seed = payload.get("request", {}).get("seed")
        with Span(tracer, "serve.worker_job", {"request": seed}):
            result = fn(payload)
        write_dump(os.path.join(out_dir, f"worker-{os.getpid()}.jsonl"),
                   span_records(tracer.spans, "", ""), mode="a")
        tracer.spans = []
        return result
    return stand_in(fn, job)


def install(tracer: Tracer, worker_marker: Optional[str] = None,
            worker_dir: Optional[str] = None) -> List[str]:
    """Patch every target; returns the span names that found no caller
    binding (should be empty)."""
    unbound = []
    for span_name, module_name, qualname, attrs in TARGETS:
        holder, attr, original = _resolve(module_name, qualname)
        if span_name.startswith("template."):
            wrapper = _template_wrapper(tracer, original, span_name,
                                        rows=attr == "evaluate_batch")
        else:
            wrapper = tracer.wrap(original, span_name, attrs)
        if isinstance(holder, type):
            setattr(holder, attr, wrapper)
        elif not _replace_everywhere(original, wrapper):
            unbound.append(span_name)
    for method in ("evaluate", "evaluate_batch"):
        holder, attr, original = _resolve("repro.evaluation.evaluator",
                                          f"Evaluator.{method}")
        setattr(holder, attr, _evaluator_wrapper(
            tracer, original, f"evaluator.{method}"))
    if worker_marker is not None:
        _, _, original = _resolve("repro.serve.jobs", "execute_yield_job")
        _replace_everywhere(original, _worker_job_wrapper(
            tracer, original, worker_marker, worker_dir))
    return unbound


# -- per-layer metrics --------------------------------------------------------
#: (metric name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("worst_case.calls", "count"), ("worst_case.self_s", "s"),
    ("worst_case.sims", "count"),
    ("gradient.calls", "count"), ("gradient.probes", "count"),
    ("gradient.self_s", "s"),
]
for _layer in ("linear_model", "coordinate_search", "line_search",
               "feasible_point", "operating"):
    PER_LAYER += [(f"{_layer}.calls", "count"), (f"{_layer}.self_s", "s"),
                  (f"{_layer}.sims", "count")]
PER_LAYER += [
    ("evaluator.requests", "count"), ("evaluator.sims", "count"),
    ("evaluator.cache_hit_ratio", "ratio"),
    ("template.calls", "count"), ("template.batch_rows", "count"),
    ("template.sim_ms_p50", "ms"), ("template.sim_ms_p99", "ms"),
    ("yieldsim.simulate_s", "s"), ("yieldsim.reduce_s", "s"),
    ("yieldsim.draw_s", "s"), ("yieldsim.theta_groups", "count"),
    ("batch.solve_calls", "count"), ("batch.rows", "count"),
    ("batch.self_s", "s"),
    ("dc.solves", "count"), ("dc.self_s", "s"),
    ("dc.newton_iterations", "count"),
] + [(f"dc.effort.{strategy}", "count") for strategy in DC_STRATEGIES] + [
    ("linsolve.sparse_factors", "count"),
    ("linsolve.sparse_factor_s", "s"),
    ("linsolve.sparse_factors_per_sim", "count"),
    ("linsolve.dense_solves", "count"), ("linsolve.dense_solve_s", "s"),
    ("ac.ugf_searches", "count"), ("ac.ugf_s", "s"),
    ("ac.ugf_factors_per_search", "count"),
    ("mos.stacked_calls", "count"), ("mos.stacked_s", "s"),
    ("measure.calls", "count"), ("measure.self_s", "s"),
    ("runtime.checkpoint_s", "s"), ("runtime.retries", "count"),
    ("serve.queue_wait_ms_p50", "ms"), ("serve.execute_ms_p50", "ms"),
    ("serve.http_overhead_ms_p50", "ms"), ("serve.store_get_s", "s"),
    ("serve.store_put_s", "s"), ("serve.wal_appends", "count"),
    ("serve.wal_append_s", "s"), ("serve.hit_ratio", "ratio"),
    ("tracing.overhead_s", "s"),
]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanIndex:
    """Parent links and self times of one dump, for layer queries."""

    def __init__(self, records: List[Dict]):
        self.records = records
        self.by_id = {record["span"]: record for record in records}
        self.self_s = self_times(records)

    def parent(self, record: Dict) -> Optional[Dict]:
        return self.by_id.get(record["parent"])

    def named(self, names) -> List[Dict]:
        return [record for record in self.records
                if record["name"] in names]

    def layer(self, layer: str) -> List[Dict]:
        return [record for record in self.records
                if layer_of(record["name"]) == layer]

    def outermost(self, records: List[Dict], names) -> List[Dict]:
        """``records`` not nested inside another span named in
        ``names`` (so inclusive counts are not summed twice)."""
        out = []
        for record in records:
            parent = self.parent(record)
            while parent is not None and parent["name"] not in names:
                parent = self.parent(parent)
            if parent is None:
                out.append(record)
        return out

    def inside(self, record: Dict, names) -> bool:
        parent = self.parent(record)
        while parent is not None:
            if parent["name"] in names:
                return True
            parent = self.parent(parent)
        return False


def _attr_sum(records, key) -> float:
    return sum((record.get("attrs") or {}).get(key, 0)
               for record in records)


def per_layer_metrics(records: List[Dict], root_attrs: Dict,
                      overhead_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run's spans."""
    index = SpanIndex(records)
    out: Dict[str, float] = {}

    def layer_block(layer: str, count_key: str = "calls",
                    sims_key: Optional[str] = "sims",
                    sims_field: str = "sims") -> None:
        spans = index.layer(layer)
        names = {record["name"] for record in spans}
        top = index.outermost(spans, names)
        out[f"{layer}.{count_key}"] = len(top)
        out[f"{layer}.self_s"] = sum(index.self_s[r["span"]]
                                     for r in spans)
        if sims_key:
            out[f"{layer}.{sims_key}"] = sum(r[sims_field] for r in top)

    layer_block("worst_case")
    layer_block("gradient", sims_key="probes", sims_field="requests")
    for layer in ("linear_model", "coordinate_search", "line_search",
                  "feasible_point", "operating"):
        layer_block(layer)

    evaluator = index.layer("evaluator")
    requests = sum(r["requests"] for r in evaluator)
    sims = sum(r["sims"] for r in evaluator)
    out["evaluator.requests"] = requests
    out["evaluator.sims"] = sims
    out["evaluator.cache_hit_ratio"] = (
        _attr_sum(evaluator, "hits") / requests if requests else 0.0)

    templates = index.layer("template")
    per_sim_ms: List[float] = []
    rows_total = 0
    for record in templates:
        rows = (record.get("attrs") or {}).get("rows")
        duration_ms = (record["end"] - record["start"]) * 1e3
        if rows is None:
            per_sim_ms.append(duration_ms)
        elif rows:
            rows_total += rows
            per_sim_ms.extend([duration_ms / rows] * rows)
    out["template.calls"] = len(templates)
    out["template.batch_rows"] = rows_total
    out["template.sim_ms_p50"] = nearest_rank(per_sim_ms, 0.50) or 0.0
    out["template.sim_ms_p99"] = nearest_rank(per_sim_ms, 0.99) or 0.0

    phases: Dict[str, float] = {}
    groups = 0
    for record in index.named({"yieldsim.estimate"}):
        attrs = record.get("attrs") or {}
        for key, value in attrs.get("phase_seconds", {}).items():
            phases[key] = phases.get(key, 0.0) + value
        groups += attrs.get("theta_groups", 0)
    for phase in ("simulate", "reduce", "draw"):
        out[f"yieldsim.{phase}_s"] = phases.get(phase, 0.0)
    out["yieldsim.theta_groups"] = groups

    batch = index.named({"batch.solve"})
    out["batch.solve_calls"] = len(batch)
    out["batch.rows"] = _attr_sum(batch, "rows")
    out["batch.self_s"] = sum(index.self_s[r["span"]] for r in batch)

    dc = index.layer("dc")
    out["dc.solves"] = len(dc)
    out["dc.self_s"] = sum(index.self_s[r["span"]] for r in dc)
    out["dc.newton_iterations"] = _attr_sum(dc, "iterations")
    effort: Dict[str, int] = {}
    for record in index.outermost(templates, {"template.evaluate",
                                              "template.evaluate_batch"}):
        for key, value in (record.get("attrs") or {}).get(
                "dc_effort", {}).items():
            effort[key] = effort.get(key, 0) + value
    for strategy in DC_STRATEGIES:
        out[f"dc.effort.{strategy}"] = effort.get(strategy, 0)

    sparse = index.named(SPARSE_FACTOR_SPANS)
    sparse_top = index.outermost(sparse, SPARSE_FACTOR_SPANS)
    dense = index.named(DENSE_SOLVE_SPANS)
    out["linsolve.sparse_factors"] = len(sparse_top)
    out["linsolve.sparse_factor_s"] = sum(r["end"] - r["start"]
                                          for r in sparse_top)
    out["linsolve.sparse_factors_per_sim"] = (
        len(sparse_top) / sims if sims else 0.0)
    out["linsolve.dense_solves"] = len(dense)
    out["linsolve.dense_solve_s"] = sum(index.self_s[r["span"]]
                                        for r in dense)

    ugf = index.outermost(index.named(UGF_SPANS), UGF_SPANS)
    factors_in_ugf = sum(1 for r in sparse_top + dense
                         if index.inside(r, UGF_SPANS))
    out["ac.ugf_searches"] = len(ugf)
    out["ac.ugf_s"] = sum(r["end"] - r["start"] for r in ugf)
    out["ac.ugf_factors_per_search"] = (
        factors_in_ugf / len(ugf) if ugf else 0.0)

    mos = index.named({"mos.evaluate_nmos_stacked"})
    out["mos.stacked_calls"] = len(mos)
    out["mos.stacked_s"] = sum(r["end"] - r["start"] for r in mos)

    measure = index.named({"measure.measure"})
    out["measure.calls"] = len(measure)
    out["measure.self_s"] = sum(index.self_s[r["span"]] for r in measure)

    out["runtime.checkpoint_s"] = sum(
        r["end"] - r["start"]
        for r in index.named({"runtime.save_checkpoint"}))
    out["runtime.retries"] = root_attrs.get("retries", 0)

    jobs = root_attrs.get("jobs", [])
    misses = [job for job in jobs if not job["hit"]]
    out["serve.queue_wait_ms_p50"] = nearest_rank(
        [job["queue_wait_ms"] for job in misses], 0.5) or 0.0
    out["serve.execute_ms_p50"] = nearest_rank(
        [job["execute_ms"] for job in misses], 0.5) or 0.0
    out["serve.http_overhead_ms_p50"] = nearest_rank(
        [job["http_overhead_ms"] for job in jobs], 0.5) or 0.0
    for key, name in (("store_get_s", "serve.store_get"),
                      ("store_put_s", "serve.store_put"),
                      ("wal_append_s", "serve.wal_append")):
        out[f"serve.{key}"] = sum(r["end"] - r["start"]
                                  for r in index.named({name}))
    out["serve.wal_appends"] = len(index.named({"serve.wal_append"}))
    out["serve.hit_ratio"] = (len(jobs) - len(misses)) / len(jobs) \
        if jobs else 0.0
    out["tracing.overhead_s"] = overhead_s
    return out


def self_time_table(records: List[Dict],
                    concurrent: bool = False) -> List[tuple]:
    """``(layer, spans, self_s)`` rows, largest first.

    By default over the spans of the workload's own process and thread,
    which nest inside its root span, so the rows sum to the timed phase.
    With ``concurrent`` over every other span instead: the serve
    daemon's threads and worker processes, which run beside the client.
    """
    index = SpanIndex(records)
    roots = [r for r in records if r["parent"] == 0
             and r["name"] == "workload"]
    if not roots:
        return []
    root = roots[0]
    rows: Dict[str, List] = {}
    for record in records:
        own = record["thread"] == root["thread"] and \
            record["span"] // 1_000_000_000 == root["span"] // 1_000_000_000
        if own == concurrent:
            continue
        layer = "(unattributed)" if record is root \
            else layer_of(record["name"])
        row = rows.setdefault(layer, [0, 0.0])
        row[0] += 1
        row[1] += index.self_s[record["span"]]
    return sorted(((layer, n, s) for layer, (n, s) in rows.items()),
                  key=lambda row: -row[2])


#: rows of :func:`self_time_table` that no wrapped ``repro`` layer
#: covers: the root span's own time and the benchmark's request loop
UNCOVERED = ("(unattributed)", "request")


def uncovered_share(table: List[tuple], root_s: float) -> float:
    """Share of the timed phase spent outside every wrapped layer, from
    a :func:`self_time_table` (the client thread's rows)."""
    return sum(self_s for layer, _, self_s in table
               if layer in UNCOVERED) / root_s
