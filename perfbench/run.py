#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload fig6_folded_cascode --seed 7 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--workload all`` runs each workload in a process of its own, exactly
as a single-workload run, and combines their results.

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` installs the span recorder, runs the timed
phase once untraced and once traced, writes the spans to
``.bench_run/traces/<workload>.jsonl`` and prints the per-layer metrics
computed from that dump.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed
output check prints the result with ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".bench_run")

import hostinfo  # noqa: E402  (stdlib only)

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("sims_per_s", "1/s"),
    ("simulations", "count"), ("final_yield", "ratio"),
    ("peak_rss_mb", "MB"),
    ("miss_latency_p50_ms", "ms"), ("miss_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
]
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3


def _import_benchmark():
    """Import the program and the benchmark modules; the program must
    come from this checkout's ``src``."""
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not "
                          f"from {SRC}")
    import layers
    import quantiles
    import spans
    import workloads
    return layers, quantiles, spans, workloads


def _setup_probe(args, workload: str) -> float:
    """Set-up time of the same workload in a fresh process."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"] \
        + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _e2e_metrics(outcome, setup_s, rss_mb, quantiles):
    """End-to-end metrics of one outcome, plus the hit latencies (W4),
    which are recorded but not gated, and the percentile notes.

    Only W4 has a latency series.  ``BENCHMARK.json`` asks for every
    metric on every workload, so on W1/W2 the latency and job-rate
    metrics are placeholders: both latencies are ``wall_s`` (the median
    unit) in ms and ``jobs_per_s`` is its inverse."""
    notes = {}
    values = {
        "setup_s": setup_s,
        "wall_s": outcome.wall_s,
        "sims_per_s": outcome.simulations / outcome.wall_s,
        "simulations": outcome.simulations,
        "final_yield": outcome.final_yield,
        "peak_rss_mb": rss_mb,
    }
    if not outcome.miss_ms:
        for name in ("miss_latency_p50_ms", "miss_latency_p90_ms"):
            values[name] = outcome.wall_s * 1e3
            notes[name] = "placeholder: wall_s in ms"
        values["jobs_per_s"] = 1.0 / outcome.wall_s
        notes["jobs_per_s"] = "placeholder: 1 / wall_s"
        return values, notes
    values["jobs_per_s"] = (len(outcome.miss_ms) + len(outcome.hit_ms)) \
        / outcome.timed_s
    for kind, samples in (("miss", outcome.miss_ms),
                          ("hit", outcome.hit_ms)):
        for q in (0.5, 0.9):
            name = f"{kind}_latency_p{round(q * 100)}_ms"
            report = quantiles.percentile(samples, q)
            values[name], notes[name] = report.value, report.describe()
    return values, notes


def _print_table(title, rows) -> None:
    print(f"\n{title}")
    for name, value, unit, note in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def _run_one(args, workload_cls, mods, import_s):
    run_id = f"{workload_cls.name}-{args.seed}-{os.getpid()}"
    run_dir = os.path.join(RUN_ROOT, run_id)
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _measure(args, workload_cls, mods, import_s, run_id,
                        run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, workload_cls, mods, import_s, run_id, run_dir):
    layers, quantiles, spans, workloads = mods
    tracer = None
    marker = os.path.join(run_dir, "tracing.on")
    if args.trace:
        tracer = spans.Tracer()
        unbound = layers.install(tracer, worker_marker=marker,
                                 worker_dir=run_dir)
        if unbound:
            raise RuntimeError(f"no caller binding for {unbound}")
    workload = workload_cls(args.seed, args.seconds, run_dir,
                            tiny=args.tiny, traced=bool(args.trace))
    setup_start = time.perf_counter()
    try:
        workload.setup()
        setup_own = import_s + time.perf_counter() - setup_start
        if args.setup_probe:
            return {"setup_s": setup_own}
        untraced = workload.run()
        traced = None
        if tracer is not None:
            # A fresh store/daemon, so the traced pass repeats the
            # untraced pass's work exactly (no cross-pass cache hits).
            workload.teardown()
            workload.setup()
            open(marker, "w").close()
            tracer.enabled = True
            try:
                traced = workload.run(tracer, label="-traced")
            finally:
                tracer.enabled = False
                os.unlink(marker)
        outcome = traced or untraced
        failures = workload.check(outcome)
    finally:
        workload.teardown()
    rss_mb = hostinfo.peak_rss_mb(
        include_children=workload_cls is workloads.ServeYieldStream)

    probe_s = hostinfo.host_speed_probe_s()
    meta = hostinfo.metadata(probe_s)
    meta.update(workload=workload_cls.name, seed=args.seed,
                seconds=args.seconds, trace=args.trace, run=run_id)
    result = {"correct": not failures, "attempted": outcome.attempted,
              "failed": outcome.failed}
    if tracer is None:
        setups = [setup_own] + [_setup_probe(args, workload_cls.name)
                                for _ in range(SETUP_REPEATS - 1)]
        meta["setup_runs_s"] = setups
        values, notes = _e2e_metrics(
            outcome, sorted(setups)[len(setups) // 2], rss_mb, quantiles)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END}
        meta["percentiles"] = notes
        if outcome.unit_s:
            meta["unit_s"] = outcome.unit_s
        ungated = [(name, "ms") for name in values
                   if name.startswith("hit_latency")]
        meta["ungated"] = {name: values[name] for name, _ in ungated}
        _print_table(f"{workload_cls.name} (seed {args.seed}) end to end",
                     [(name, values[name], unit, notes.get(name, ""))
                      for name, unit in END_TO_END + ungated])
    else:
        result["metrics"] = _per_layer(
            args, workload_cls, mods, tracer, traced, untraced, run_dir,
            run_id, meta)
    for failure in failures:
        print(f"CHECK FAILED [{workload_cls.name}]: {failure}",
              file=sys.stderr)
    return result, meta


def _per_layer(args, workload_cls, mods, tracer, traced, untraced,
               run_dir, run_id, meta):
    layers, _, spans, _ = mods
    trace_dir = os.path.join(RUN_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    dump = os.path.join(trace_dir, f"{workload_cls.name}.jsonl")
    records = spans.span_records(tracer.spans, workload_cls.name, run_id)
    for name in sorted(os.listdir(run_dir)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            for record in spans.read_dump(os.path.join(run_dir, name)):
                record.update(workload=workload_cls.name, run=run_id)
                records.append(record)
    spans.write_dump(dump, records)
    records = spans.read_dump(dump)
    root = next(r for r in records if r["name"] == "workload")
    overhead_s = traced.wall_s - untraced.wall_s
    values = layers.per_layer_metrics(records, root.get("attrs") or {},
                                      overhead_s)
    table = layers.self_time_table(records)
    root_s = root["end"] - root["start"]
    accounted = sum(row[2] for row in table)
    uncovered = layers.uncovered_share(table, root_s)
    print(f"\n{workload_cls.name} (seed {args.seed}) self time by layer, "
          f"timed phase {root_s:.3f} s, traced wall_s "
          f"{traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s")
    for layer, count, self_s in table:
        print(f"  {layer:<24} {count:>9d} spans {self_s:>10.4f} s "
              f"{100.0 * self_s / root_s:6.2f} %")
    print(f"  {'sum':<24} {'':>15} {accounted:>10.4f} s "
          f"{100.0 * accounted / root_s:6.2f} %")
    print(f"  outside every wrapped repro layer "
          f"({' + '.join(layers.UNCOVERED)}): {100.0 * uncovered:.2f} %")
    concurrent = layers.self_time_table(records, concurrent=True)
    if concurrent:
        print("  concurrent with it (serve daemon threads and workers):")
        for layer, count, self_s in concurrent:
            print(f"  {layer:<24} {count:>9d} spans {self_s:>10.4f} s "
                  f"{100.0 * self_s / root_s:6.2f} %")
    meta.update(dump=os.path.relpath(dump, ROOT), spans=len(records),
                self_time_sum_s=accounted, timed_phase_s=root_s,
                uncovered_share=uncovered)
    _print_table(f"{workload_cls.name} (seed {args.seed}) per layer",
                 [(name, values[name], unit, "")
                  for name, unit in layers.PER_LAYER])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not a measurement)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hostinfo.pin_threads()  # before numpy loads
    sys.path.insert(0, SRC)
    mods = _import_benchmark()
    import_s = hostinfo.process_age_s()
    workloads = mods[3]
    if args.workload == "all":
        if args.trace:
            parser.error("trace one workload at a time")
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"all, {', '.join(workloads.WORKLOADS)}")
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        print(json.dumps(_run_one(args, workload_cls, mods, import_s)))
        return 0

    os.makedirs(RUN_ROOT, exist_ok=True)
    result, meta = _run_one(args, workload_cls, mods, import_s)
    record = os.path.join(
        RUN_ROOT, f"{workload_cls.name}-seed{args.seed}-"
                  f"trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1)
    print("meta " + json.dumps(meta, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


def _run_all(args, names) -> int:
    """Every workload in a process of its own, so each one's set-up
    time and peak memory are its own; the results are combined with
    workload-prefixed metric names."""
    results = []
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"] \
            + (["--tiny"] if args.tiny else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name} exited {done.returncode} without a result",
                  file=sys.stderr)
            return done.returncode or 1
        results.append((name, result))
    final = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results
                    for metric, value in r["metrics"].items()}}
    print(json.dumps(final, separators=(",", ":")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
