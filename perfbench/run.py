"""Benchmark: host wall time, simulated timing truth and a per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tc2-event --seed 0 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints the
end-to-end metrics. ``--trace 1`` runs it traced (spans recorded from
this directory around each layer's public functions), restores every
wrapper, replays the same batches untraced for the overhead figure, and
prints the per-layer ledger. Every metric line names its unit and its
timing source: ``host-wall`` (this host's clock), ``simulated`` (event
engine timestamps), ``modeled/simulated`` (the Eq. 4 performance model
against the simulation) or ``count`` (work counted, not timed). The
compiled engine's cycle counts are modeled and never reported here.

Each run checks every output (see ``workloads.py``) outside the timed
section, appends a record with its provenance to ``perfbench/out/
history.jsonl``, and ends with one JSON line: ``correct``, ``attempted``
and ``failed`` images, and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from pathlib import Path

# One process, at most nproc threads: the main thread and the memory
# sampler. No timed code path uses BLAS; the oracle's GEMMs run serially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"repro imported from {repro.__file__}, not from this checkout's src/")

import measure  # noqa: E402
from ledger import KERNEL_GROUPS, Ledger, SpanRecorder, check_restored  # noqa: E402
from repro.compiled import backend_name, plan_cache_stats  # noqa: E402
from workloads import (  # noqa: E402
    HELD_BACK_OFFSET,
    TC2_BATCH,
    WORKLOADS,
    BatchResult,
    timing_truth,
)

#: Cold set-ups per run (at least this many, and for at least
#: SETUP_MIN_S seconds); ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
OUT_DIR = HERE / "out"

#: End-to-end metrics: name -> (unit, timing source, definition).
END_TO_END = {
    "wall_s_per_image": ("s", "host-wall", "median over timed batches of batch wall / images"),
    "setup_s": ("s", "host-wall", "median of repeated cold set-ups"),
    "peak_rss_mb": ("MB", "host-wall", "peak resident memory over the timed section"),
    "latency_ms.p50": ("ms", "host-wall", "per-batch wall latency, median"),
    "latency_ms.p90": ("ms", "host-wall", "per-batch wall latency, nearest-rank p90 "
                       "when ten batches lie beyond it, else the median"),
    "sim_interval_cycles": ("cycles", "simulated", "TC2 event engine, last completion gap"),
    "sim_fill_cycles": ("cycles", "simulated", "TC2 event engine, first completion"),
    "interval_model_err_pct": ("%", "modeled/simulated", "|Eq. 4 interval - simulated| / simulated"),
    "fill_model_err_pct": ("%", "modeled/simulated", "|modeled fill - simulated| / simulated"),
}

#: TC2 compute cores and pipeline stages (the timing-truth probe's design).
TC2_CORES = ("conv1.core", "pool1.core0", "conv2.core", "pool2.core0", "fc1.core", "fc2.core")
TC2_STAGES = ("dma_in", "conv1", "pool1", "conv2", "pool2", "fc1", "fc2")
SIM_COUNTERS = ("fires", "stalled_channel", "stalled_gate", "stalled_timer")
EVENT_COUNTERS = ("executed_cycles", "skipped_cycles", "parks", "wakeups")

#: Which end-to-end metric each ledger family should move, and where.
MOVES = {
    "compiled.kernels": "wall_s_per_image, peak_rss_mb on alexnet-compiled; latency_ms on tc2-serve; nothing on tc2-event",
    "core.builder": "setup_s everywhere; latency_ms, wall_s_per_image on tc2-serve",
    "analysis": "setup_s everywhere; latency_ms, wall_s_per_image on tc2-serve",
    "compiled": "setup_s everywhere; latency_ms, wall_s_per_image on tc2-serve",
    "profiling": "setup_s everywhere; latency_ms, wall_s_per_image on tc2-serve",
    "dataflow.event": "wall_s_per_image on tc2-event only",
    "dataflow.sim": "sim_interval_cycles, sim_fill_cycles, *_model_err_pct (TC2 probe)",
    "core.perf_model": "sim_interval_cycles, interval_model_err_pct (TC2 probe)",
    "serve": "latency_ms on tc2-serve",
    "trace": "none: cost of tracing itself",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for g in KERNEL_GROUPS:
        units.update({f"compiled.kernels.{g}.s": "s", f"compiled.kernels.{g}.calls": "count",
                      f"compiled.kernels.{g}.share": "ratio"})
    for g in ("conv", "fc"):
        units.update({f"compiled.kernels.{g}.macs": "MAC/image",
                      f"compiled.kernels.{g}.bytes": "B/image",
                      f"compiled.kernels.{g}.gbps": "GB/s"})
    units.update({
        "core.builder.build_s": "s", "core.builder.actors": "count",
        "core.builder.channels": "count", "analysis.verify_s": "s",
        "analysis.schedule_s": "s", "compiled.lower_s": "s",
        "compiled.plan_cache.hits": "count", "compiled.plan_cache.misses": "count",
        "compiled.plan_cache.hit_ratio": "ratio", "profiling.synthesis_s": "s",
        "dataflow.event.run_s": "s",
    })
    units.update({f"dataflow.event.{c}": "count/batch" for c in EVENT_COUNTERS})
    units["dataflow.event.host_ns_per_cycle"] = "ns/cycle"
    for core in TC2_CORES:
        units.update({f"dataflow.sim.{core}.{c}": "cycles" for c in SIM_COUNTERS})
    units.update({f"core.perf_model.{s}.interval_gap_cycles": "cycles" for s in TC2_STAGES})
    units.update({"serve.batch_s": "s", "serve.digest_s": "s",
                  "serve.request_image_s": "s", "trace.overhead_pct": "%"})
    return units


def per_layer_source(name: str) -> str:
    if name.startswith("dataflow.sim."):
        return "simulated"
    if name.startswith("core.perf_model."):
        return "modeled/simulated"
    if name.endswith((".s", "_s", ".share", ".gbps", "_pct", "host_ns_per_cycle")):
        return "host-wall"
    return "count"


# -- timed sections ----------------------------------------------------------


def timed_section(wl, setup, seed, items, seconds, recorder=None):
    """Run batches until ``seconds`` have passed (and, when serving, until
    ten batches lie beyond the 90th percentile).

    Returns the batch results, the inputs consumed (for replay) and the
    plan-cache (hits, misses) the section caused.
    """
    wl.before_section()
    run = wl.run if recorder is None else recorder.timed("bench.batch", wl.run)
    min_batches = 10 * measure.TAIL_SAMPLES if wl.serves_requests else 1
    results, used = [], []
    cache0 = plan_cache_stats()
    t0 = time.perf_counter()
    for index, item in enumerate(items):
        if len(results) >= min_batches and time.perf_counter() - t0 >= seconds:
            break
        if recorder is not None:
            recorder.rid = index
        try:
            res = run(setup, seed, index, item)
        except Exception as exc:  # counted as failed images, run continues
            res = BatchResult(index, len(item), error=f"{type(exc).__name__}: {exc}")
        results.append(res)
        used.append(item)
    cache1 = plan_cache_stats()
    return results, used, (cache1["hits"] - cache0["hits"], cache1["misses"] - cache0["misses"])


def ok_results(results):
    return [r for r in results if r.error is None]


def replay_failures(traced, untraced) -> int:
    """Images whose untraced output digest differs from the traced run's."""
    failed = 0
    for a, b in zip(traced, untraced):
        if a.error is not None or b.error is not None:
            failed += b.images if b.error is not None else 0
            continue
        failed += sum(x != y for x, y in zip(a.row_digests(), b.row_digests()))
    return failed


# -- metrics -----------------------------------------------------------------


def end_to_end_metrics(results, setup_times, peak_mb):
    """Host-wall metrics of an untraced run: (values, notes, tail percentile)."""
    ok = ok_results(results)
    per_image = [r.wall_s / r.images for r in ok]
    latency = [r.wall_s * 1e3 for r in ok]
    tail, used = measure.tail_latency(latency, 90) if ok else (0.0, "none")
    values = {
        "wall_s_per_image": measure.median(per_image) if ok else 0.0,
        "setup_s": measure.median(setup_times),
        "peak_rss_mb": peak_mb,
        "latency_ms.p50": measure.median(latency) if ok else 0.0,
        "latency_ms.p90": tail,
    }
    notes = {
        "wall_s_per_image": f"{sum(r.images for r in ok)} images in {len(ok)} batches",
        "setup_s": f"{len(setup_times)} set-ups",
        "latency_ms.p50": f"n={len(latency)} batches",
        "latency_ms.p90": f"n={len(latency)}: {used}"
        + ("" if used == "p90" else " (fewer than 10 samples beyond p90)"),
    }
    return values, notes, used


def truth_metrics(truth, notes) -> dict:
    """End-to-end timing-truth metrics of the TC2 probe."""
    if truth is None:
        return {}
    notes["sim_interval_cycles"] = f"modeled {truth.model_interval}"
    notes["sim_fill_cycles"] = f"modeled {truth.model_fill}"
    if truth.held_back is not None:
        notes["sim_interval_cycles"] += f"; held-back seed {truth.held_back[0]}"
        notes["sim_fill_cycles"] += f"; held-back seed {truth.held_back[1]}"
    return {
        "sim_interval_cycles": truth.interval,
        "sim_fill_cycles": truth.fill,
        "interval_model_err_pct": truth.interval_err_pct,
        "fill_model_err_pct": truth.fill_err_pct,
    }


def per_layer_metrics(rec, ledger, traced, untraced, cache_delta) -> dict:
    """Host-side ledger of a traced section (self times, counts, work)."""
    self_s = rec.self_times()
    calls = rec.counts()
    ok = ok_results(traced)
    traced_wall = sum(r.wall_s for r in ok)
    untraced_wall = sum(r.wall_s for r in ok_results(untraced))
    images = sum(r.images for r in ok) or 1
    v = {}
    for g in KERNEL_GROUPS:
        s = self_s.get(f"compiled.kernels.{g}", 0.0)
        v[f"compiled.kernels.{g}.s"] = s
        v[f"compiled.kernels.{g}.calls"] = calls.get(f"compiled.kernels.{g}", 0)
        v[f"compiled.kernels.{g}.share"] = s / traced_wall if traced_wall else 0.0
    for g, (macs, nbytes) in ledger.work.items():
        s = self_s.get(f"compiled.kernels.{g}", 0.0)
        v[f"compiled.kernels.{g}.macs"] = macs / images
        v[f"compiled.kernels.{g}.bytes"] = nbytes / images
        v[f"compiled.kernels.{g}.gbps"] = nbytes / s / 1e9 if s else 0.0
    hits, misses = cache_delta
    v.update({
        "core.builder.build_s": self_s.get("core.builder.build", 0.0),
        "core.builder.actors": ledger.graph_size[0],
        "core.builder.channels": ledger.graph_size[1],
        "analysis.verify_s": self_s.get("analysis.verify", 0.0),
        "analysis.schedule_s": self_s.get("analysis.schedule", 0.0),
        "compiled.lower_s": self_s.get("compiled.lower", 0.0),
        "compiled.plan_cache.hits": hits,
        "compiled.plan_cache.misses": misses,
        "compiled.plan_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "profiling.synthesis_s": self_s.get("profiling.synthesis", 0.0),
        "dataflow.event.run_s": self_s.get("dataflow.event.run", 0.0),
        "serve.batch_s": self_s.get("serve.batch", 0.0),
        "serve.digest_s": self_s.get("serve.digest", 0.0),
        "serve.request_image_s": self_s.get("serve.request_image", 0.0),
    })
    event = [r.scheduler_stats for r in ok if r.scheduler_stats.get("scheduler") == "event"]
    for c in EVENT_COUNTERS:
        v[f"dataflow.event.{c}"] = event[0][c] if event else 0
    cycles = sum(s["executed_cycles"] + s["skipped_cycles"] for s in event)
    v["dataflow.event.host_ns_per_cycle"] = (
        v["dataflow.event.run_s"] * 1e9 / cycles if cycles else 0.0
    )
    v["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0
    )
    return v


def truth_ledger(truth) -> dict:
    """Per-core simulated counters and per-stage interval gaps of the probe.

    Each core reports its busiest process (the one whose ``fires`` is the
    Eq. 4 busy count); stall counters of different processes overlap.
    """
    if truth is None:
        return {}
    v = {}
    for core in TC2_CORES:
        procs = truth.actor_stats.get(core, [])
        busiest = max(procs, key=lambda p: p["fires"]) if procs else {}
        for c in SIM_COUNTERS:
            v[f"dataflow.sim.{core}.{c}"] = busiest.get(c, 0)
    for stage in TC2_STAGES:
        v[f"core.perf_model.{stage}.interval_gap_cycles"] = truth.stage_gaps.get(stage, 0)
    return v


# -- the run -----------------------------------------------------------------


def measure_untraced(wl, seed, seconds):
    """Cold set-ups, then the untraced timed section under the RSS sampler."""
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        setup = None  # free the previous weights before building new ones
        gc.collect()
        t0 = time.perf_counter()
        setup = wl.cold_setup(seed)
        setup_times.append(time.perf_counter() - t0)
    check_restored()
    gc.collect()
    with measure.RssSampler() as rss:
        results, _, _ = timed_section(wl, setup, seed, wl.items(setup, seed), seconds)
    failed = wl.check(setup, seed, results)
    return end_to_end_metrics(results, setup_times, rss.peak_mb), results, failed


def measure_traced(wl, seed, seconds):
    """Traced section, restore, then the same batches replayed untraced."""
    setup = wl.cold_setup(seed)
    rec = SpanRecorder()
    ledger = Ledger(rec)
    ledger.install()
    try:
        traced, used, cache_delta = timed_section(
            wl, setup, seed, wl.items(setup, seed), seconds / 2, rec
        )
    finally:
        ledger.restore()
    check_restored()
    untraced, _, _ = timed_section(wl, setup, seed, used, math.inf)
    failed = wl.check(setup, seed, traced) + replay_failures(traced, untraced)
    notes = {}
    if wl.name == "tc2-serve":
        sizes = {r.images for r in traced}
        notes["compiled.plan_cache.misses"] = f"{len(sizes)} distinct batch sizes drawn"
    v = per_layer_metrics(rec, ledger, traced, untraced, cache_delta)
    return (v, notes, rec), traced + untraced, failed


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    started = measure.now_iso()

    checks, errors, rec = {}, [], None
    try:
        if args.trace:
            (values, notes, rec), results, failed = measure_traced(
                wl, args.seed, args.seconds
            )
            tail = "none"
        else:
            (values, notes, tail), results, failed = measure_untraced(
                wl, args.seed, args.seconds
            )
    except Exception as exc:  # set-up crashed: one failed attempt, all metrics 0
        errors.append(f"set-up: {type(exc).__name__}: {exc}")
        values, notes, rec, results, failed, tail = {}, {}, None, [], 1, "none"
    attempted = sum(r.images for r in results) or 1
    errors += sorted({r.error for r in results if r.error})
    try:
        truth = timing_truth(args.seed, wl.held_back, stage_gaps=bool(args.trace))
        attempted += truth.attempted
        failed += truth.failed
        if wl.held_back:
            checks["seed_invariant"] = truth.held_back == (truth.interval, truth.fill)
    except Exception as exc:  # the probe's batch counts as failed
        truth = None
        attempted += TC2_BATCH
        failed += TC2_BATCH
        errors.append(f"timing truth: {type(exc).__name__}: {exc}")
    if args.trace:
        units = per_layer_units()
        sources = {n: per_layer_source(n) for n in units}
        values.update(truth_ledger(truth))
    else:
        units = {n: u for n, (u, _s, _d) in END_TO_END.items()}
        sources = {n: s for n, (_u, s, _d) in END_TO_END.items()}
        values.update(truth_metrics(truth, notes))
        if wl.serves_requests:
            checks["ten_beyond_p90"] = tail == "p90"
    values = {n: values.get(n, 0) for n in units}
    correct = failed == 0 and not errors and all(checks.values())
    error_rate = failed / attempted

    provenance = {
        "git_revision": measure.git_revision(ROOT),
        "seed": args.seed,
        "held_back_seed": args.seed + HELD_BACK_OFFSET if wl.held_back else None,
        "workload": wl.name,
        "engine": wl.engine,
        "trace": args.trace,
        "seconds": args.seconds,
        "started": started,
        "host": measure.host_details(backend_name()),
    }
    print(f"workload {wl.name}  engine {wl.engine}  seed {args.seed}  trace {args.trace}")
    family = None
    for name in units:
        if args.trace:
            fam = max((f for f in MOVES if name.startswith(f + ".")), key=len)
            if fam != family:
                family = fam
                print(f"# {fam}.*  moves: {MOVES[fam]}")
        print(f"  {name:<46} {fmt(values[name]):>14} {units[name]:<11} "
              f"[{sources[name]}] {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':<46} {fmt(error_rate):>14} {'ratio':<11} "
          f"[check] {failed} failed of {attempted} images")
    print(f"# checks {json.dumps(checks)} errors {json.dumps(errors)}")
    print(f"# provenance {json.dumps(provenance)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "provenance": provenance,
        "batch_wall_s": [r.wall_s for r in results if r.error is None],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "checks": checks,
        "errors": errors,
        "metrics": {n: {"value": values[n], "unit": units[n], "source": sources[n]}
                    for n in units},
    }
    if rec is not None:
        spans = OUT_DIR / f"spans-{wl.name}-seed{args.seed}-{time.time_ns()}.json"
        spans.write_text(json.dumps(rec.to_json()))
        record["spans_file"] = spans.name
    with open(OUT_DIR / "history.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
