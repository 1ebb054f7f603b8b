"""The benchmark's own rules, checked on ``tiny_design``.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import measure
import repro.core.builder as builder
import run
from ledger import Ledger, SpanRecorder, check_restored, leaked_wrappers
from repro.compiled.kernels import KERNELS
from repro.core import random_weights, tiny_design
from repro.core.builder import build_network
from repro.core.reference import design_reference_forward
from repro.profiling import profile_design
from workloads import Setup, Workload

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tiny():
    design = tiny_design()
    weights = random_weights(design, seed=3)
    batch = np.random.default_rng(3).uniform(0, 1, (4, 1, 8, 8)).astype(np.float32)
    return design, weights, batch


def test_interval_and_fill_from_completions():
    assert measure.completion_timing([100, 150, 210, 270]) == (60, 100)
    with pytest.raises(ValueError):
        measure.completion_timing([100])


def test_interval_and_fill_match_the_profiler(tiny):
    design, weights, batch = tiny
    built = build_network(design, weights, batch)
    built.run(scheduler="event")
    interval, fill = measure.completion_timing(built.image_completion_cycles())
    report = profile_design(design, images=len(batch), seed=3)
    assert interval == report.throughput["interval_measured"]
    assert fill == report.latency["fill_measured"]


@pytest.mark.parametrize(
    "n, beyond", [(100, 10), (99, 9), (110, 11), (10, 1), (1, 0)]
)
def test_tail_percentile_counts_samples_beyond(n, beyond):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    value, got = measure.tail_percentile(samples, 90)
    assert got == beyond
    assert sum(s > value for s in samples) == beyond


def test_tail_latency_falls_back_to_the_median_below_ten_beyond():
    assert measure.tail_latency(range(1, 101)) == (90, "p90")
    assert measure.tail_latency(range(1, 100)) == (50, "p50")
    assert measure.tail_latency([5.0, 1.0, 9.0]) == (5.0, "p50")


def test_error_count_flags_a_perturbed_image(tiny):
    design, weights, batch = tiny
    built = build_network(design, weights, batch)
    built.run(scheduler="compiled")
    out = built.outputs()
    ref = design_reference_forward(design, weights, batch)[-1]
    assert measure.count_failures(out, ref) == 0

    perturbed = out.copy()
    perturbed[2, 1] += 1e-2 * np.abs(ref[2]).max()
    assert measure.count_failures(perturbed, ref) == 1
    perturbed[0, 0] = np.nan
    assert measure.count_failures(perturbed, ref) == 2


def test_error_tolerance_is_relative_to_the_reference_magnitude():
    ref = np.array([[1.2e9, -3.0e8], [0.5, 0.25]])
    out = ref + np.array([[1296.0, 0.0], [0.0, 0.0]])
    assert measure.count_failures(out, ref) == 0


def test_wrappers_are_restored_after_a_traced_run(tiny):
    design, weights, batch = tiny
    kernels_before = dict(KERNELS)
    check_restored()
    rec = SpanRecorder()
    ledger = Ledger(rec)
    ledger.install()
    try:
        assert leaked_wrappers()
        rec.rid = 7
        built = builder.build_network(design, weights, batch)
        built.run(scheduler="compiled")
    finally:
        ledger.restore()
    check_restored()
    assert KERNELS == kernels_before
    assert all(KERNELS[t] is fn for t, fn in kernels_before.items())
    names = rec.counts()
    assert names["core.builder.build"] == 1
    assert names["compiled.kernels.conv"] == 1
    assert names["compiled.kernels.fc"] == 1
    assert {span[4] for span in rec.spans} == {7}
    self_s = rec.self_times()
    assert all(t >= 0 for t in self_s.values())
    conv_macs = len(batch) * 6 * 6 * 2 * 1 * 3 * 3
    assert ledger.work["conv"][0] == conv_macs


class _Crashing(Workload):
    """tiny_design whose second batch raises inside the traced section."""

    name = "crashing"
    engine = "compiled"

    def __init__(self, tiny):
        self.tiny = tiny

    def cold_setup(self, seed):
        design, weights, _batch = self.tiny
        return Setup(design, weights)

    def items(self, setup, seed):
        # The second batch has the wrong image shape, so building it raises.
        yield from (self.tiny[2], np.zeros((2, 1, 9, 9), dtype=np.float32))

    def run(self, setup, seed, index, item):
        built = builder.build_network(setup.design, setup.weights, item)
        built.run(scheduler="compiled")
        return run.BatchResult(index, len(item), inputs=item, outputs=built.outputs())

    def check(self, setup, seed, results):
        return sum(r.images for r in results if r.error is not None)


def test_a_crashing_batch_is_counted_and_wrappers_restored(tiny):
    wl = _Crashing(tiny)
    (values, _notes, rec), results, failed = run.measure_traced(wl, 0, math.inf)
    check_restored()
    assert [r.error is None for r in results] == [True, False, True, False]
    assert failed == 2 + 2  # the bad batch, traced and replayed
    assert values["compiled.kernels.conv.calls"] == 1
    assert rec.counts()["bench.batch"] == 2


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    rec.spans = [
        ["outer", 0.0, 10.0, None, 1],
        ["inner", 2.0, 5.0, 0, 1],
        ["inner", 6.0, 7.0, 0, 1],
    ]
    assert rec.self_times() == {"outer": 6.0, "inner": 4.0}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {n: u for n, (u, _s, _d) in run.END_TO_END.items()}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == run.per_layer_units()
