"""The three workloads and the TC2 timing-truth probe.

Each workload splits into a cold set-up, a timed iteration (one batch,
all inputs generated before its clock starts) and an oracle that checks
the outputs after the timed section:

* ``tc2-event`` — CIFAR-10 test case 2 on the event engine, 8 images
  per batch (more than the design's 6 layers, so the interval has
  converged as in Fig. 6). Exercises the scheduler, channels, actors,
  line buffers and interpreted cores; no compiled kernel runs.
* ``alexnet-compiled`` — full-size blocked AlexNet on the compiled
  engine, one image per batch. The conv kernel at large shapes does
  nearly all the work; block split/merge kernels run too.
* ``tc2-serve`` — TC2 through ``run_replica_batch`` in-process on the
  compiled engine: a closed loop with one client, batch sizes drawn by
  seed from 1..max_batch, fresh request indices per batch, plan cache
  cold at the start, so each new batch size pays lowering once. The
  oracle replays a seeded sample of the requests as single-shot runs
  and checks the first batch against the reference.

The timing-truth probe runs TC2 on the event engine for the benchmark
seed, outside any timed section. Its completion timestamps are the only
simulated timing in the repository, so every workload reports them;
``tc2-event`` also runs a held-back seed, whose interval and fill must
be identical (simulated timing does not depend on the data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.builder as builder
import repro.serve.replicas as replicas
from repro.analysis import analyze_design
from repro.compiled import CompiledEngine, clear_plan_cache
from repro.core import cifar10_design
from repro.core.perf_model import interval_breakdown, network_perf
from repro.core.reference import design_reference_forward
from repro.core.zoo import alexnet_blocked_design
from repro.dataflow.digest import stable_digest
from repro.serve.admission import admission_config
from repro.serve.loadtest import single_shot_digests

from measure import (
    REL_TOLERANCE,
    completion_timing,
    count_failures,
    image_errors,
    model_error_pct,
)

#: Images per event-engine batch: more than TC2's 6 layers (Fig. 6).
TC2_BATCH = 8
#: Offset of the held-back seed used by the seed-invariance check.
HELD_BACK_OFFSET = 104_729
#: Cycle budget of one simulation (far above any workload here).
MAX_CYCLES = 10**12
#: Served requests replayed as single-shot runs per check. A single-shot
#: run costs about twice a served image, so replaying every request
#: would take longer than the timed section itself.
SERVE_CHECKED = 512


def make_images(design, seed: int, stream: int, n: int) -> np.ndarray:
    """``n`` input images for ``design``, a pure function of (seed, stream)."""
    rng = np.random.default_rng([seed, stream])
    return rng.uniform(0, 1, (n,) + design.input_shape).astype(np.float32)


@dataclass
class Setup:
    design: object
    weights: dict


@dataclass
class BatchResult:
    """One timed iteration."""

    index: int
    images: int
    wall_s: float = 0.0
    #: Input batch and (images, ...) outputs (tc2-event, alexnet-compiled).
    inputs: Optional[np.ndarray] = None
    outputs: Optional[np.ndarray] = None
    #: Request indices and their output digests (tc2-serve).
    indices: List[int] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    scheduler_stats: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    def row_digests(self) -> List[str]:
        """One output digest per image."""
        if self.outputs is None:
            return list(self.digests)
        return [stable_digest(row) for row in self.outputs]


class Workload:
    name = ""
    engine = ""
    #: Whether the timing-truth probe also runs the held-back seed.
    held_back = False
    #: Serves requests, so latency_ms.p90 must be a trusted tail.
    serves_requests = False

    def design(self):
        raise NotImplementedError

    def cold_setup(self, seed: int) -> Setup:
        """Design, weights, static verification, first build and lowering."""
        clear_plan_cache()
        design = self.design()
        weights = builder.random_weights(design, seed=seed)
        report = analyze_design(design)
        if not report.ok:
            raise RuntimeError(f"{design.name} fails static verification")
        built = builder.build_network(
            design, weights, make_images(design, seed, 0, 1)
        )
        if self.engine == "compiled":
            CompiledEngine(built.graph.build_simulator(scheduler="compiled"))
        return Setup(design, weights)

    def items(self, setup: Setup, seed: int) -> Iterator[object]:
        """Endless sequence of timed-iteration inputs."""
        raise NotImplementedError

    def run(self, setup: Setup, seed: int, index: int, item) -> BatchResult:
        raise NotImplementedError

    def before_section(self) -> None:
        """State reset at the start of every timed section."""

    def check(self, setup: Setup, seed: int, results: Sequence[BatchResult]) -> int:
        """Failed images among ``results`` (outside any timed section)."""
        raise NotImplementedError


class _SimulatedBatches(Workload):
    """Shared by the two workloads that build and run whole batches."""

    batch = 1

    def items(self, setup, seed):
        stream = 1
        while True:
            yield make_images(setup.design, seed, stream, self.batch)
            stream += 1

    def run(self, setup, seed, index, item):
        res = BatchResult(index, len(item), inputs=item)
        t0 = time.perf_counter()
        built = builder.build_network(setup.design, setup.weights, item)
        result = built.run(max_cycles=MAX_CYCLES, scheduler=self.engine)
        res.outputs = built.outputs()
        res.wall_s = time.perf_counter() - t0
        res.scheduler_stats = result.scheduler_stats
        return res

    def _batch_failures(self, setup, seed, res) -> np.ndarray:
        ref = design_reference_forward(setup.design, setup.weights, res.inputs)[-1]
        return image_errors(res.outputs, ref) > REL_TOLERANCE

    def check(self, setup, seed, results):
        failed = 0
        for res in results:
            if res.error is not None:
                failed += res.images
                continue
            try:
                failed += int(self._batch_failures(setup, seed, res).sum())
            except Exception:  # an oracle crash fails the batch, not the run
                failed += res.images
        return failed


class Tc2Event(_SimulatedBatches):
    name = "tc2-event"
    engine = "event"
    batch = TC2_BATCH
    held_back = True

    def design(self):
        return cifar10_design()

    def _batch_failures(self, setup, seed, res):
        bad = super()._batch_failures(setup, seed, res)
        # The compiled engine must reproduce the event engine bit for bit.
        built = builder.build_network(setup.design, setup.weights, res.inputs)
        built.run(scheduler="compiled")
        compiled = built.outputs()
        for i in range(res.images):
            if stable_digest(compiled[i]) != stable_digest(res.outputs[i]):
                bad[i] = True
        return bad


class AlexnetCompiled(_SimulatedBatches):
    name = "alexnet-compiled"
    engine = "compiled"
    batch = 1

    def design(self):
        return alexnet_blocked_design()


class Tc2Serve(Workload):
    name = "tc2-serve"
    engine = "compiled"
    serves_requests = True

    def design(self):
        return cifar10_design()

    def items(self, setup, seed):
        max_batch = admission_config(setup.design).max_batch
        rng = np.random.default_rng([seed, 0x5E])
        first = 0
        while True:
            n = int(rng.integers(1, max_batch + 1))
            yield list(range(first, first + n))
            first += n

    def before_section(self):
        # Cold plan cache: every distinct batch size misses exactly once.
        clear_plan_cache()

    def run(self, setup, seed, index, item):
        res = BatchResult(index, len(item), indices=list(item))
        t0 = time.perf_counter()
        out = replicas.run_replica_batch(
            setup.design, seed, item, scheduler="compiled", weights=setup.weights
        )
        res.wall_s = time.perf_counter() - t0
        res.digests = list(out["digests"])
        return res

    def check(self, setup, seed, results):
        design, weights = setup.design, setup.weights
        failed = sum(r.images for r in results if r.error is not None)
        ok = [r for r in results if r.error is None]
        if not ok:
            return failed
        bad = set()
        try:
            served = {}
            for r in ok:
                served.update(zip(r.indices, r.digests))
            rng = np.random.default_rng([seed, 0xC4EC])
            sample = sorted(rng.choice(
                sorted(served), size=min(len(served), SERVE_CHECKED), replace=False
            ).tolist())
            refs = single_shot_digests(design, seed, sample)
            bad |= {i for i in sample if refs[i] != served[i]}
            # Tie the served digests to the reference semantics through
            # one batch: same digests, outputs within tolerance.
            first = ok[0].indices
            batch = np.stack([replicas.request_image(design, seed, i) for i in first])
            built = builder.build_network(design, weights, batch)
            built.run(scheduler="compiled")
            outs = built.outputs()
            ref = design_reference_forward(design, weights, batch)[-1]
            errs = image_errors(outs, ref)
            for row, i in enumerate(first):
                if errs[row] > REL_TOLERANCE or stable_digest(outs[row]) != served[i]:
                    bad.add(i)
        except Exception:  # an oracle crash fails every request it covered
            return failed + sum(r.images for r in ok)
        return failed + len(bad)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Tc2Event(), AlexnetCompiled(), Tc2Serve())
}


# -- TC2 timing truth ------------------------------------------------------


def _stage(actor_name: str) -> str:
    if actor_name.startswith("dma_in"):
        return "dma_in"
    if actor_name.startswith("dma_out"):
        return "dma_out"
    return actor_name.split(".", 1)[0]


class StageCadence:
    """``until`` hook recording when each stage finishes each image.

    A stage has finished image ``k`` once the channels leaving it carry
    ``k`` images' worth of words. The hook runs every cycle (the event
    engine then skips no cycles, without changing any simulated result).
    """

    def __init__(self, design, sim):
        self.sim = sim
        self.words = {"dma_in": design.input_words_per_image()}
        for p in design.placements:
            self.words[p.spec.name] = int(np.prod(p.out_shape))
        self.leaving: Dict[str, list] = {}
        for ch in sim.channels:
            src = _stage(ch.writer)
            if src != _stage(ch.reader) and src in self.words:
                self.leaving.setdefault(src, []).append(ch)
        self.marks: Dict[str, List[int]] = {s: [] for s in self.leaving}

    def __call__(self) -> bool:
        for stage, chans in self.leaving.items():
            done = sum(ch.stats.total_pushed for ch in chans)
            marks = self.marks[stage]
            while done >= (len(marks) + 1) * self.words[stage]:
                marks.append(self.sim.cycle)
        return False

    def gaps(self, perf) -> Dict[str, int]:
        """Cycles each stage adds to the measured cadence.

        A stage's gap is its measured cadence minus the larger of its
        Eq. 4 stage interval and its input's measured cadence: a stage
        that only inherits a slow upstream cadence reports 0, and an
        excess over Eq. 4 shows at the stage that adds it.
        """
        eq4 = {row["stage"]: row["interval"] for row in interval_breakdown(perf)}
        out: Dict[str, int] = {}
        upstream = 0
        for stage in ["dma_in"] + [l.name for l in perf.layers]:
            marks = self.marks.get(stage, [])
            cadence = marks[-1] - marks[-2] if len(marks) >= 2 else 0
            out[stage] = cadence - max(upstream, eq4[stage])
            upstream = cadence
        return out


@dataclass
class TimingTruth:
    interval: int
    fill: int
    model_interval: int
    model_fill: int
    #: (interval, fill) at the held-back seed, when it ran.
    held_back: Optional[Tuple[int, int]]
    actor_stats: Dict[str, list]
    stage_gaps: Dict[str, int]
    attempted: int
    failed: int

    @property
    def interval_err_pct(self) -> float:
        return model_error_pct(self.model_interval, self.interval)

    @property
    def fill_err_pct(self) -> float:
        return model_error_pct(self.model_fill, self.fill)


def timing_truth(seed: int, held_back: bool, stage_gaps: bool) -> TimingTruth:
    """TC2 on the event engine at the benchmark seed (and a held-back seed).

    Simulated timing is data-independent, so the held-back seed must give
    the same interval and fill; a difference fails the held-back batch.
    """
    design = cifar10_design()
    perf = network_perf(design)
    seeds = (seed, seed + HELD_BACK_OFFSET) if held_back else (seed,)
    runs, failed = [], 0
    for s in seeds:
        weights = builder.random_weights(design, seed=s)
        batch = make_images(design, s, 0, TC2_BATCH)
        built = builder.build_network(design, weights, batch)
        sim = built.graph.build_simulator(scheduler="event")
        hook = StageCadence(design, sim) if stage_gaps and not runs else None
        built.result = sim.run(max_cycles=MAX_CYCLES, until=hook)
        ref = design_reference_forward(design, weights, batch)[-1]
        failed += count_failures(built.outputs(), ref)
        runs.append((completion_timing(built.image_completion_cycles()), built.result, hook))
    (interval, fill), primary, hook = runs[0]
    held = runs[-1][0]
    if held != (interval, fill):
        failed += TC2_BATCH
    return TimingTruth(
        interval=interval,
        fill=fill,
        model_interval=perf.interval,
        model_fill=perf.fill_latency,
        held_back=held if held_back else None,
        actor_stats=primary.actor_stats,
        stage_gaps=hook.gaps(perf) if hook is not None else {},
        attempted=len(seeds) * TC2_BATCH,
        failed=failed,
    )
