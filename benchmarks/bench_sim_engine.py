"""Engine benchmark: cycle-simulation throughput of the substrate itself.

Not a paper artifact — the dial that tells users what simulations are
affordable: simulated cycles per second for FIFO chains of growing actor
counts, the window actor and full networks, under both the event-driven
scheduler (default) and the lock-step reference.

Run under pytest-benchmark for the micro numbers, or as a script::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py [--quick]

to compare event vs lockstep vs compiled on the Table-2 CIFAR-10
workload and write ``BENCH_sim_engine.json`` with
simulated-cycles-per-second for all three.
"""

import numpy as np
import pytest

from repro.dataflow import ArraySource, DataflowGraph, FifoStage, ListSink, stable_digest
from repro.sst import SlidingWindowActor, WindowSpec

#: Interpreted engines, used by the micro-benchmarks (hand-built graphs
#: the compiled engine would refuse anyway).
SCHEDULERS = ("event", "lockstep")
#: All engines, compared on the full-network workload.
NETWORK_SCHEDULERS = ("event", "lockstep", "compiled")


def chain_sim(n_stages: int, n_values: int, scheduler: str = "event"):
    g = DataflowGraph("chain", default_capacity=4)
    src = g.add_actor(ArraySource("src", list(range(n_values))))
    prev, port = src, "out"
    for i in range(n_stages):
        f = g.add_actor(FifoStage(f"f{i}"))
        g.connect(prev, port, f, "in")
        prev, port = f, "out"
    snk = g.add_actor(ListSink("snk", count=n_values))
    g.connect(prev, port, snk, "in")
    return g.build_simulator(scheduler=scheduler)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_chain_4_stages(benchmark, scheduler):
    res = benchmark.pedantic(
        lambda: chain_sim(4, 256, scheduler).run(), rounds=3, iterations=1
    )
    assert res.finished


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_chain_32_stages(benchmark, scheduler):
    res = benchmark.pedantic(
        lambda: chain_sim(32, 256, scheduler).run(), rounds=3, iterations=1
    )
    assert res.finished


def test_window_actor_throughput(benchmark, rng):
    img = rng.uniform(0, 1, (16, 16)).astype(np.float32)

    def run():
        g = DataflowGraph("w", default_capacity=4)
        src = g.add_actor(ArraySource("src", img.ravel()))
        win = g.add_actor(SlidingWindowActor("win", WindowSpec(5, 5), 16, 16))
        snk = g.add_actor(ListSink("snk", count=144))
        g.connect(src, "out", win, "in")
        g.connect(win, "out", snk, "in")
        return g.build_simulator().run()

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.finished


def test_usps_network_cycles_per_second(benchmark):
    from repro.core import random_weights, usps_design
    from repro.core.builder import build_network

    design = usps_design()
    weights = random_weights(design)
    batch = np.random.default_rng(0).uniform(0, 1, (3, 1, 16, 16)).astype(np.float32)

    def run():
        built = build_network(design, weights, batch)
        return built.run()

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.finished


# -- scheduler comparison script ---------------------------------------------


def _network_workload(quick: bool):
    """The Table-2 CIFAR-10 network (USPS stand-in under --quick)."""
    from repro.core import cifar10_design, random_weights, usps_design

    if quick:
        design = usps_design()
        shape, batch_n = (1, 16, 16), 1
    else:
        design = cifar10_design()
        shape, batch_n = (3, 32, 32), 1
    weights = random_weights(design)
    batch = (
        np.random.default_rng(0)
        .uniform(0, 1, (batch_n,) + shape)
        .astype(np.float32)
    )
    return design, weights, batch


def _time_scheduler(design, weights, batch, scheduler: str, repeats: int = 3):
    import time

    from repro.core.builder import build_network

    best, res, built = None, None, None
    for _ in range(repeats):
        built = build_network(design, weights, batch)
        t0 = time.perf_counter()
        res = built.run(scheduler=scheduler)
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    assert res.finished
    return {
        "scheduler": scheduler,
        "simulated_cycles": res.cycles,
        "wall_seconds": round(best, 4),
        "cycles_per_second": round(res.cycles / best, 1),
        # CRC over shape + exact float32 bits: equal iff bit-identical
        # outputs (the old float(sum) digest collided on permutations).
        "outputs_digest": stable_digest(built.outputs()),
    }


def _time_faulted_scheduler(
    design, weights, batch, scheduler: str, repeats: int = 3
):
    """Throughput with a *null* fault scenario armed: hooks installed on
    every channel but never holding a commit (probability 0). The delta
    against the unfaulted run is the price of the fault subsystem when
    it is present but idle; the unfaulted run itself has ``_fault is
    None`` everywhere and must stay at baseline speed.
    """
    import time

    from repro.core.builder import build_network
    from repro.faults import ChannelJitter, FaultScenario, arm_faults

    scenario = FaultScenario(
        "null", (ChannelJitter(channels="*", probability=0.0, max_delay=1),)
    )
    best, res = None, None
    for _ in range(repeats):
        built = build_network(design, weights, batch)
        armed = arm_faults(built.graph, scenario, seed=0)
        sim = built.graph.build_simulator(scheduler=scheduler)
        sim.faults = armed
        t0 = time.perf_counter()
        res = sim.run()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    assert res.finished
    return {
        "scheduler": scheduler,
        "simulated_cycles": res.cycles,
        "wall_seconds": round(best, 4),
        "cycles_per_second": round(res.cycles / best, 1),
    }


def _blocked_workload(quick: bool):
    """The full-size blocked VGG-16 (a blocked CIFAR-10 under --quick).

    Blocking is the transform that makes the full-size promoted networks
    simulable at all, so the benchmark records what that costs: the
    split/merge actors and per-tile halo re-reads add simulated beats
    that the unblocked design would not execute.
    """
    from repro.core import cifar10_design, random_weights, vgg16_blocked_design

    if quick:
        design = cifar10_design(name="cifar10-blocked").with_blocking(
            {"conv1": 14, "conv2": 5}
        )
        shape = (3, 32, 32)
    else:
        design = vgg16_blocked_design()
        shape = design.input_shape
    weights = random_weights(design)
    batch = (
        np.random.default_rng(0)
        .uniform(0, 1, (1,) + shape)
        .astype(np.float32)
    )
    return design, weights, batch


def _engine_environment() -> dict:
    """Library versions and host shape the numbers depend on.

    ``cpu_count`` and ``platform`` matter once serving benchmarks run
    multi-process replica fleets: the same cycles/s means something very
    different on 1 core than on 16.
    """
    import os
    import platform

    from repro.compiled import HAVE_NUMBA, backend_name, numba_version

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_available": HAVE_NUMBA,
        "numba": numba_version(),
        "compiled_backend": backend_name(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _check_baseline(rows: dict, path: str, tolerance: float = 0.30) -> str:
    """Compare fresh engine speed *ratios* against a recorded run.

    Absolute wall time varies with the host machine, so the regression
    gate is on machine-independent ratios: event/lockstep (the disarmed
    fault hooks and scheduler hot loops must stay free) and
    compiled/event (the compiled engine must keep its speedup). A ratio
    is the slower engine's ``wall_seconds`` over the faster one's on the
    same batch, whose digests ``main`` has already checked equal — the
    compiled engine's cycle count is modeled, so its cycles per second
    would not be comparable. Each fresh ratio has to stay within
    ``tolerance`` of its baseline ratio. Returns a human-readable
    verdict; raises AssertionError on regression.
    """
    import json

    with open(path) as f:
        base = json.load(f)

    def ratio(rows_, num, den):
        return rows_[den]["wall_seconds"] / rows_[num]["wall_seconds"]

    verdicts = []
    for num, den in (("event", "lockstep"), ("compiled", "event")):
        if num not in base["results"] or num not in rows:
            continue
        base_r = ratio(base["results"], num, den)
        got_r = ratio(rows, num, den)
        floor = (1.0 - tolerance) * base_r
        verdict = (
            f"{num}/{den} ratio {got_r:.2f}x vs baseline {base_r:.2f}x "
            f"(floor {floor:.2f}x)"
        )
        assert got_r >= floor, (
            f"{num}-engine speedup regressed beyond {tolerance:.0%}: "
            f"{verdict}"
        )
        verdicts.append(verdict)
    return "; ".join(verdicts) + " — OK"


def _dma_bound_chain(scheduler: str, interval: int = 64, stages: int = 16):
    """A bandwidth-starved pipeline: one input word every ``interval`` cycles.

    This is the design-space-exploration regime (narrow or shared host DMA
    feeding a fast core) where almost every cycle is dead time — the case
    the event scheduler's bulk cycle-skipping targets.
    """
    g = DataflowGraph("dma_chain", default_capacity=4)
    src = g.add_actor(ArraySource("src", list(range(512)), interval=interval))
    prev, port = src, "out"
    for i in range(stages):
        f = g.add_actor(FifoStage(f"f{i}"))
        g.connect(prev, port, f, "in")
        prev, port = f, "out"
    snk = g.add_actor(ListSink("snk", count=512))
    g.connect(prev, port, snk, "in")
    return g.build_simulator(scheduler=scheduler)


def _time_dma_chain(scheduler: str, repeats: int = 3):
    import time

    best, res = None, None
    for _ in range(repeats):
        sim = _dma_bound_chain(scheduler)
        t0 = time.perf_counter()
        res = sim.run()
        wall = time.perf_counter() - t0
        best = wall if best is None else min(best, wall)
    assert res.finished
    return {
        "scheduler": scheduler,
        "simulated_cycles": res.cycles,
        "wall_seconds": round(best, 4),
        "cycles_per_second": round(res.cycles / best, 1),
    }


def main(argv=None):
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="use the small USPS network instead of CIFAR-10",
    )
    parser.add_argument(
        "--out", default="BENCH_sim_engine.json", help="output JSON path"
    )
    parser.add_argument(
        "--check-baseline", metavar="JSON", default=None,
        help="assert engine speed ratios (event/lockstep, compiled/event) "
        "stay within tolerance of this recorded baseline",
    )
    args = parser.parse_args(argv)

    env = _engine_environment()
    design, weights, batch = _network_workload(args.quick)
    print(f"workload: {design.name}, batch {batch.shape}")
    print(
        f"environment: numpy {env['numpy']}, "
        f"numba {env['numba'] or 'absent'} "
        f"(compiled backend: {env['compiled_backend']})"
    )
    rows = {}
    for sched in NETWORK_SCHEDULERS:
        rows[sched] = _time_scheduler(design, weights, batch, sched)
        r = rows[sched]
        print(
            f"  {sched:9s} {r['simulated_cycles']:>10,} cycles in "
            f"{r['wall_seconds']:8.3f} s = {r['cycles_per_second']:>12,.0f} cyc/s"
        )
    assert rows["event"]["simulated_cycles"] == rows["lockstep"]["simulated_cycles"], (
        "schedulers disagree on cycle count — equivalence broken"
    )
    # The compiled engine's cycle count is modeled, not measured, so it is
    # excluded from the cycle-equality assert; values must be bit-exact.
    digests = {s: rows[s]["outputs_digest"] for s in NETWORK_SCHEDULERS}
    assert len(set(digests.values())) == 1, (
        f"engines disagree on output digests — equivalence broken: {digests}"
    )
    speedup = (
        rows["event"]["cycles_per_second"] / rows["lockstep"]["cycles_per_second"]
    )
    # Wall time on the same batch at equal digests: the compiled engine's
    # cycle count is modeled, so a cycles/s ratio would divide unlike
    # denominators.
    compiled_speedup = (
        rows["event"]["wall_seconds"] / rows["compiled"]["wall_seconds"]
    )
    print(f"  speedup (event / lockstep):    {speedup:.2f}x")
    print(f"  speedup (compiled / event):    {compiled_speedup:.2f}x")

    # Null-armed fault hooks: installed everywhere, never firing. The
    # simulated cycle count must be untouched and the slowdown small.
    null = _time_faulted_scheduler(design, weights, batch, "event")
    assert null["simulated_cycles"] == rows["event"]["simulated_cycles"], (
        "a null fault scenario changed the cycle count"
    )
    hook_overhead = (
        rows["event"]["cycles_per_second"] / null["cycles_per_second"] - 1.0
    )
    print(
        f"  event+null-faults: {null['cycles_per_second']:>12,.0f} cyc/s "
        f"(hook overhead {hook_overhead:+.1%})"
    )

    if args.check_baseline:
        print(" ", _check_baseline(rows, args.check_baseline))

    # Blocked column: the transform behind the promoted full-size zoo
    # members. At 224x224 only the compiled engine is affordable (the
    # interpreted engines need ~20 min per run at VGG-16 scale), so the
    # full run records a compiled-only row and says so; --quick runs a
    # blocked CIFAR-10 through all three engines and cross-checks digests.
    bdesign, bweights, bbatch = _blocked_workload(args.quick)
    blocked_scheds = NETWORK_SCHEDULERS if args.quick else ("compiled",)
    print(
        f"workload: {bdesign.name} (blocked"
        f"{'' if args.quick else '; compiled engine only at this scale'})"
    )
    blocked_rows = {}
    for sched in blocked_scheds:
        blocked_rows[sched] = _time_scheduler(
            bdesign, bweights, bbatch, sched, repeats=1 if not args.quick else 3
        )
        r = blocked_rows[sched]
        print(
            f"  {sched:9s} {r['simulated_cycles']:>10,} cycles in "
            f"{r['wall_seconds']:8.3f} s = {r['cycles_per_second']:>12,.0f} cyc/s"
        )
    blocked_digests = {s: blocked_rows[s]["outputs_digest"] for s in blocked_scheds}
    assert len(set(blocked_digests.values())) == 1, (
        f"engines disagree on blocked-design digests: {blocked_digests}"
    )

    print("workload: dma_bound_chain (1 word / 64 cycles, 16 stages)")
    sparse = {}
    for sched in SCHEDULERS:
        sparse[sched] = _time_dma_chain(sched)
        r = sparse[sched]
        print(
            f"  {sched:9s} {r['simulated_cycles']:>10,} cycles in "
            f"{r['wall_seconds']:8.3f} s = {r['cycles_per_second']:>12,.0f} cyc/s"
        )
    assert (
        sparse["event"]["simulated_cycles"] == sparse["lockstep"]["simulated_cycles"]
    ), "schedulers disagree on cycle count — equivalence broken"
    sparse_speedup = (
        sparse["event"]["cycles_per_second"]
        / sparse["lockstep"]["cycles_per_second"]
    )
    print(f"  speedup (event / lockstep): {sparse_speedup:.2f}x")

    payload = {
        "benchmark": "sim_engine_scheduler_comparison",
        "workload": design.name,
        "batch_shape": list(batch.shape),
        "environment": env,
        "results": rows,
        "speedup_event_over_lockstep": round(speedup, 2),
        "speedup_compiled_over_event": round(compiled_speedup, 2),
        "null_fault_hooks": dict(
            null, hook_overhead_pct=round(100.0 * hook_overhead, 1)
        ),
        "blocked_workload": {
            "workload": bdesign.name,
            "batch_shape": list(bbatch.shape),
            "schedulers": list(blocked_scheds),
            "note": (
                "all engines cross-checked under --quick"
                if args.quick
                else "compiled engine only; interpreted engines need "
                "~20 min per run at full VGG-16 scale"
            ),
            "results": blocked_rows,
        },
        "sparse_workload": {
            "workload": "dma_bound_chain_interval64_16stages",
            "results": sparse,
            "speedup_event_over_lockstep": round(sparse_speedup, 2),
        },
    }
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")


if __name__ == "__main__":
    main()
