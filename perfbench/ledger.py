"""The traced run's per-layer ledger: spans recorded from outside ``src/``.

:class:`Ledger` wraps the public entry points of each layer where its
caller looks them up (``repro.serve.replicas.build_network``, not only
``repro.core.builder.build_network``), plus every entry of
``repro.compiled.kernels.KERNELS``, which ``run_kernels`` consults on
each call. Each wrapper records a span (name, start, end, parent,
request id) in memory; :meth:`SpanRecorder.self_times` turns them into
per-layer self time. :meth:`Ledger.restore` puts every original back and
:func:`check_restored` proves it, so no wrapper can leak into an
untraced timing.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Kernel groups of the ledger; every KERNELS entry not named here
#: (source, sink, FIFO, fork, demux, interleaver, map, link, softmax)
#: is charged to ``other``.
KERNEL_GROUPS = ("conv", "fc", "window", "pool", "block_split", "block_merge", "other")


class SpanRecorder:
    """In-memory spans ``[name, start, end, parent index, request id]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Request (batch) id stamped on every span opened from now on.
        self.rid: Optional[int] = None

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, time.perf_counter(), None, parent, self.rid]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        wrapper.__ledger_original__ = fn
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus time covered by children."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _rid in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _rid) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return dict(out)

    def to_json(self) -> List[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {
                "name": name,
                "start_s": start - t0,
                "end_s": end - t0,
                "parent": parent,
                "request": rid,
            }
            for name, start, end, parent, rid in self.spans
        ]


def _kernel_group(actor_type: type) -> str:
    from repro.core.compute_core import ConvCoreActor
    from repro.core.fc_core import FCCoreActor
    from repro.core.pool_core import PoolCoreActor
    from repro.sst.block import BlockMergeActor, BlockSplitActor
    from repro.sst.line_buffer import SlidingWindowActor

    return {
        ConvCoreActor: "conv",
        FCCoreActor: "fc",
        SlidingWindowActor: "window",
        PoolCoreActor: "pool",
        BlockSplitActor: "block_split",
        BlockMergeActor: "block_merge",
    }.get(actor_type, "other")


def conv_work(actor) -> Tuple[int, int]:
    """(MACs, stream + weight bytes) of one conv kernel call.

    Each of ``images * n_coords`` lanes multiplies every weight once;
    the core reads ``in_fm * kh * kw`` window words and writes
    ``out_fm`` words per lane, and reads its weights and bias once.
    """
    lanes = actor.images * actor.n_coords
    word = actor.weight.itemsize
    macs = lanes * actor.weight.size
    stream = lanes * (actor.in_fm * actor.kh * actor.kw + actor.out_fm) * word
    return macs, stream + actor.weight.nbytes + actor.bias.nbytes


def fc_work(actor) -> Tuple[int, int]:
    """(MACs, stream + weight bytes) of one FC kernel call."""
    word = actor.weight.itemsize
    macs = actor.images * actor.weight.size
    stream = actor.images * (actor.in_fm + actor.out_fm) * word
    return macs, stream + actor.weight.nbytes + actor.bias.nbytes


class Ledger:
    """Timing wrappers on each layer's entry points, installed and removed
    as a unit."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        #: Per kernel group: [macs, bytes] summed over calls.
        self.work: Dict[str, List[int]] = {"conv": [0, 0], "fc": [0, 0]}
        #: Actor and channel count of the most recently built graph.
        self.graph_size = (0, 0)
        #: (owner, attribute or dict key, original, is_dict_entry).
        self._saved: List[tuple] = []

    # -- wrappers ------------------------------------------------------

    def _kernel(self, group: str, fn: Callable) -> Callable:
        timed = self.rec.timed(f"compiled.kernels.{group}", fn)
        counter = {"conv": conv_work, "fc": fc_work}.get(group)
        if counter is None:
            return timed

        @functools.wraps(fn)
        def kernel(actor, ins):
            out = timed(actor, ins)
            macs, nbytes = counter(actor)
            self.work[group][0] += macs
            self.work[group][1] += nbytes
            return out

        kernel.__ledger_original__ = fn
        return kernel

    def _builder(self, fn: Callable) -> Callable:
        timed = self.rec.timed("core.builder.build", fn)

        @functools.wraps(fn)
        def build_network(*args, **kwargs):
            built = timed(*args, **kwargs)
            self.graph_size = (len(built.graph.actors), len(built.graph.channels))
            return built

        build_network.__ledger_original__ = fn
        return build_network

    # -- install / restore ---------------------------------------------

    def install(self) -> None:
        from repro.compiled.engine import CompiledEngine
        from repro.compiled.kernels import KERNELS

        if self._saved:
            raise RuntimeError("ledger already installed")
        for owner, attr, name in _patch_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original, False))
            wrap = self._builder if attr == "build_network" else functools.partial(
                self.rec.timed, name
            )
            setattr(owner, attr, wrap(original))
        lower = CompiledEngine.__dict__["_lower"]
        self._saved.append((CompiledEngine, "_lower", lower, False))
        CompiledEngine._lower = staticmethod(
            self.rec.timed("compiled.lower", lower.__func__)
        )
        for actor_type, fn in list(KERNELS.items()):
            self._saved.append((KERNELS, actor_type, fn, True))
            KERNELS[actor_type] = self._kernel(_kernel_group(actor_type), fn)

    def restore(self) -> None:
        for owner, key, original, is_entry in reversed(self._saved):
            if is_entry:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved = []


def _patch_points() -> List[Tuple[object, str, str]]:
    """(owner, attribute, span name) of every wrapped module-level name.

    Each name is patched where its caller looks it up.
    """
    import repro.compiled.engine as engine
    import repro.core.builder as builder
    import repro.dataflow.scheduler as scheduler
    import repro.serve.replicas as replicas

    return [
        (builder, "build_network", "core.builder.build"),
        (replicas, "build_network", "core.builder.build"),
        (engine, "analyze_design", "analysis.verify"),
        (engine, "extract_schedule", "analysis.schedule"),
        (engine, "synthesize_actor_stats", "profiling.synthesis"),
        (engine, "synthesize_channel_stats", "profiling.synthesis"),
        (scheduler.EventEngine, "run", "dataflow.event.run"),
        (replicas, "run_replica_batch", "serve.batch"),
        (replicas, "stable_digest", "serve.digest"),
        (replicas, "request_image", "serve.request_image"),
    ]


def leaked_wrappers() -> List[str]:
    """Names whose current binding is a ledger wrapper (empty when clean)."""
    from repro.compiled.engine import CompiledEngine
    from repro.compiled.kernels import KERNELS

    bound = [
        (f"{getattr(owner, '__name__', owner)}.{attr}", owner.__dict__[attr])
        for owner, attr, _name in _patch_points()
    ]
    bound.append(("CompiledEngine._lower", CompiledEngine.__dict__["_lower"].__func__))
    bound += [(f"KERNELS[{t.__name__}]", fn) for t, fn in KERNELS.items()]
    return [name for name, fn in bound if hasattr(fn, "__ledger_original__")]


def check_restored() -> None:
    """Raise if any ledger wrapper is still bound (guards untraced timing)."""
    leaked = leaked_wrappers()
    if leaked:
        raise RuntimeError(f"tracing wrappers still installed: {leaked}")
