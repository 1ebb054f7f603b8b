"""Measurement rules shared by every workload.

Pure functions (timing extraction, percentiles, the correctness rule,
provenance) plus the resident-memory sampler. Nothing here imports
``repro``, so the rules can be unit-tested without a design.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Largest tolerated ``max|out - ref| / max|ref|`` per image. The
#: engines accumulate in the tree-adder order, the reference in BLAS
#: order, so float32 reassociation error is expected; it is normalized by
#: the reference's magnitude because random-weight AlexNet logits reach
#: ~1e9 (absolute error ~1e3 at a relative ~1e-6).
REL_TOLERANCE = 1e-4

#: A tail percentile is only trusted with at least this many samples
#: beyond it.
TAIL_SAMPLES = 10


def completion_timing(completions: Sequence[int]) -> Tuple[int, int]:
    """``(interval, fill)`` from per-image completion cycles.

    ``fill`` is the first image's completion; ``interval`` is the last
    gap between consecutive completions (the converged steady state of
    Fig. 6, the same gap the profiler reports).
    """
    if len(completions) < 2:
        raise ValueError(
            f"need >= 2 completions for an interval, got {len(completions)}"
        )
    return completions[-1] - completions[-2], completions[0]


def model_error_pct(modeled: float, simulated: float) -> float:
    """``|modeled - simulated| / simulated`` in percent."""
    return 100.0 * abs(modeled - simulated) / simulated


def tail_percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_latency(samples: Sequence[float], q: float = 90) -> Tuple[float, str]:
    """The ``q``-th percentile if at least :data:`TAIL_SAMPLES` lie beyond it.

    Otherwise no tail is trustworthy and the median (always reported)
    stands in. Returns the value and which percentile it is.
    """
    value, beyond = tail_percentile(samples, q)
    if beyond >= TAIL_SAMPLES:
        return value, f"p{q:g}"
    return median(samples), "p50"


def image_errors(outputs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-image ``max|out - ref| / max|ref|`` (rows are images)."""
    out = np.asarray(outputs, dtype=np.float64).reshape(len(outputs), -1)
    ref = np.asarray(reference, dtype=np.float64).reshape(len(reference), -1)
    if out.shape != ref.shape:
        raise ValueError(f"output shape {out.shape} != reference {ref.shape}")
    scale = np.maximum(np.abs(ref).max(axis=1), np.finfo(np.float32).tiny)
    err = np.abs(out - ref).max(axis=1) / scale
    # A NaN anywhere makes the image fail.
    return np.where(np.isfinite(err), err, np.inf)


def count_failures(outputs: np.ndarray, reference: np.ndarray) -> int:
    """Images whose normalized error exceeds :data:`REL_TOLERANCE`."""
    return int((image_errors(outputs, reference) > REL_TOLERANCE).sum())


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rss_bytes() -> Optional[int]:
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class RssSampler:
    """Peak resident memory of this process while the ``with`` body runs.

    A daemon thread samples ``/proc/self/statm`` every ``period_s``;
    where that is unavailable the process high-water mark
    (``ru_maxrss``) at exit stands in. Work done after the block (the
    correctness oracle) is not counted.
    """

    def __init__(self, period_s: float = 0.01):
        self.period_s = period_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _sample(self) -> None:
        rss = _rss_bytes()
        if rss is not None and rss > self.peak_bytes:
            self.peak_bytes = rss

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        if self.peak_bytes:
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._sample()
        else:
            self.peak_bytes = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            )

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20


def git_revision(root: Path) -> str:
    """HEAD commit read from ``root/.git``; ``"unknown"`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_details(backend: str) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "compiled_backend": backend,
    }


def now_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
