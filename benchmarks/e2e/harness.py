"""Timing loop, statistics, span recorder and host description.

Nothing here knows a workload: :func:`measure` drives any object with
``setup() / block() / verify()`` (see ``workloads.py``), :class:`Spans`
records the traced run's spans in memory, and :func:`host_info` is what is
written beside the numbers.
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import resource
import statistics
import threading
import time
import traceback

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One rank is one thread: call before numpy is imported."""
    for key in THREAD_ENV:
        os.environ[key] = "1"


@contextlib.contextmanager
def one_core(enabled: bool = True):
    """Keep this thread, and every thread it starts, on one core.

    For workloads whose timed unit spawns short-lived worlds (see
    ``Sec62Search.one_core``).  The highest numbered core is taken because
    core 0 serves most interrupts; a no-op where affinity cannot be set.
    """
    if not enabled or not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))])


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def blocks(minimum: int, seconds: float):
    """Yield block indices for *seconds* and at least *minimum* times;
    garbage is collected before each block, outside its timed region."""
    started = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - started < seconds:
        gc.collect()
        yield index
        index += 1


def measure(workload, seconds: float, spawned_at: float) -> dict:
    """Set up, then run timed blocks for *seconds* (and at least
    ``workload.min_blocks``).

    A block returns ``(units, wall_seconds, cpu_seconds, problems)`` for its
    timed region; a sample is wall ÷ units.  One caller, closed loop.  A
    block that raises, or whose own checks fail, counts all its units as
    failed; a run that yields no sample at all raises.
    """
    samples: list[float] = []
    cpu = 0.0
    attempted = failed = timed_units = 0
    problems: list[str] = []
    with one_core(workload.one_core):
        workload.setup()
        gc.collect()
        setup_s = time.time() - spawned_at
        for _ in blocks(workload.min_blocks, seconds):
            try:
                units, block_wall, block_cpu, block_problems = workload.block()
            except Exception:
                attempted += workload.units_per_block
                failed += workload.units_per_block
                problems.append(traceback.format_exc(limit=4).strip().splitlines()[-1])
                if failed >= 3 * workload.units_per_block:
                    break  # a workload that keeps raising will not recover
                continue
            attempted += units
            if block_problems:
                failed += units
                problems.extend(block_problems)
            samples.append(block_wall / units)
            timed_units += units
            cpu += block_cpu
    if not samples:
        raise RuntimeError(f"{workload.name}: no block completed: {problems}")
    problems.extend(workload.verify())
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": list(dict.fromkeys(problems))[:20],
        "samples_ms": [round(v * 1e3, 4) for v in samples],
        "metrics": {
            "setup_s": setup_s,
            "unit_ms_p50": median(samples) * 1e3,
            "cpu_ms_per_unit": cpu / timed_units * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "fail_share": failed / attempted,
        },
        "unit_ms_p90": p90(samples) * 1e3,
        "observed": workload.observed(),
    }


def timed(fn):
    """``(result, wall_seconds, cpu_seconds)`` of one call."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0, time.process_time() - c0


class Spans:
    """In-memory span log of the traced run.

    A span is ``[name, start, end, parent, unit, rank, depth]``; *parent* is
    the enclosing span's own list, so no id has to be agreed between rank
    threads while they run (``list.append`` is atomic under the GIL).  Each
    thread keeps its own stack of open spans.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []
        self._local = threading.local()
        self.origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, unit: int = -1, rank: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        row = [name, 0.0, 0.0, parent, unit, rank, len(stack)]
        stack.append(row)
        self.rows.append(row)
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, unit: int = -1, rank: int = 0) -> None:
        """Record a span measured elsewhere (collective wrappers stamp their
        own entry and exit); it is filed under the caller's open span."""
        stack = self._local.__dict__.get("stack", [])
        parent = stack[-1] if stack else None
        self.rows.append([name, start, end, parent, unit, rank, len(stack)])

    def chrome_trace(self, label: str) -> dict:
        """Chrome Trace Event JSON: one process per rank, one track per
        nesting depth (``validate_trace`` wants the slices of one track
        disjoint), parent span and unit id in ``args``."""
        ids = {id(r): i for i, r in enumerate(self.rows)}
        events: list[dict] = []
        tracks = sorted({(r[5], r[6]) for r in self.rows})
        for rank in sorted({t[0] for t in tracks}):
            events.append({"ph": "M", "pid": rank, "tid": 0, "ts": 0, "name": "process_name",
                           "args": {"name": f"rank {rank}" if rank >= 0 else "driver"}})
        for rank, depth in tracks:
            events.append({"ph": "M", "pid": rank, "tid": depth, "ts": 0,
                           "name": "thread_name", "args": {"name": f"depth {depth}"}})
        for i, (name, start, end, parent, unit, rank, depth) in enumerate(self.rows):
            events.append({
                "ph": "X", "pid": rank, "tid": depth, "name": name, "cat": name.split(".")[0],
                "ts": (start - self.origin) * 1e6, "dur": max(0.0, end - start) * 1e6,
                "args": {"id": i, "parent": ids[id(parent)] if parent is not None else -1,
                         "unit": unit},
            })
        return {"traceEvents": events, "otherData": {"label": label, "clock": "wall"}}
