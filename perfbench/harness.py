"""Closed-loop pass runner and the statistics reported from it."""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field


@dataclass
class Task:
    """One operation: `run` is timed, `check` runs afterwards, untimed.

    `expected_error` names the exception class and message of a known
    fault; raising it counts the operation as failed, not as incorrect.
    Raising anything else counts it as failed and incorrect.
    """

    kind: str
    run: object
    check: object
    expected_error: tuple | None = None


@dataclass
class Sample:
    kind: str
    wall: float
    cpu: float
    failed: bool
    slot: tuple = ()   # (pass, position in pass)


@dataclass
class RunLog:
    samples: list = field(default_factory=list)
    passes: int = 0
    pass_walls: list = field(default_factory=list)
    incorrect: list = field(default_factory=list)


def run_passes(workload, seconds, exact_passes=None, cpu_clock=time.process_time,
               tracer=None, need_tail=True, between=None):
    """Run whole passes until `seconds` of measuring have elapsed and, if
    `need_tail`, the tail percentile has ten samples beyond it; or run
    exactly `exact_passes`.  `between(elapsed)` runs after each pass, and
    its own time does not count as measuring."""
    log = RunLog()
    began = time.perf_counter()
    while True:
        if exact_passes is not None:
            if log.passes >= exact_passes:
                break
        elif time.perf_counter() - began >= seconds and log.passes and \
                (not need_tail or _tail_ready(log, workload.tail_q)):
            break
        tasks = workload.tasks(log.passes)
        gc.collect()
        pass_wall = 0.0
        for position, task in enumerate(tasks):
            if tracer is not None:
                tracer.begin_op(task.kind)
            c0 = cpu_clock()
            w0 = time.perf_counter()
            error = None
            try:
                result = task.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            w1 = time.perf_counter()
            c1 = cpu_clock()
            if tracer is not None:
                tracer.end_op()
            pass_wall += w1 - w0
            log.samples.append(Sample(task.kind, w1 - w0, c1 - c0, error is not None,
                                      (log.passes, position)))
            _verify(task, result if error is None else None, error, log)
        log.pass_walls.append(pass_wall)
        log.passes += 1
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - began)
            began += time.perf_counter() - t0
    return log


def _verify(task, result, error, log):
    """Check one operation.  Only the known fault named in `expected_error`
    may fail and still count as correct; any other exception (or a `cli`
    command exiting non-zero) is an incorrect output."""
    if error is not None:
        want = task.expected_error
        if want is None or not isinstance(error, want[0]) or want[1] not in str(error):
            log.incorrect.append(task.kind)
            print(f"unexpected failure in {task.kind}: {error!r}", file=sys.stderr)
        return
    try:
        task.check(result)
    except Exception:
        log.incorrect.append(task.kind)
        print(f"check failed for {task.kind}:\n{traceback.format_exc()}", file=sys.stderr)


def _tail_ready(log, q):
    done = sum(1 for s in log.samples if not s.failed)
    return done > 0 and done - math.ceil(q * done) >= 10


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def landing(samples, q, width=0.03):
    """Share of each operation kind among the samples ranked within
    +/- width of percentile q, to show which kind a percentile reports."""
    ordered = sorted((s for s in samples if not s.failed), key=lambda s: s.wall)
    n = len(ordered)
    centre = max(math.ceil(q * n) - 1, 0)
    half = max(int(width * n), 1)
    window = ordered[max(centre - half, 0): centre + half + 1]
    counts = {}
    for s in window:
        counts[s.kind] = counts.get(s.kind, 0) + 1
    return {k: round(v / len(window), 3) for k, v in sorted(counts.items())}


def end_to_end(log, setup_times, peak_rss_mb, tail_q):
    ok = [s for s in log.samples if not s.failed]
    walls = [s.wall for s in ok]
    total_wall = sum(s.wall for s in log.samples)
    total_cpu = sum(s.cpu for s in log.samples)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(ok) / total_wall, "1/s"),
        "ops_per_cpu_s": (len(ok) / total_cpu, "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "op_tail_ms": (percentile(walls, tail_q) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def kind_summary(log):
    by_kind = {}
    for s in log.samples:
        by_kind.setdefault(s.kind, []).append(s)
    out = {}
    for kind, ss in sorted(by_kind.items()):
        walls = [s.wall for s in ss if not s.failed]
        out[kind] = {
            "count": len(ss),
            "failed": sum(s.failed for s in ss),
            "median_ms": round(statistics.median(walls) * 1e3, 3) if walls else None,
            "max_ms": round(max(walls) * 1e3, 3) if walls else None,
        }
    return out
