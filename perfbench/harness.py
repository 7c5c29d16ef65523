"""Closed-loop rounds, span tracer and measurement helpers for the stlab benchmark.

One client runs one job at a time (the workbench is a batch tool, so a
closed loop is the honest load model).  A workload is a list of jobs
made from the seed; a round is one pass over them.  Every job is timed
in several rounds, so a job's median time shrugs off a burst of load
on a shared host.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter

# Seconds one calibration kernel takes at the reference speed: the
# median on the 2-vCPU Xeon host the benchmark was defined on.
CAL_REF_S = 0.0004

MIN_ROUNDS = 3  # rounds of the untraced run: every job is timed at least
# three times, and with >= 35 jobs a round at least ten latency samples
# lie above p90


@dataclass
class Job:
    """One CLI invocation or acceptance-criterion iteration.

    ``run`` makes every call into stlab through the tracer it is given
    and returns the raw outputs; it is the only timed part.  ``judge``
    turns the raw outputs into (exact answer, failed invariants, work
    counts) after the clock has stopped.
    """

    key: str
    kind: str
    run: Callable[[Any], Any]
    judge: Callable[[Any], Tuple[Any, List[str], Dict[str, float]]]
    ref: str = ""  # key of the expected answer; defaults to ``key``
    inputs: Any = None  # the job's operands, reused by the microsamples

    def __post_init__(self) -> None:
        self.ref = self.ref or self.key


def interleave(many: List[Job], few: List[Job]) -> List[Job]:
    """Spread the few jobs of one class evenly between the many of another."""
    out = list(many)
    for j in reversed(range(len(few))):
        out.insert(round((j + 1) * len(many) / (len(few) + 1)), few[j])
    return out


# -- tracing -------------------------------------------------------------------


class NullTracer:
    """Tracing off: calls go straight through."""

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def open_job(self, kind: str) -> None:
        pass

    def close_job(self) -> None:
        pass


class SpanTracer:
    """Keeps spans in memory: (name, start, end, parent span, job id).

    Span names are ``<module>.<function>`` for calls into stlab and
    ``job.<kind>`` for the job that caused them.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._jobs = 0
        self._job_span = -1
        self._job_id = -1
        self._job_start = 0.0
        self._job_name = ""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, clock(), self._job_span, self._job_id))

    def open_job(self, kind: str) -> None:
        # reserve the job span's slot so children can name it as parent
        self._job_id = self._jobs
        self._jobs += 1
        self._job_span = len(self.spans)
        self.spans.append(("", 0.0, 0.0, -1, self._job_id))
        self._job_name = "job." + kind
        self._job_start = clock()

    def close_job(self) -> None:
        self.spans[self._job_span] = (
            self._job_name, self._job_start, clock(), -1, self._job_id
        )
        self._job_span = -1
        self._job_id = -1

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def dump(self, path: str, env: Dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records = [
            {"span": i, "name": n, "start": s, "end": e, "parent": p, "job": j}
            for i, (n, s, e, p, j) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"env": env, "spans": records}, fh)


# -- host speed ------------------------------------------------------------------


def _kernel() -> Tuple[Fraction, int]:
    """Fixed Fraction arithmetic and dict building, independent of stlab.

    The two halves take about as long as each other; together they track
    the host's speed on every workload better than either alone.
    """
    s = Fraction(0)
    for i in range(1, 25):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    d: Dict[Tuple[int, int], int] = {}
    for i in range(600):
        key = (i * 7919 % 400, i % 13)
        d[key] = d.get(key, 0) + i
    return s, len(d)


def host_time() -> float:
    """Current time of one calibration kernel: median of three."""
    times = []
    for _ in range(3):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return statistics.median(times)


def host_speed(cals: Sequence[float]) -> float:
    """Factor that scales times measured among these calibrations to the
    reference speed.

    A shared host runs the same code up to twice as fast or slow, from
    one second or one minute to the next, and the calibration kernel
    speeds up and slows down with it.  The mean of the middle 80% of
    the readings stands for the host's speed while they were taken.
    """
    xs = sorted(cals)
    cut = len(xs) // 10
    return CAL_REF_S / statistics.mean(xs[cut:len(xs) - cut])


# -- running rounds ------------------------------------------------------------


@dataclass
class RoundResult:
    wall_s: float
    latencies_ms: List[float]
    cals: List[float]  # calibration readings between the jobs
    failures: List[str]
    counts: Dict[str, float]
    answers: Dict[str, Any]


def run_round(jobs: Sequence[Job], tracer, reference: Optional[Dict[str, Any]]) -> RoundResult:
    """Run every job once; a mismatch or exception never aborts the round."""
    lat: List[float] = []
    cals = [host_time()]
    failures: List[str] = []
    counts: Dict[str, float] = {}
    answers: Dict[str, Any] = {}
    t_round = clock()
    for job in jobs:
        tracer.open_job(job.kind)
        t0 = clock()
        try:
            raw = job.run(tracer)
            error = None
        except Exception as exc:  # a crashing job is a failed job
            raw = None
            error = "%s: %s: %s" % (job.key, type(exc).__name__, exc)
        lat.append((clock() - t0) * 1000.0)
        tracer.close_job()
        cals.append(host_time())
        if error is not None:
            failures.append(error)
            continue
        try:
            answer, problems, job_counts = job.judge(raw)
        except Exception as exc:
            failures.append("%s: judge raised %s: %s" % (job.key, type(exc).__name__, exc))
            continue
        answers[job.ref] = answer
        for name, v in job_counts.items():
            counts[name] = counts.get(name, 0) + v
        expected = reference.get(job.ref) if reference is not None else None
        if expected is not None and expected != answer:
            problems = problems + ["reference mismatch: expected %r, got %r" % (expected, answer)]
        if problems:
            failures.append("%s: %s" % (job.key, "; ".join(problems)))
    return RoundResult(clock() - t_round, lat, cals, failures, counts, answers)


def should_continue(rounds_done: int, min_rounds: int, elapsed: float, last: float, seconds: float) -> bool:
    """Start another round only while it is expected to end by the deadline."""
    if rounds_done < min_rounds:
        return True
    return elapsed + last <= seconds


# -- metric helpers --------------------------------------------------------------


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def microsample(fn: Callable[[], int], repeats: int = 5) -> float:
    """Median over repeats of the per-call time in microseconds.

    ``fn`` runs a batch of calls and returns how many it made.
    """
    per_call = []
    for _ in range(repeats):
        t0 = clock()
        calls = fn()
        per_call.append((clock() - t0) * 1e6 / max(calls, 1))
    return statistics.median(per_call)


def batch(fn: Callable, operands: Sequence[tuple]) -> Callable[[], int]:
    """A microsample body: one call of fn per operand tuple."""

    def go() -> int:
        for args in operands:
            fn(*args)
        return len(operands)

    return go


def key_eval(p, a):
    """The evaluation key z2 - a*z1 that count_indexed groups points by."""
    return p.z2 - a * p.z1


def _git_sha(root: str) -> str:
    """HEAD commit read from the .git directory; "unknown" outside git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str, seed: int, workers_set: bool) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "stlab_workers_set": workers_set,
        "platform": platform.platform(),
    }
