"""The closed loop shared by every workload: one client, one process, no
threads; each job starts when the previous one has finished.

Timings are given at reference speed.  The host's speed changes by up to
1.9x for stretches of seconds to minutes (other tenants; the kernel reports
no steal time), longer than a run, so plain wall times of the same code
differ by that much between runs.  A fixed pure-Python kernel that shares no
code with finsite is timed between consecutive jobs, and each job's wall time
is scaled by REF_S over the kernel's time around it: a program change moves
the scaled time as it moves the wall time, a change of host speed mostly
does not.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

JOB_TIMEOUT_S = 90
# The reference kernel's time on an unloaded stretch of the 2-vCPU Xeon VM
# the benchmark was written on; it only sets the scale of the reported times.
REF_S = 0.0025


class JobTimeout(Exception):
    pass


@dataclass
class Outcome:
    """What one job produced: its canonical output text, the ways it differs
    from the expected answer, and whether the program raised instead."""

    text: str = ""
    problems: list = field(default_factory=list)
    raised: bool = False
    detail: str = ""   # what was raised


@dataclass
class Tally:
    times: list = field(default_factory=list)
    by_label: dict = field(default_factory=dict)  # job label -> its times at reference speed
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)    # (job label, problem)
    raised: list = field(default_factory=list)   # (job label, detail)
    outputs: list = field(default_factory=list)  # (job label, text)
    wall_s: float = 0.0
    snf_hits: int = 0
    snf_misses: int = 0


def _finsite_caches():
    """Every functools cache reachable from a finsite namespace, once each,
    looking through wrappers (such as the tracer's) to the cache itself."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "finsite" or name.startswith("finsite."):
            for value in list(vars(mod).values()):
                while value is not None and not callable(getattr(value, "cache_clear", None)):
                    value = getattr(value, "__wrapped__", None)
                if value is not None:
                    found[id(value)] = value
    return found.values()


def reset_caches(tally: Tally) -> None:
    """Empty every process-global cache in finsite (recording the SNF cache's
    hit counts first), so no job reuses another job's results."""
    for cached in _finsite_caches():
        info = cached.cache_info()
        if cached.__name__ == "_snf_cached":
            tally.snf_hits += info.hits
            tally.snf_misses += info.misses
        cached.cache_clear()
    gc.collect()


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def run_one(job, tally: Tally, tracer=None, inputs=None) -> None:
    reset_caches(tally)
    if inputs is None:
        inputs = job.prepare()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(JOB_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        out = job.run(inputs, tracer)
    except Exception as exc:  # a crash is a failed job, not the end of the run
        out = Outcome(raised=True, detail=f"{type(exc).__name__}: {exc}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    tally.times.append(time.perf_counter() - t0)
    tally.attempted += 1
    if tracer is not None:
        tracer.end_job()
    if out.raised:
        tally.failed += 1
        tally.raised.append((job.label, out.detail.strip().splitlines()[-1:] or ["raised"]))
    elif out.problems:
        tally.failed += 1
        tally.wrong.extend((job.label, p) for p in out.problems)
    tally.outputs.append((job.label, out.text))


def reference_kernel():
    """Fixed work in the style of finsite's inner loops (tuples, frozensets,
    dict inserts, a sort), about 2.5 ms."""
    table = {}
    for i in range(6000):
        table[(i % 97, i % 13)] = frozenset((i, i + 1))
    return sorted(table.items())[:1]


def host_probe(repeats: int = 3) -> float:
    """The reference kernel's time now: the fastest of `repeats` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def closed_loop(rounds, seconds: float) -> Tally:
    """Run the rounds from the (endless) iterator job after job until
    `seconds` have passed; the first round always runs whole, so every job
    of the workload runs at least once.  A host probe between consecutive
    jobs scales each job's time to reference speed."""
    tally = Tally()
    start = time.perf_counter()
    over = lambda: time.perf_counter() - start >= seconds
    before = host_probe()
    for r, jobs in enumerate(rounds):
        if r and over():
            break
        for job in jobs:
            if r and over():
                break
            run_one(job, tally)
            after = host_probe()
            scaled = tally.times[-1] * REF_S / ((before + after) / 2)
            tally.by_label.setdefault(job.label, []).append(scaled)
            before = after
    tally.wall_s = time.perf_counter() - start
    reset_caches(tally)
    return tally


def run_list(jobs, inputs, tracer=None) -> Tally:
    """Run each job once on inputs prepared beforehand (so that building them
    stays out of the trace)."""
    tally = Tally()
    start = time.perf_counter()
    for job, job_inputs in zip(jobs, inputs):
        run_one(job, tally, tracer, job_inputs)
    tally.wall_s = time.perf_counter() - start
    reset_caches(tally)
    return tally


def typical_times(tally: Tally) -> list[float]:
    """Each distinct job's median time at reference speed, sorted."""
    return sorted(statistics.median(times) for times in tally.by_label.values())


def tail(typical: list, percentile: int) -> tuple[float, int]:
    """A percentile of the distinct jobs' typical times, and how many
    distinct jobs lie beyond it."""
    value = statistics.quantiles(typical, n=100, method="inclusive")[percentile - 1]
    return value, sum(1 for t in typical if t > value)


def import_seconds(root, module: str) -> float:
    """Wall time of a fresh interpreter importing `module` from the checkout."""
    code = f"import sys; sys.path.insert(0, 'src'); import {module}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
    return time.perf_counter() - t0


def timed_setup(root, workload, seed: int, repeats: int = 7):
    """Set the workload up `repeats` times; return (median seconds at
    reference speed, raw median seconds, state)."""
    scaled, raw = [], []
    state = None
    before = host_probe()
    for _ in range(repeats):
        t_import = import_seconds(root, workload.IMPORT)
        t0 = time.perf_counter()
        state = workload.setup(seed, root)
        raw.append(t_import + time.perf_counter() - t0)
        after = host_probe()
        scaled.append(raw[-1] * REF_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), statistics.median(raw), state


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0

