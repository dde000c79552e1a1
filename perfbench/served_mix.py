"""``served_mix``: an in-process process-pool service under an open-loop mix.

One ``PassivityService(executor="process", max_workers=nproc)`` lives for
the whole run.  A round has two phases, each with fresh seeded inputs (so
no round is served from an earlier round's results):

* steady — one generator thread submits :data:`STEADY_BATCHES` batches of
  the mix in a seeded order at :data:`RATE` jobs per second, with one
  ``corners`` scenario at the start; each job's latency runs from the time
  it was due, so a stalled generator or queue shows;
* burst — :data:`BURSTS` times, :data:`BURST_BATCHES` batches submitted at
  once; the median drain time is ``round_s``.

The mix per batch (see :func:`inputs.served_batch`): 4 small random
descriptors and their shifted twins, 1 medium Table-1 model and its twin,
1 distinct dense order-250 descriptor, and :data:`RESUBMISSIONS` exact
resubmissions of earlier jobs, placed 1 to 6 positions after the original
so some coalesce with it in flight and some arrive after it ended.  About
three jobs in four are small, so the median latency is that of a small
job: the per-call overhead of queue, batching, transport and worker.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import inputs
from measure import (
    ERROR,
    TIMEOUT,
    Result,
    Tally,
    join_children,
    median,
    peak_rss_mb,
    percentile,
)
from repro.exceptions import JobFailedError, JobNotReadyError
from repro.service import PassivityService

WORKERS = os.cpu_count() or 1
#: Open-loop rate of the steady phase, jobs per second.  At this rate the
#: two workers are busy about a third of the time (each dense job holds one
#: for about 0.8 s).
RATE = 10.0
STEADY_BATCHES = 8
BURST_BATCHES = 6
#: Bursts per round.  A round (12 s steady, two 3 s bursts, input
#: generation) takes about 19 s, so a 25 s run always ends in its second
#: round: the parent's peak RSS grows with the number of rounds (the
#: service keeps finished jobs), so that number must not depend on noise.
BURSTS = 2
RESUBMISSIONS = 4
JOB_TIMEOUT = 120.0


def _start(cases: List[inputs.Case]) -> PassivityService:
    """Start a service and run ``cases`` through it: pool spin-up, first verdicts."""
    service = PassivityService(executor="process", max_workers=WORKERS).start()
    for handle in [service.submit(case.system) for case in cases]:
        handle.result(timeout=JOB_TIMEOUT)
    return service


def _close(service: PassivityService) -> None:
    """Close the service and wait until its pool processes have exited."""
    service.close()
    join_children()


def _schedule(rng: np.random.Generator, tag: str, batches: int) -> List[inputs.Case]:
    """Fresh batches in seeded order with resubmissions trailing originals."""
    order: List[inputs.Case] = []
    for b in range(batches):
        fresh = inputs.served_batch(rng, f"{tag}b{b}")
        order += [fresh[int(k)] for k in rng.permutation(len(fresh))]
    again = inputs.with_resubmissions(rng, order, RESUBMISSIONS * batches)[len(order):]
    for copy in again:
        origin = next(i for i, c in enumerate(order) if c.system is copy.system)
        order.insert(min(origin + int(rng.integers(1, 7)), len(order)), copy)
    return order


def _collect(tally: Tally, jobs, timings: Dict[str, List[float]]) -> float:
    """Wait for every job, check its verdict, record its timestamps.

    ``jobs`` holds ``(case, handle, due)`` with ``due`` in Unix seconds;
    returns the latest finish time.
    """
    latest = 0.0
    for case, handle, due in jobs:
        try:
            report = handle.result(timeout=JOB_TIMEOUT)
        except JobNotReadyError:
            tally.check(case.name, case.truth, None, TIMEOUT)
            continue
        except JobFailedError as error:
            print(f"{case.name}: {error}")
            tally.check(case.name, case.truth, None, ERROR)
            continue
        tally.check(case.name, case.truth, bool(report.is_passive))
        status = handle.status()
        latest = max(latest, status.finished_at)
        timings["latency"].append(status.finished_at - due)
        if status.started_at is not None and not status.deduplicated:
            timings["queue_wait"].append(status.started_at - status.submitted_at)
            timings["run"].append(status.finished_at - status.started_at)
    return latest


def _steady(service, rng, tag, tally, timings) -> Tuple[float, float]:
    """Open-loop phase plus one scenario; returns (generator lag, scenario s)."""
    schedule = _schedule(rng, tag, STEADY_BATCHES)
    spec, scenario_cases = inputs.scenario_cases(int(rng.integers(2**31)))
    jobs: List[tuple] = []
    lag = [0.0]

    def generate() -> None:
        start = time.time()
        for k, case in enumerate(schedule):
            due = start + k / RATE
            pause = due - time.time()
            if pause > 0:
                time.sleep(pause)
            lag[0] = max(lag[0], time.time() - due)
            jobs.append((case, service.submit(case.system), due))

    scenario = service.submit_scenario(spec)
    generator = threading.Thread(target=generate, name="open-loop generator")
    generator.start()
    generator.join()
    _collect(tally, jobs, timings)
    scenario.wait(timeout=JOB_TIMEOUT)
    status = scenario.status()
    for case, cell in zip(scenario_cases, status.cells):
        if cell["state"] == "done":
            tally.check(case.name, case.truth, cell["is_passive"])
        else:
            cause = TIMEOUT if cell["state"] in ("queued", "running", "timed_out") else ERROR
            tally.check(case.name, case.truth, None, cause)
    finished = status.finished_at if status.finished_at is not None else time.time()
    return lag[0], finished - status.created_at


def _burst(service, rng, tag, tally) -> Tuple[float, int]:
    """Submit a fixed batch at once; returns the drain time and job count."""
    schedule = _schedule(rng, tag, BURST_BATCHES)
    start = time.time()
    jobs = [(case, service.submit(case.system), start) for case in schedule]
    latest = _collect(tally, jobs, {"latency": [], "queue_wait": [], "run": []})
    return latest - start, len(jobs)


def run(seed: int, seconds: float, trace: bool, startup_s: float) -> Result:
    # Set-up: one distinct batch per worker, so every worker meets every
    # size class; three fresh services, the last one kept for the rounds.
    rng = np.random.default_rng([seed, 999])
    warm = [case for k in range(WORKERS) for case in inputs.served_batch(rng, f"warm{k}")]
    setup: List[float] = []
    for repeat in range(3):
        start = time.perf_counter()
        service = _start(warm)
        setup.append(time.perf_counter() - start)
        if repeat < 2:
            _close(service)
    try:
        before = service.stats()
        tally = Tally()
        timings: Dict[str, List[float]] = {"latency": [], "queue_wait": [], "run": []}
        drains: List[float] = []
        scenario_s: List[float] = []
        lags: List[float] = []
        rng = np.random.default_rng(seed)
        deadline = time.perf_counter() + seconds
        n_rounds = 0
        while True:
            lag, scenario = _steady(service, rng, f"r{n_rounds}s", tally, timings)
            lags.append(lag)
            scenario_s.append(scenario)
            for b in range(BURSTS):
                drain, burst_jobs = _burst(service, rng, f"r{n_rounds}b{b}", tally)
                drains.append(drain)
            n_rounds += 1
            if time.perf_counter() >= deadline:
                break
        after = service.stats()
    finally:
        _close(service)

    latency = timings["latency"]
    end_to_end = {
        "setup_s": startup_s + median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "round_s": median(drains),
    }
    notes = [
        f"rounds {n_rounds}; steady jobs {len(latency)} at {RATE:g}/s; "
        f"burst {burst_jobs} jobs; {WORKERS} workers",
        f"job_latency_p50_s {median(latency):.4f} s",
        f"job_latency_p95_s {percentile(latency, 95):.4f} s "
        f"({len(latency)} samples, {int(len(latency) * 0.05)} beyond p95)",
        f"jobs_per_s {burst_jobs / median(drains):.4f} 1/s",
        f"scenario_s {median(scenario_s):.4f} s",
    ]

    def per_round(field: str) -> float:
        return (getattr(after, field) - getattr(before, field)) / n_rounds

    batches = after.batches - before.batches
    layers = {
        "service.queue_wait_p50_s": median(timings["queue_wait"]),
        "service.queue_wait_p95_s": percentile(timings["queue_wait"], 95),
        "service.run_p50_s": median(timings["run"]),
        "service.batches": per_round("batches"),
        "service.batch_occupancy": (
            (after.batched_jobs - before.batched_jobs) / batches if batches else 0.0
        ),
        "service.dedup_coalesced": per_round("deduplicated"),
        "engine.shm.bytes": per_round("shm_bytes"),
        "service.scenario.incremental_hits": per_round("incremental_hits"),
        "service.scenario.incremental_fallbacks": per_round("incremental_fallbacks"),
        "bench.generator_lag_max_s": max(lags),
    }
    return Result(tally, end_to_end, layers, notes)
