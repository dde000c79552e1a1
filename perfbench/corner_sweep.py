"""``corner_sweep``: corner families through the process BatchRunner.

One round is one ``BatchRunner(backend="process", max_workers=nproc,
incremental="sweep").run(systems, methods=("auto",))`` over two same-shape
families of the dense order-190 grid (20 passive corners, 12 shifted
non-passive ones).  A fresh runner per round keeps every round cold, so
rounds are alike.  ``auto`` picks GARE for these admissible grids; the
incremental tier re-certifies chained corners from cached lineage.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import inputs
from measure import ERROR, TIMEOUT, Result, Tally, median, peak_rss_mb, timed
from repro import BatchRunner
from repro.circuits import rlc_grid_corners
from repro.obs import METRICS, STAGE_HISTOGRAM

WORKERS = os.cpu_count() or 1


def stage_seconds(stage: str) -> float:
    """Summed wall seconds of one program span name in the metrics plane."""
    series = METRICS.snapshot()["histograms"].get(STAGE_HISTOGRAM, {})
    return float(series.get((("stage", stage),), {}).get("sum", 0.0))


def _sweep(systems):
    runner = BatchRunner(backend="process", max_workers=WORKERS, incremental="sweep")
    return runner.run(systems, methods=("auto",))


def run(seed: int, seconds: float, trace: bool, startup_s: float) -> Result:
    cases = inputs.corner_cases(seed)
    systems = [case.system for case in cases]
    warm = rlc_grid_corners(3, 3, 2, seed=seed)
    # Set-up: pool spin-up and first verdicts in fresh workers.
    setup = [timed(lambda: _sweep(warm)) for _ in range(3)]

    tally = Tally()
    rounds: List[Dict[str, float]] = []
    cells: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        riccati0 = stage_seconds("riccati.solve")
        update0 = stage_seconds("incremental.update")
        start = time.perf_counter()
        outcome = _sweep(systems)
        wall = time.perf_counter() - start
        for case, result in zip(cases, outcome.results):
            if result.timed_out:
                tally.check(case.name, case.truth, None, TIMEOUT)
            elif not result.ok:
                print(f"{case.name}: {result.error}")
                tally.check(case.name, case.truth, None, ERROR)
            else:
                tally.check(case.name, case.truth, bool(result.report.is_passive))
        round_cells = [r.seconds for r in outcome.results if r.seconds is not None]
        cells += round_cells
        stats = outcome.cache_stats
        lookups = stats.hits + stats.misses
        rounds.append({
            "wall": wall,
            "factorizations": stats.factorizations,
            "hit_ratio": stats.hits / lookups if lookups else 0.0,
            "hits": stats.incremental_hits,
            "fallbacks": stats.incremental_fallbacks,
            "update_s": stage_seconds("incremental.update") - update0,
            "riccati_s": stage_seconds("riccati.solve") - riccati0,
            "chains": outcome.n_chains,
            "busy": sum(round_cells) / (wall * outcome.n_workers),
        })
        if time.perf_counter() >= deadline:
            break

    round_s = median([r["wall"] for r in rounds])
    end_to_end = {
        "setup_s": startup_s + median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "round_s": round_s,
    }
    last = rounds[-1]
    notes = [
        f"rounds {len(rounds)} ({len(systems)} corners of order {systems[0].order}, "
        f"{WORKERS} workers)",
        f"corners_per_s {len(systems) / round_s:.4f} 1/s",
        f"incremental hits {last['hits']}, fallbacks {last['fallbacks']}, "
        f"chains {last['chains']} (last round)",
    ]
    layers = {
        "engine.cache.factorizations": median([r["factorizations"] for r in rounds]),
        "engine.cache.hit_ratio": median([r["hit_ratio"] for r in rounds]),
        "engine.incremental.hits": median([r["hits"] for r in rounds]),
        "engine.incremental.fallbacks": median([r["fallbacks"] for r in rounds]),
        "engine.incremental.update_s": median([r["update_s"] for r in rounds]),
        "linalg.riccati.solve_s": median([r["riccati_s"] for r in rounds]),
        "engine.runner.chains": median([r["chains"] for r in rounds]),
        "engine.runner.busy_share": median([r["busy"] for r in rounds]),
        "engine.runner.cell_p50_s": median(cells),
    }
    return Result(tally, end_to_end, layers, notes)
