"""``table1``: the paper's experiment, serial, one fresh engine per call.

Every Table-1 model and its non-passive twin is checked by ``shh`` and by
``weierstrass`` through ``check_passivity`` without a persistent cache, so
neither the decomposition cache, the incremental tier, the runner nor the
service can help.  One round is one pass over the grid (24 verdicts) on
models drawn afresh for that round.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List

import inputs
import tracer
from measure import ERROR, Result, Tally, median, peak_rss_mb, timed
from repro import check_passivity
from repro.bench import PAPER_TABLE1

METHODS = ("shh", "weierstrass")


def _round(cases, tally: Tally, recorder=None) -> Dict[str, object]:
    """One pass over the grid; returns its timings."""
    seconds = {method: 0.0 for method in METHODS}
    by_case: Dict[tuple, float] = {}
    start = time.perf_counter()
    for case in cases:
        for method in METHODS:
            t0 = time.perf_counter()
            try:
                if recorder is None:
                    report = check_passivity(case.system, method=method)
                else:
                    report = recorder.span(method, check_passivity, case.system, method=method)
            except Exception as error:  # noqa: BLE001 - counted, run goes on
                print(f"{case.name} {method}: {type(error).__name__}: {error}")
                tally.check(case.name, case.truth, None, ERROR)
                continue
            elapsed = time.perf_counter() - t0
            tally.check(case.name, case.truth, bool(report.is_passive))
            seconds[method] += elapsed
            by_case[(case.name, method)] = elapsed
    return {
        "wall": time.perf_counter() - start,
        "seconds": seconds,
        "by_case": by_case,
    }


def _layers(recorder: tracer.SpanRecorder, n_rounds: int) -> Dict[str, float]:
    """Per-round self seconds and calls of the traced functions."""
    shh_only = recorder.self_times(roots=("shh",))
    everywhere = recorder.self_times()
    layers: Dict[str, float] = {}
    for name in tracer.FIGURE1_STAGES:
        layers[name + ".self_s"] = shh_only.get(name, (0.0, 0))[0] / n_rounds
    for name in tracer.KERNELS:
        seconds, calls = everywhere.get(name, (0.0, 0))
        layers[name + ".self_s"] = seconds / n_rounds
        layers[name + ".calls"] = calls / n_rounds
    layers["shh.stage_coverage"] = recorder.coverage("shh")
    return layers


def run(seed: int, seconds: float, trace: bool, startup_s: float) -> Result:
    warm = inputs.paper_pair(inputs.TABLE1_ORDERS[0], seed)
    # Set-up: first verdicts of each method (lazy imports, LAPACK start-up).
    setup = [
        timed(lambda: [check_passivity(c.system, method=m) for c in warm for m in METHODS])
        for _ in range(3)
    ]
    tally = Tally()
    plain: List[dict] = []
    traced: List[dict] = []
    recorder = tracer.SpanRecorder()
    deadline = time.perf_counter() + seconds
    while True:
        cases = inputs.table1_cases(seed, len(plain))
        plain.append(_round(cases, tally))
        if trace:
            recorder.install({**tracer.FIGURE1_STAGES, **tracer.KERNELS})
            try:
                traced.append(_round(cases, tally, recorder))
            finally:
                recorder.uninstall()
        if time.perf_counter() >= deadline:
            break

    shh_s = median([r["seconds"]["shh"] for r in plain])
    weierstrass_s = median([r["seconds"]["weierstrass"] for r in plain])
    end_to_end = {
        "setup_s": startup_s + median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "round_s": median([r["wall"] for r in plain]),
    }
    notes = [
        f"rounds {len(plain)} ({len(cases)} systems x {len(METHODS)} methods)",
        f"shh_s {shh_s:.4f} s  (SHH time-to-verdict summed over the grid, median round)",
        f"weierstrass_s {weierstrass_s:.4f} s",
        "order  shh_s   weierstrass_s  ratio  paper_ratio   (passive model, median round)",
    ]
    per_case = defaultdict(list)
    for r in plain:
        for key, value in r["by_case"].items():
            per_case[key].append(value)
    for order in inputs.TABLE1_ORDERS:
        shh = median(per_case[(f"paper{order}", "shh")])
        wei = median(per_case[(f"paper{order}", "weierstrass")])
        paper = PAPER_TABLE1.get(order, {})
        paper_ratio = paper["proposed"] / paper["weierstrass"] if paper else float("nan")
        notes.append(f"{order:5d}  {shh:.4f}  {wei:.4f}         {shh / wei:.2f}   {paper_ratio:.2f}")

    layers: Dict[str, float] = {}
    if trace:
        layers = _layers(recorder, len(traced))
        layers["bench.trace_overhead"] = (
            median([r["wall"] for r in traced]) / end_to_end["round_s"] - 1.0
        )
    return Result(tally, end_to_end, layers, notes)
