"""Multi-seed A/B sweep driver: paired with/without-communication runs."""

from __future__ import annotations

import math
import statistics
import sys
import traceback

from .config import ScenarioPreset
from .engine import run
from .metrics import CSV_BREAKING, MetricTable

SWEEP_COLUMNS = ["seed", "communication", "policy", "time_to_gridlock_s",
                 "time_to_origin_slow_s", "total_exits", "status"]

NOT_REACHED = -1.0  # sentinel for detectors that never fired


def _run_case(case):
    """One (config, label) simulation; never raises, reports errors per row.

    A failed case prints its full traceback to stderr; its status cell keeps
    only the exception's type and the first line of its message (a
    ``SimulationError`` goes on with a dump of every vehicle), each
    character that no CSV cell holds replaced with a space.
    """
    cfg, seed, arm = case
    try:
        log = run(cfg)
        gridlock = log.first_gridlock_time if log.first_gridlock_time is not None else NOT_REACHED
        origin = log.first_origin_slow_time if log.first_origin_slow_time is not None else NOT_REACHED
        return (seed, arm, cfg.policy.kind, gridlock, origin, log.exited, "ok")
    except Exception as exc:
        print(f"sweep case seed={seed} communication={arm} failed:\n{traceback.format_exc()}",
              end="", file=sys.stderr)
        message = str(exc).partition("\n")[0]
        reason = f"{type(exc).__name__}: {message}" if message else type(exc).__name__
        return (seed, arm, cfg.policy.kind, NOT_REACHED, NOT_REACHED, 0,
                "error: " + CSV_BREAKING.sub(" ", reason))


def _median(values):
    """Median treating the not-reached sentinel as later than any real time."""
    keyed = [math.inf if v == NOT_REACHED else v for v in values]
    med = statistics.median(keyed)
    return NOT_REACHED if math.isinf(med) else float(med)


def run_sweep(preset: ScenarioPreset, seeds, jobs: int = 1) -> MetricTable:
    """Run the preset with and without communication for every seed.

    Results are keyed by seed and independent of ``jobs``; failed runs are
    reported in their row without aborting the sweep. Two median rows
    (seed -1, one per arm) summarise the successful runs.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must be non-empty")
    cases = []
    for seed in seeds:
        cases.append((preset.config(seed, communication=True), seed, "on"))
        cases.append((preset.config(seed, communication=False), seed, "off"))
    if jobs > 1:
        # imported here: the pool's modules (multiprocessing among them) cost
        # every import of vanetflow about 10 ms, and only a sweep uses them
        from concurrent.futures import ProcessPoolExecutor

        # under fork the pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(cases))) as pool:
            results = list(pool.map(_run_case, cases))
    else:
        results = [_run_case(case) for case in cases]
    results.sort(key=lambda row: (row[0], row[1]))
    rows = list(results)
    for arm in ("off", "on"):
        ok = [r for r in results if r[1] == arm and r[6] == "ok"]
        if not ok:
            continue
        rows.append((-1, arm, ok[0][2],
                     _median([r[3] for r in ok]),
                     _median([r[4] for r in ok]),
                     float(statistics.median([r[5] for r in ok])),
                     "median"))
    meta = {"preset": preset.name, "seeds": "|".join(str(s) for s in seeds),
            "jobs": str(jobs)}
    return MetricTable(columns=list(SWEEP_COLUMNS), rows=rows, meta=meta)
