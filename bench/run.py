"""Layered host-time benchmark of vanetflow.

Run from the repository root:

    python3 bench/run.py --workload run_comms --seed 1 --seconds 25 --trace 0

Workloads (the seed makes the inputs; the held-out seed for checking later
claims is ``HELD_OUT_SEED``):

  run_comms    one engine ``run()`` of velocity_motorway, communication on, mixed policy
  run_nocomms  the same preset and seed with communication off (the A/B control arm)
  cli_run      ``vanetflow run --preset velocity_urban`` in-process, seven simulated
               minutes (bench/cli_run.cfg), four CSVs written to a scratch directory
  sweep_ab     ``run_sweep`` over protocol_comparison with the flooding policy, both
               arms, four seeds, jobs = nproc

``--trace 0`` repeats the untraced operation for ``--seconds`` and reports the
end-to-end metrics: ``rows_per_ref``, the median throughput of an operation
in simulated log rows (vehicle samples plus events) per reference time, the
operation's time in units of a fixed reference kernel (bench/refkernel.py)
whose slices are timed all through the operation in the process doing the
work, for sweep_ab in each worker (the host's speed swings by half within
seconds, this ratio far less; dividing the rows out also takes out most of
the seed-to-seed difference in work); ``setup_s``, the median
time of fresh interpreters importing vanetflow and building the validated
config, each divided by a reference cold start (bench/setup_probe.py) run
next to it and given in seconds at ``REF_COLD_START_S`` per reference cold
start; ``peak_rss_mb``, the peak resident memory of the first
operation of this fresh process (plus the largest worker's for sweep_ab).
The raw median ``wall_s``, ``vehicle_steps_per_s`` (sample rows per host
second) and ``wall_ref`` (operation time in reference kernels) are printed
too, and not gated. ``--trace 1`` repeats it for half of ``--seconds``, then
runs it once more with every cross-layer call wrapped (bench/layers.py) and
reports the per-layer metrics. Every operation is checked: the same digest on
every repeat of the seed (and traced equal to untraced), vehicle conservation
and the CSVs read back. Lines before the last are for people and label each
number as host (measured, noisy) or sim (simulated, exact). The last line is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from layers import (LAYER_KINDS, LAYER_UNITS, add_sim_stats, derive, install, sim_stats,
                    state_gauges)
from refkernel import SpeedProbe, reference_time
from tracer import Spans, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
TRACE_OUT = ROOT / ".bench_out"
BASELINE = BENCH / "baseline.json"
CLI_CONFIG = BENCH / "cli_run.cfg"

HELD_OUT_SEED = 97
MIN_OPS = 2          # an untraced run repeats its operation at least this often
SETUP_PROBES = 9     # pairs of fresh interpreters timed per run for setup_s
REF_COLD_START_S = 0.07   # setup_s is given in seconds at this reference cold start
SWEEP_SEEDS = 4      # simulation seeds per sweep_ab operation
DIGEST_CHUNK = 1 << 16

E2E_UNITS = {"rows_per_ref": "rows/ref", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """What one operation produced, outside its timed region."""

    wall_s: float
    peak_rss_mb: float
    ref_s: float | None  # None for a traced operation
    samples: int
    digest: str
    sim: dict
    problems: list = field(default_factory=list)
    csv_bytes: int = 0
    cases_failed: int = 0
    gauges: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    worker_spans: list = field(default_factory=list)


def _timed(fn, *args, probe=True, children=False):
    """(result, host seconds, peak RSS in MB so far, reference kernel seconds).

    The peak is read before any check runs, so on the first operation of a
    fresh process it is the operation's own peak. ``children`` adds the
    largest peak among finished child processes (the sweep's workers). With
    ``probe`` a ``SpeedProbe`` samples the host's speed all through the
    operation and gives the reference time; without it (a traced operation,
    or one whose work runs in other processes) the reference is None.
    """
    gc.collect()
    speed = SpeedProbe() if probe else nullcontext()
    with speed:
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return result, wall, kib / 1024.0, speed.kernel_s() if probe else None


# --- checks ------------------------------------------------------------------


def log_digest(log) -> str:
    """sha256 of the event stream, the sample stream and the run totals.

    Both streams are hashed in chunks so that the check adds little to the
    peak memory the run itself reached.
    """
    h = hashlib.sha256()
    events = log.events
    for lo in range(0, len(events), DIGEST_CHUNK):
        chunk = events[lo:lo + DIGEST_CHUNK]
        for k, code in enumerate("dsqqdd"):
            column = map(itemgetter(k), chunk)
            h.update("\n".join(column).encode() if code == "s" else array(code, column).tobytes())
        h.update("\x1f".join(map(repr, map(itemgetter(6), chunk))).encode())
    s = log.samples
    for name, dtype in (("t", np.float64), ("vehicle_id", np.int64), ("lane", np.int64),
                        ("position", np.float64), ("velocity", np.float64)):
        column = getattr(s, name)
        for lo in range(0, len(column), DIGEST_CHUNK):
            h.update(np.asarray(column[lo:lo + DIGEST_CHUNK], dtype=dtype).tobytes())
    h.update(repr((log.end_time, log.scheduled_arrivals, log.entered, log.exited,
                   log.first_gridlock_time, log.first_origin_slow_time)).encode())
    return h.hexdigest()


def conservation_problems(log) -> list:
    """Vehicles entered = exited + on the road at the end, from the log totals."""
    on_road = int(np.count_nonzero(np.frombuffer(log.samples.t, dtype=np.float64) == log.end_time))
    problems = []
    if log.entered - log.exited != on_road:
        problems.append(f"conservation: entered {log.entered} - exited {log.exited}"
                        f" != {on_road} on the road at {log.end_time}")
    if log.scheduled_arrivals < log.entered:
        problems.append(f"conservation: scheduled {log.scheduled_arrivals} < entered {log.entered}")
    return problems


def check_log(log):
    """(simulated statistics, digest, problems) of one run's log."""
    sim = sim_stats(log)
    problems = conservation_problems(log)
    if sim["injections"] != log.entered or sim["exits"] != log.exited:
        problems.append(f"log totals entered={log.entered} exited={log.exited} disagree with"
                        f" {sim['injections']} injection and {sim['exits']} exit events")
    return sim, log_digest(log), problems


def finish_log(log, wall_s, rss, ref_s) -> Op:
    sim, digest, problems = check_log(log)
    return Op(wall_s, rss, ref_s, len(log.samples), digest, sim, problems)


# --- workloads -----------------------------------------------------------------


class EngineRun:
    """One engine run() of velocity_motorway, communication on or off."""

    preset = "velocity_motorway"

    def __init__(self, communication: bool):
        self.communication = communication

    def setup_spec(self, seed):
        return {"module": "vanetflow", "preset": self.preset,
                "cases": [[seed, self.communication]]}

    def op(self, vf, seed, scratch, tracer) -> Op:
        cfg = vf["PRESETS"][self.preset].config(seed=seed, communication=self.communication)
        run = vf["engine"].run
        if tracer is not None:
            run = tracer.wrap("engine.run", run)
        return finish_log(*_timed(run, cfg, probe=tracer is None))


class CliRun:
    """``vanetflow run --preset velocity_urban`` in-process, CSVs checked from disk."""

    preset = "velocity_urban"
    outputs = ("events.csv", "exits.csv", "lane_changes.csv", "velocity_grid.csv")

    def setup_spec(self, seed):
        return {"module": "vanetflow.cli", "preset": self.preset, "cases": [[seed, True]],
                "config_file": str(CLI_CONFIG)}

    def op(self, vf, seed, scratch, tracer) -> Op:
        out = scratch / "cli_out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--preset", self.preset, "--config", str(CLI_CONFIG),
                "--seed", str(seed), "--out-dir", str(out)]
        main = vf["cli"].main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        printed = io.StringIO()
        with redirect_stdout(printed):
            code, wall, rss, ref = _timed(main, argv, probe=tracer is None)
        problems = [] if code == 0 else [f"exit code {code}"]
        data = (out / "events.csv").read_bytes()
        samples = data.count(b",sample,")
        hit = re.search(rb"\n([^,\n]+),origin_congested,", data)
        sim = {"transmissions": data.count(b",transmission,"),
               "receptions": data.count(b",reception,"),
               "infections": data.count(b",infection,"),
               "lane_changes": data.count(b",lane_change,"),
               "injections": data.count(b",injection,"), "exits": data.count(b",exit,"),
               "samples": samples,
               # every line but the config echo, the header and the samples
               "events": (data.count(b"\n") - data.count(b"\n#") - data.startswith(b"#")
                          - 1 - samples),
               "origin_slow_s": float(hit.group(1)) if hit else None}
        problems.extend(self._check(vf, out, data, printed.getvalue(), sim))
        return Op(wall, rss, ref, samples, hashlib.sha256(data).hexdigest(), sim, problems,
                  csv_bytes=sum((out / name).stat().st_size for name in self.outputs))

    @staticmethod
    def _check(vf, out, data, printed, sim) -> list:
        problems = []
        totals = re.search(r"entered=(\d+) exited=(\d+)", printed)
        if not totals:
            return [f"no totals line in the command output: {printed!r}"]
        entered, exited = int(totals.group(1)), int(totals.group(2))
        if (entered, exited) != (sim["injections"], sim["exits"]):
            problems.append(f"printed entered={entered} exited={exited} disagree with events.csv")
        # vehicles on the road at the end are the sample rows of the last time
        tail = data[-(1 << 20):].split(b"\n")[1:-1]
        end = tail[-1].split(b",", 1)[0] + b",sample,"
        on_road = sum(1 for line in tail if line.startswith(end))
        if tail[0].startswith(end) or entered - exited != on_road:
            problems.append(f"conservation: entered {entered} - exited {exited} != {on_road} on the road")
        read_csv = vf["read_csv"]
        exits = read_csv(out / "exits.csv")
        if exits.rows and tuple(exits.rows[-1][1:3]) != (entered, exited):
            problems.append(f"exits.csv ends at {exits.rows[-1]}, expected {entered}, {exited}")
        if len(read_csv(out / "lane_changes.csv").rows) != sim["lane_changes"]:
            problems.append("lane_changes.csv rows differ from lane_change events")
        grid = read_csv(out / "velocity_grid.csv")
        if sum(row[3] for row in grid.rows) != sim["samples"]:
            problems.append("velocity_grid.csv sample counts differ from events.csv")
        return problems


class SweepAB:
    """run_sweep over protocol_comparison with flooding, both arms, jobs = nproc."""

    preset = "protocol_comparison"
    policy = "flooding"

    def __init__(self):
        self.jobs = len(os.sched_getaffinity(0))

    def seeds(self, seed):
        return [SWEEP_SEEDS * seed + k for k in range(SWEEP_SEEDS)]

    def setup_spec(self, seed):
        return {"module": "vanetflow", "preset": self.preset,
                "cases": [[s, arm] for s in self.seeds(seed) for arm in (True, False)]}

    def op(self, vf, seed, scratch, tracer) -> Op:
        base = vf["PRESETS"][self.preset]
        preset = vf["ScenarioPreset"](f"{base.name}_{self.policy}", base.description,
                                      dict(base.overrides, policy_kind=self.policy))
        cases = scratch / "cases"
        shutil.rmtree(cases, ignore_errors=True)
        cases.mkdir()
        sweep = vf["sweep"]
        run_sweep = sweep.run_sweep
        if tracer is not None:
            run_sweep = tracer.wrap("sweep.run_sweep", run_sweep)
        original = sweep.run
        sweep.run = _case_probe(vf, cases, tracer)
        try:
            timed = _timed(run_sweep, preset, self.seeds(seed), self.jobs, probe=False,
                           children=True)
        finally:
            sweep.run = original
        return self._finish(vf, *timed, cases, scratch, tracer)

    def _finish(self, vf, table, wall, rss, _, cases, scratch, tracer) -> Op:
        records = [json.loads(p.read_text()) for p in sorted(cases.glob("*.json"))]
        records.sort(key=lambda r: (r["seed"], r["communication"]))
        # the workers' speed samples; slices are evenly spaced in time, so
        # their plain mean weighs each case by its length
        ref = None
        if tracer is None and records:
            ref = reference_time(sum(r["probe"][0] for r in records),
                                 sum(r["probe"][1] for r in records))
        n_cases = 2 * SWEEP_SEEDS
        case_rows = [row for row in table.rows if row[6] != "median"]
        failed = sum(1 for row in case_rows if row[6] != "ok")
        problems = [f"case {row[0]}/{row[1]}: {row[6]}" for row in case_rows if row[6] != "ok"]
        if len(case_rows) != n_cases or len(records) != n_cases:
            problems.append(f"{len(case_rows)} case rows and {len(records)} probe records,"
                            f" expected {n_cases} (the probe needs fork-started workers)")
        for r in records:
            problems.extend(r["problems"])
        path = scratch / "sweep_summary.csv"
        vf["write_csv"](table, path)
        if vf["read_csv"](path) != table:
            problems.append("sweep_summary.csv does not read back equal")
        # the summary table and every case's event and sample streams
        h = hashlib.sha256(vf["table_to_text"](table).encode())
        h.update(repr([(r["seed"], r["communication"], r["digest"]) for r in records]).encode())
        sim = {"cases": len(records)}
        if records:
            sim.update(add_sim_stats([r["sim"] for r in records]))
        op = Op(wall, rss, ref, sim.get("samples", 0), h.hexdigest(), sim, problems,
                cases_failed=failed)
        for r in records:
            for key, n in r.get("counts", {}).items():
                op.counts[key] = op.counts.get(key, 0) + n
            for key, value in r.get("gauges", {}).items():
                if value is not None and value > op.gauges.get(key, -1):
                    op.gauges[key] = value
        op.worker_spans = [Spans.load(p) for p in sorted(cases.glob("*.npz"))]
        return op


def _case_probe(vf, cases_dir, tracer):
    """Stand-in for ``vanetflow.sweep.run`` in the workers: pass-through, then
    one small record per case with the checks of ``check_log`` and, untraced,
    the worker's speed samples during the case (traced, that worker's spans).

    Workers inherit it, and the traced wrappers, only when they are forked.
    The checks run inside the timed sweep: the digest adds about 60 ms to a
    case of 0.8 s with communication and 5 ms to one of 0.4 s without.
    """
    run = vf["engine"].run
    if tracer is not None:
        run = tracer.wrap("engine.run", run)
    parent_pid = os.getpid()

    def probe(cfg):
        in_worker = os.getpid() != parent_pid
        if tracer is not None and in_worker and tracer.pid != os.getpid():
            tracer.clear()  # drop the spans the worker inherited from the parent
        speed = SpeedProbe() if tracer is None else nullcontext()
        with speed:
            log = run(cfg)
        sim, digest, problems = check_log(log)
        record = {"seed": cfg.seed, "communication": cfg.communication_enabled,
                  "digest": digest, "sim": sim, "problems": problems}
        if tracer is None:
            record["probe"] = [speed.total_s, speed.samples]
        stem = cases_dir / f"case-{cfg.seed}-{int(cfg.communication_enabled)}"
        if tracer is not None:
            record["gauges"] = state_gauges(tracer.last_state)
            tracer.last_state = None
            if in_worker:
                record["counts"] = dict(tracer.counts)
                tracer.spans().save(f"{stem}.npz")
                tracer.clear()
        Path(f"{stem}.json").write_text(json.dumps(record))
        return log

    return probe


WORKLOADS = {
    "run_comms": EngineRun(communication=True),
    "run_nocomms": EngineRun(communication=False),
    "cli_run": CliRun(),
    "sweep_ab": SweepAB(),
}


# --- measurement ------------------------------------------------------------------


def import_vanetflow() -> dict:
    sys.path.insert(0, str(SRC))
    import vanetflow
    from vanetflow import cli, dissemination, engine, sweep
    from vanetflow.metrics import table_to_text
    return {"engine": engine, "cli": cli, "sweep": sweep, "dissemination": dissemination,
            "PRESETS": vanetflow.PRESETS, "ScenarioPreset": vanetflow.ScenarioPreset,
            "read_csv": vanetflow.read_csv, "write_csv": vanetflow.write_csv,
            "table_to_text": table_to_text}


def machine_info() -> dict:
    load = os.getloadavg()
    commit = None
    try:
        top, _, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True, timeout=30
                                      ).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:  # not some enclosing repository
            commit = head or None
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "vanetflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "git_commit": commit, "src_sha256": src.hexdigest(),
            "loadavg_start": [round(x, 2) for x in load], "held_out_seed": HELD_OUT_SEED}


def repeat_ops(workload, vf, seed, scratch, budget_s, min_ops):
    """Run the untraced operation until the next one would overrun ``budget_s``."""
    ops, failed = [], 0
    t_begin = time.perf_counter()
    while True:
        try:
            op = workload.op(vf, seed, scratch, None)
        except Exception:
            traceback.print_exc()
            op = None
        if op is None or op.problems:
            failed += 1
            for problem in (op.problems if op else []):
                print(f"check failed: {problem}", file=sys.stderr)
        else:
            ops.append(op)
        attempted = len(ops) + failed
        elapsed = time.perf_counter() - t_begin
        if attempted >= min_ops and elapsed * (attempted + 1) / attempted > budget_s:
            return ops, attempted, failed


def split_by_digest(ops, failed):
    """Ops whose digest differs from the first one's count as failed."""
    if not ops:
        return ops, failed
    same = [op for op in ops if op.digest == ops[0].digest]
    if len(same) != len(ops):
        print(f"check failed: {len(ops) - len(same)} repeats of the seed gave another digest",
              file=sys.stderr)
    return same, failed + len(ops) - len(same)


def measure_setup(workload, seed) -> list:
    """(vanetflow set-up, reference cold start) host seconds, one pair per probe.

    Each pair runs back to back, so both see the same host speed.
    """
    probe = [sys.executable, str(BENCH / "setup_probe.py")]
    cmds = (probe + [str(SRC), json.dumps(workload.setup_spec(seed))], probe + ["--reference"])
    pairs = []
    for i in range(SETUP_PROBES + 1):
        pair = tuple(float(subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                          check=True).stdout.strip()) for cmd in cmds)
        if i:  # the first pair warms the byte-code and file caches
            pairs.append(pair)
    return pairs


def setup_seconds(pairs) -> float:
    """Median set-up time over its reference, in seconds at REF_COLD_START_S."""
    return statistics.median(setup / ref for setup, ref in pairs) * REF_COLD_START_S


def load_baseline(workload_name, seed):
    try:
        data = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return None
    return data.get("workloads", {}).get(workload_name, {}).get("seeds", {}).get(str(seed))


def report_baseline(workload_name, seed, op):
    """Print the simulated statistics (and the digest) that differ from the recorded baseline."""
    base = load_baseline(workload_name, seed)
    if base is None:
        print(f"baseline: no record for {workload_name} seed {seed} in {BASELINE.name}")
        return
    differ = {key: (value, op.sim.get(key)) for key, value in base["sim"].items()
              if op.sim.get(key) != value}
    if op.digest != base["digest"]:
        differ["digest"] = (base["digest"], op.digest)
    if differ:
        print(f"baseline: SIMULATED OUTPUT DIFFERS from {BASELINE.name} for seed {seed}: "
              + ", ".join(f"{key} {old} -> {new}" for key, (old, new) in differ.items()))
    else:
        print(f"baseline: seed {seed} matches {BASELINE.name} (digest and simulated statistics)")


def print_sim(op):
    print(f"digest: {op.digest}")
    print(f"sim: {json.dumps(op.sim)}")
    for key, value in op.sim.items():
        print(f"  sim   {key:34s} {value}")


def untraced_run(name, workload, vf, seed, seconds, scratch):
    ops, attempted, failed = repeat_ops(workload, vf, seed, scratch, seconds, MIN_OPS)
    ops, failed = split_by_digest(ops, failed)
    setup = measure_setup(workload, seed)
    walls = [op.wall_s for op in ops]
    metrics = dict.fromkeys(E2E_UNITS, 0.0)  # a failed run reports zeros
    print(f"workload {name} seed {seed}: {attempted} operations, {failed} failed, untraced")
    print(f"  host  wall_s per operation: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"  host  reference kernel ms: {', '.join(f'{op.ref_s * 1e3:.3f}' for op in ops)}")
    print(f"  host  set-up s per fresh process: {', '.join(f'{t:.4f}' for t, _ in setup)}")
    print(f"  host  reference cold start s: {', '.join(f'{r:.4f}' for _, r in setup)}")
    if ops:
        wall = statistics.median(walls)
        host = {"wall_s": wall, "vehicle_steps_per_s": ops[0].samples / wall,
                "wall_ref": statistics.median(op.wall_s / op.ref_s for op in ops),
                "reference_ms": statistics.median(op.ref_s for op in ops) * 1e3,
                "raw_setup_s": statistics.median(t for t, _ in setup)}
        print(f"host: {json.dumps(host)}")
        for key, value in host.items():
            print(f"  host  {key:34s} {value} (not gated)")
        rows = ops[0].sim["samples"] + ops[0].sim["events"]
        metrics.update(rows_per_ref=statistics.median(rows * op.ref_s / op.wall_s for op in ops),
                       peak_rss_mb=ops[0].peak_rss_mb)
    metrics["setup_s"] = setup_seconds(setup)
    for key, value in metrics.items():
        print(f"  host  {key:34s} {value} {E2E_UNITS[key]}")
    if ops:
        print_sim(ops[0])
        report_baseline(name, seed, ops[0])
    return {"correct": failed == 0 and bool(ops), "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}


def traced_run(name, workload, vf, seed, seconds, scratch):
    ops, attempted, failed = repeat_ops(workload, vf, seed, scratch, seconds / 2, 1)
    ops, failed = split_by_digest(ops, failed)
    tracer = Tracer()
    attempted += 1
    traced = None
    try:
        missing = install(tracer, vf)
        if missing:
            print(f"trace: not found, not traced: {', '.join(missing)}")
        traced = workload.op(vf, seed, scratch, tracer)
    except Exception:
        traceback.print_exc()
    finally:
        tracer.restore()
    if traced is None or traced.problems:
        failed += 1
        for problem in (traced.problems if traced else []):
            print(f"check failed: {problem}", file=sys.stderr)
    elif ops and traced.digest != ops[0].digest:
        failed += 1
        print("check failed: the traced digest differs from the untraced one", file=sys.stderr)
    print(f"workload {name} seed {seed}: {attempted} operations ({attempted - 1} untraced,"
          f" 1 traced), {failed} failed")
    values = dict.fromkeys(LAYER_UNITS, 0.0)  # a failed run reports zeros
    if traced is not None and ops:
        untraced_wall = statistics.median(op.wall_s for op in ops)
        if tracer.last_state is not None:
            traced.gauges = state_gauges(tracer.last_state)
            tracer.last_state = None
        spans = Spans.merge([tracer.spans()] + traced.worker_spans)
        TRACE_OUT.mkdir(exist_ok=True)
        spans.save(TRACE_OUT / f"spans_{name}.npz")
        print(f"trace: {len(spans)} spans written to {TRACE_OUT.name}/spans_{name}.npz")
        ctx = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced.wall_s,
               "csv_bytes": traced.csv_bytes, "cases_failed": traced.cases_failed,
               "jobs": getattr(workload, "jobs", None)}
        report_baseline(name, seed, ops[0])
        values = derive(spans, {**tracer.counts, **traced.counts}, traced.sim,
                        traced.gauges, ctx)
        print(f"  host  untraced wall_s {untraced_wall:.4f} s, traced wall_s {traced.wall_s:.4f} s")
        print_sim(traced)
    for key, value in values.items():
        print(f"  {LAYER_KINDS[key]:4s}  {key:34s} {value} {LAYER_UNITS[key]}")
    return {"correct": failed == 0 and traced is not None and bool(ops),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vanetflow" / "__init__.py").is_file():
        print(f"error: no vanetflow sources under {SRC}", file=sys.stderr)
        return 2
    try:
        vf = import_vanetflow()
    except ImportError as exc:
        print(f"error: cannot import vanetflow: {exc}", file=sys.stderr)
        return 2
    print(f"machine: {json.dumps(machine_info())}")
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args.workload, WORKLOADS[args.workload], vf, args.seed, args.seconds,
                     scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
