"""Run the benchmark over several seeds, report each end-to-end metric's spread
and, with ``--write``, record the result as bench/baseline.json.

    python3 bench/record_baseline.py --seeds 1..10 [--write]

The spread of a metric is the distance between the first and third quartile
of its per-seed values (``statistics.quantiles(values, n=4)``) over their
median. A steady benchmark keeps it under a third of the metric's bound in
BENCHMARK.json. Every workload is measured. ``--write`` also makes one traced
run per workload on the first seed, stores its per-layer values and replaces
bench/baseline.json as a whole.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import LAYER_METRICS  # noqa: E402
from run import BASELINE, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def bench_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    tagged = {}
    for line in lines[:-1]:
        tag, _, rest = line.partition(": ")
        if tag in ("machine", "sim", "host"):
            tagged[tag] = json.loads(rest)
        elif tag == "digest":
            tagged[tag] = rest.strip()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT\n{done.stderr}", file=sys.stderr)
    return result, tagged


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = parse_seeds(args.seeds)
    if HELD_OUT_SEED in seeds:
        sys.exit(f"seed {HELD_OUT_SEED} is held out for checking later claims")
    record = {"held_out_seed": HELD_OUT_SEED, "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {},
              "layer_map": {name: moves for name, _, _, moves in LAYER_METRICS}}
    steady = True
    for workload in WORKLOADS:
        values = {name: [] for name in bounds}
        raw = {"wall_s": [], "setup_s": [], "wall_ref": []}
        entry = {"why": whys[workload], "seeds": {}}
        for seed in seeds:
            result, tagged = bench_once(workload, seed, spec["run_seconds"], 0)
            record.setdefault("machine", tagged["machine"])
            entry["seeds"][str(seed)] = {"digest": tagged["digest"], "sim": tagged["sim"]}
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            raw["wall_s"].append(tagged["host"]["wall_s"])
            raw["setup_s"].append(tagged["host"]["raw_setup_s"])
            raw["wall_ref"].append(tagged["host"]["wall_ref"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        for name, vals in raw.items():
            entry[f"raw_{name}"] = stats = spread(vals)
            print(f"  {workload:12s} {'raw ' + name:20s} median {stats['median']:.6g}     "
                  f" spread {stats['spread']:.4f} (not gated)")
        entry["end_to_end"] = {}
        for name, vals in values.items():
            stats = spread(vals)
            entry["end_to_end"][name] = {"unit": units[name], **stats}
            ok = stats["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {workload:12s} {name:20s} median {stats['median']:.6g} {units[name]:4s}"
                  f" spread {stats['spread']:.4f} (bound {bounds[name]})"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        record["workloads"][workload] = entry
    if args.write:
        # the traced runs compare their simulated statistics with the new record
        BASELINE.write_text(json.dumps(record, indent=1) + "\n")
        for workload, entry in record["workloads"].items():
            result, _ = bench_once(workload, seeds[0], spec["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        BASELINE.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    print("steady" if steady else "NOT STEADY")


if __name__ == "__main__":
    main()
