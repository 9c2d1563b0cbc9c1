"""Which vanetflow calls the traced run wraps, and the per-layer metrics.

Every layer is a vanetflow module: traffic, radio, dissemination, engine,
metrics, cli and sweep. A span is named after the module whose function did
the work, so ``traffic.idm_acceleration`` is IDM work even though the engine
calls it. ``LAYER_METRICS`` is the one list of per-layer metrics: the traced
run reports exactly these, ``BENCHMARK.json`` lists them, and each entry names
the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

# (name, unit, better, what it should move). Simulated statistics repeat
# exactly for a seed; a speed-only change must leave them identical.
LAYER_METRICS = [
    ("traffic.idm_calls", "count", "lower", "wall_s, vehicle_steps_per_s: most on run_nocomms, less on run_comms"),
    ("traffic.idm_s", "s", "lower", "wall_s, vehicle_steps_per_s: most on run_nocomms, less on run_comms"),
    ("traffic.lane_change_evals", "count", "lower", "wall_s: run_nocomms, run_comms"),
    ("traffic.lane_change_s", "s", "lower", "wall_s: run_nocomms, run_comms"),
    ("traffic.lane_change_accept_ratio", "ratio", "higher", "lane changes applied per evaluation; simulated, must not change"),
    ("traffic.kinematic_calls", "count", "lower", "wall_s: run_nocomms, run_comms"),
    ("traffic.kinematic_s", "s", "lower", "wall_s: run_nocomms, run_comms"),
    ("traffic.lane_changes", "count", "lower", "simulated lane changes; must not change"),
    ("radio.mac_tick_calls", "count", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.mac_tick_s", "s", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.medium_busy_calls", "count", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.medium_busy_s", "s", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.receive_roll_calls", "count", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.receive_roll_s", "s", "lower", "wall_s: run_comms, cli_run; nothing on run_nocomms"),
    ("radio.transmissions", "count", "lower", "simulated transmissions; must not change"),
    ("radio.receptions", "count", "lower", "simulated receptions; must not change"),
    ("radio.mac_send_ratio", "ratio", "higher", "MAC sends per MAC tick; 0 without MAC ticks"),
    ("radio.busy_defer_ratio", "ratio", "lower", "zero-backoff attempts that found the medium busy; 0 without attempts"),
    ("radio.reception_ratio", "ratio", "higher", "receptions per reception roll; 0 without rolls"),
    ("dissemination.record_calls", "count", "lower", "wall_s: run_comms, sweep_ab"),
    ("dissemination.record_s", "s", "lower", "wall_s: run_comms, sweep_ab"),
    ("dissemination.relay_decisions", "count", "lower", "wall_s: run_comms, sweep_ab"),
    ("dissemination.relay_s", "s", "lower", "wall_s: run_comms, sweep_ab"),
    ("dissemination.relay_ratio", "ratio", "lower", "relays per relay decision; 0 without decisions"),
    ("dissemination.infections", "count", "higher", "simulated informed vehicles; must not change"),
    ("dissemination.receptions_per_informed", "ratio", "lower", "redundancy (Tseng et al. 2002); 0 without infections"),
    ("dissemination.messages_held_end", "count", "lower", "peak_rss_mb: run_comms"),
    ("dissemination.ledger_entries_end", "entries/vehicle", "lower", "peak_rss_mb: run_comms"),
    ("engine.steps", "count", "lower", "wall_s: every workload"),
    ("engine.step_s", "s", "lower", "wall_s: every workload"),
    ("engine.self_s", "s", "lower", "wall_s: every workload"),
    ("engine.step_ms_p50", "ms", "lower", "wall_s: every workload"),
    ("engine.step_ms_p99", "ms", "lower", "wall_s: run_comms, with radio and dissemination"),
    ("engine.inject_s", "s", "lower", "wall_s: every workload"),
    ("engine.detect_s", "s", "lower", "wall_s: every workload"),
    ("engine.events", "count", "lower", "simulated events logged; must not change"),
    ("engine.samples", "count", "lower", "simulated vehicle-ticks; must not change"),
    ("engine.exited", "count", "higher", "simulated exits; must not change"),
    ("engine.origin_slow_sim_s", "sim_s", "higher", "simulated first origin congestion; 0 if never"),
    ("engine.trace_overhead_ratio", "ratio", "lower", "traced over untraced operation wall time"),
    ("metrics.events_to_table_s", "s", "lower", "wall_s, peak_rss_mb: cli_run"),
    ("metrics.write_csv_s", "s", "lower", "wall_s, peak_rss_mb: cli_run"),
    ("metrics.csv_bytes", "bytes", "lower", "wall_s, peak_rss_mb: cli_run"),
    ("metrics.csv_mb_per_s", "MB/s", "higher", "wall_s: cli_run; 0 without CSV output"),
    ("metrics.velocity_grid_s", "s", "lower", "wall_s, peak_rss_mb: cli_run"),
    ("metrics.exit_series_s", "s", "lower", "wall_s, peak_rss_mb: cli_run"),
    ("cli.self_s", "s", "lower", "setup_s, wall_s: cli_run"),
    ("sweep.cases", "count", "higher", "wall_s: sweep_ab"),
    ("sweep.cases_failed", "count", "lower", "wall_s: sweep_ab"),
    ("sweep.case_s_p50", "s", "lower", "wall_s: sweep_ab; 0 outside a sweep"),
    ("sweep.case_s_max", "s", "lower", "wall_s: sweep_ab, the slowest case sets the tail; 0 outside a sweep"),
    ("sweep.parallel_efficiency", "ratio", "higher", "wall_s: sweep_ab; 0 outside a sweep"),
]

LAYER_UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}

# "host" numbers are measured host time and carry noise; "sim" numbers are
# exact counts of the simulation and its calls, which repeat for a seed
LAYER_KINDS = {name: "host" if unit in ("s", "ms", "MB/s") else "sim" for name, unit in LAYER_UNITS.items()}
LAYER_KINDS["engine.trace_overhead_ratio"] = LAYER_KINDS["sweep.parallel_efficiency"] = "host"

LANE_CHANGE_RULES = ("base_lane_change", "brute_force_lane_change",
                     "additive_lane_change", "proportional_lane_change")

# module-level names of vanetflow.engine, each traced under its home module
ENGINE_CALLS = {
    "step": "engine.step",
    "inject_vehicles": "engine.inject_vehicles",
    "detect_gridlock": "engine.detect_gridlock",
    "origin_congested": "engine.origin_congested",
    "idm_acceleration": "traffic.idm_acceleration",
    "others_disadvantage": "traffic.others_disadvantage",
    "diff_incentive": "traffic.diff_incentive",
    "kinematic_update": "traffic.kinematic_update",
    **{rule: f"traffic.{rule}" for rule in LANE_CHANGE_RULES},
    "medium_busy": "radio.medium_busy",
    "mac_tick": "radio.mac_tick",
    "receive_roll": "radio.receive_roll",
    "should_rebroadcast": "dissemination.should_rebroadcast",
    "ttl_alive": "dissemination.ttl_alive",
}

CLI_CALLS = {
    "run": "engine.run",
    "events_to_table": "metrics.events_to_table",
    "write_csv": "metrics.write_csv",
    "exit_series": "metrics.exit_series",
    "lane_changes_to_table": "metrics.lane_changes_to_table",
    "velocity_grid": "metrics.velocity_grid",
}


def ratio(num, den):
    """num / den, or 0.0 when the base is zero (the result line takes numbers only)."""
    if not den:
        return 0.0
    return num / den


def install(tracer, vanetflow_modules) -> list:
    """Replace the cross-layer names with traced wrappers; returns names not found.

    ``vanetflow.sweep.run`` is left to the sweep workload, which wraps it
    together with the per-case probe.
    """
    engine, cli, dissemination = (vanetflow_modules[k] for k in ("engine", "cli", "dissemination"))

    def on_mac_tick(args, result):
        state, busy = args[0], args[1]
        if result[1]:
            tracer.count("mac_sends")
        elif busy and state.pending_message is not None and state.backoff_remaining == 0:
            tracer.count("busy_defers")

    def on_relay(args, result):
        if result:
            tracer.count("relays")

    def on_step(args, result):
        tracer.last_state = result

    hooks = {"mac_tick": on_mac_tick, "should_rebroadcast": on_relay, "step": on_step}
    missing = []
    targets = [(engine, attr, span) for attr, span in ENGINE_CALLS.items()]
    targets += [(cli, attr, span) for attr, span in CLI_CALLS.items()]
    targets.append((dissemination.MessageLedger, "record_reception",
                    "dissemination.record_reception"))
    for owner, attr, span in targets:
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
            continue
        tracer.patch(owner, attr, tracer.wrap(span, fn, hooks.get(attr)))
    return missing


def sim_stats(log) -> dict:
    """Exact simulated statistics of one run, from its public log."""
    kinds = Counter(record[1] for record in log.events)
    return {"transmissions": kinds["transmission"], "receptions": kinds["reception"],
            "infections": kinds["infection"], "lane_changes": kinds["lane_change"],
            "injections": kinds["injection"], "exits": kinds["exit"],
            "samples": len(log.samples), "events": len(log.events),
            "origin_slow_s": log.first_origin_slow_time}


def add_sim_stats(runs: list) -> dict:
    """Sum the counts of several runs; the origin time is their median (None if any never)."""
    total = {key: sum(r[key] for r in runs) for key in runs[0] if key != "origin_slow_s"}
    origins = [r["origin_slow_s"] for r in runs]
    total["origin_slow_s"] = None if None in origins else statistics.median(origins)
    return total


def state_gauges(state) -> dict:
    """Warning state still held when a run ends."""
    vehicles = [veh for lane in state.lanes for veh in lane]
    entries = sum(len(veh.ledger.entries) for veh in vehicles)
    return {"messages_held_end": len(state.messages),
            "ledger_entries_end": ratio(entries, len(vehicles))}


def _percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def derive(spans, counts: dict, sim: dict, gauges: dict, ctx: dict) -> dict:
    """Every metric of LAYER_METRICS from one traced operation.

    ``ctx`` carries what the spans cannot: the untraced and traced wall time
    of the operation, the sweep's job count and failed cases and the CSV
    bytes written. Every value is a number: a ratio with a zero base, the
    time of a layer the workload does not reach, and an origin time the run
    never had are 0.
    """
    dur = spans.durations()
    self_t = spans.self_times()

    def calls(*names):
        return int(sum(spans.by_name(n).sum() for n in names))

    def busy(*names):
        return float(sum(dur[spans.by_name(n)].sum() for n in names))

    rules = [f"traffic.{r}" for r in LANE_CHANGE_RULES]
    evals = calls(*rules)
    step_mask = spans.by_name("engine.step")
    step_ms = dur[step_mask] * 1000.0
    cases = dur[spans.by_name("engine.run")] if ctx.get("jobs") else np.zeros(0)
    write_s = busy("metrics.write_csv")
    mac_calls = calls("radio.mac_tick")
    sends, defers = counts.get("mac_sends", 0), counts.get("busy_defers", 0)
    decisions = calls("dissemination.should_rebroadcast")
    out = {
        "traffic.idm_calls": calls("traffic.idm_acceleration"),
        "traffic.idm_s": busy("traffic.idm_acceleration"),
        "traffic.lane_change_evals": evals,
        "traffic.lane_change_s": busy(*rules, "traffic.others_disadvantage",
                                      "traffic.diff_incentive"),
        "traffic.lane_change_accept_ratio": ratio(sim["lane_changes"], evals),
        "traffic.kinematic_calls": calls("traffic.kinematic_update"),
        "traffic.kinematic_s": busy("traffic.kinematic_update"),
        "traffic.lane_changes": sim["lane_changes"],
        "radio.mac_tick_calls": mac_calls,
        "radio.mac_tick_s": busy("radio.mac_tick"),
        "radio.medium_busy_calls": calls("radio.medium_busy"),
        "radio.medium_busy_s": busy("radio.medium_busy"),
        "radio.receive_roll_calls": calls("radio.receive_roll"),
        "radio.receive_roll_s": busy("radio.receive_roll"),
        "radio.transmissions": sim["transmissions"],
        "radio.receptions": sim["receptions"],
        "radio.mac_send_ratio": ratio(sends, mac_calls),
        "radio.busy_defer_ratio": ratio(defers, defers + sends),
        "radio.reception_ratio": ratio(sim["receptions"], calls("radio.receive_roll")),
        "dissemination.record_calls": calls("dissemination.record_reception"),
        "dissemination.record_s": busy("dissemination.record_reception"),
        "dissemination.relay_decisions": decisions,
        "dissemination.relay_s": busy("dissemination.should_rebroadcast"),
        "dissemination.relay_ratio": ratio(counts.get("relays", 0), decisions),
        "dissemination.infections": sim["infections"],
        "dissemination.receptions_per_informed": ratio(sim["receptions"], sim["infections"]),
        "dissemination.messages_held_end": gauges.get("messages_held_end", 0),
        "dissemination.ledger_entries_end": gauges.get("ledger_entries_end", 0.0),
        "engine.steps": int(step_mask.sum()),
        "engine.step_s": float(step_ms.sum() / 1000.0),
        "engine.self_s": float(self_t[step_mask].sum()),
        "engine.step_ms_p50": _percentile(step_ms, 50),
        "engine.step_ms_p99": _percentile(step_ms, 99),
        "engine.inject_s": busy("engine.inject_vehicles"),
        "engine.detect_s": busy("engine.detect_gridlock", "engine.origin_congested"),
        "engine.events": sim["events"],
        "engine.samples": sim["samples"],
        "engine.exited": sim["exits"],
        "engine.origin_slow_sim_s": sim["origin_slow_s"] or 0.0,
        "engine.trace_overhead_ratio": ratio(ctx["traced_wall_s"], ctx["untraced_wall_s"]),
        "metrics.events_to_table_s": busy("metrics.events_to_table"),
        "metrics.write_csv_s": write_s,
        "metrics.csv_bytes": ctx.get("csv_bytes", 0),
        "metrics.csv_mb_per_s": ratio(ctx.get("csv_bytes", 0) / 1e6, write_s),
        "metrics.velocity_grid_s": busy("metrics.velocity_grid"),
        "metrics.exit_series_s": busy("metrics.exit_series"),
        "cli.self_s": float(self_t[spans.by_name("cli.main")].sum()),
        "sweep.cases": int(len(cases)),
        "sweep.cases_failed": ctx.get("cases_failed", 0),
        "sweep.case_s_p50": _percentile(cases, 50),
        "sweep.case_s_max": float(cases.max()) if len(cases) else 0.0,
        "sweep.parallel_efficiency": (ratio(float(cases.sum()), ctx["jobs"] * ctx["traced_wall_s"])
                                      if ctx.get("jobs") else 0.0),
    }
    return out
