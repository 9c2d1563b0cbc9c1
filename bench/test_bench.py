"""The benchmark's own checks: span arithmetic, ratio definitions, the metric
lists in BENCHMARK.json, and that tracing leaves a run unchanged.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import refkernel  # noqa: E402
import run as bench  # noqa: E402
from tracer import Spans, Tracer  # noqa: E402


def spans_of(rows, names=("root", "a", "b", "c")):
    """rows of (name, parent, start, end)."""
    return Spans(list(names), np.array([names.index(r[0]) for r in rows], dtype=np.int32),
                 np.array([r[1] for r in rows], dtype=np.int64),
                 np.array([r[2] for r in rows], dtype=float),
                 np.array([r[3] for r in rows], dtype=float))


def test_self_time_subtracts_direct_children_only():
    spans = spans_of([("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0),
                      ("b", 0, 5.0, 6.0)])
    assert spans.self_times().tolist() == [6.0, 2.0, 1.0, 1.0]
    # in one thread the self times of a tree add up to the root's duration
    assert spans.self_times().sum() == spans.durations()[0]


def test_merge_offsets_parents_and_unifies_names():
    one = spans_of([("root", -1, 0.0, 2.0), ("a", 0, 0.5, 1.0)])
    two = Spans(["b", "a"], np.array([0, 1], dtype=np.int32), np.array([-1, 0]),
                np.array([3.0, 3.5]), np.array([4.0, 3.75]))
    merged = Spans.merge([one, two])
    assert merged.parent.tolist() == [-1, 0, -1, 2]
    assert [merged.names[i] for i in merged.name_id] == ["root", "a", "b", "a"]
    assert merged.by_name("a").sum() == 2
    assert merged.self_times().tolist() == [1.5, 0.5, 0.75, 0.25]


def test_wrapper_is_pass_through_and_nests():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x, *, k=0: x + k)
    outer = tracer.wrap("outer", lambda x: inner(x, k=2) * inner(x))
    assert outer(3) == 15
    spans = tracer.spans()
    assert [spans.names[i] for i in spans.name_id] == ["outer", "inner", "inner"]
    assert spans.parent.tolist() == [-1, 0, 0]
    assert (spans.durations() >= 0).all() and (spans.self_times() >= 0).all()


def test_wrapper_closes_its_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.stack == [-1]
    assert tracer.spans().end[0] >= tracer.spans().start[0]


def test_clear_keeps_existing_wrappers_recording():
    tracer = Tracer()
    f = tracer.wrap("f", lambda: None)
    f()
    tracer.clear()
    f()
    assert len(tracer.spans()) == 1


def test_ratio_is_zero_on_a_zero_base():
    assert layers.ratio(3, 4) == 0.75
    assert layers.ratio(0, 5) == 0.0
    assert layers.ratio(5, 0) == 0.0
    assert layers.ratio(0, 0) == 0.0


def test_reference_time_is_the_mean_slice_in_whole_kernels():
    scale = refkernel.REF_PASSES / refkernel.PROBE_PASSES
    assert refkernel.reference_time(0.6, 3) == pytest.approx(0.2 * scale)


def test_speed_probe_samples_during_the_block_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with refkernel.SpeedProbe() as speed:
        end = time.perf_counter() + 8 * refkernel.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert speed.samples >= 4 and speed.total_s > 0
    assert speed.kernel_s() == refkernel.reference_time(speed.total_s, speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_seconds_is_the_median_ratio_at_the_reference_cold_start():
    pairs = [(0.3, 0.1), (0.1, 0.1), (0.4, 0.2)]  # ratios 3, 1, 2
    assert bench.setup_seconds(pairs) == pytest.approx(2 * bench.REF_COLD_START_S)


SIM = {"transmissions": 0, "receptions": 0, "infections": 0, "lane_changes": 2,
       "injections": 5, "exits": 1, "samples": 40, "events": 8, "origin_slow_s": None}
CTX = {"untraced_wall_s": 2.0, "traced_wall_s": 3.0}


def test_ratio_definitions():
    names = ["engine.step", "radio.mac_tick", "radio.receive_roll",
             "dissemination.should_rebroadcast", "traffic.base_lane_change",
             "traffic.additive_lane_change"]
    rows = [("engine.step", -1, 0.0, 1.0)]
    rows += [("radio.mac_tick", 0, 0.1, 0.11)] * 10 + [("radio.receive_roll", 0, 0.2, 0.21)] * 8
    rows += [("dissemination.should_rebroadcast", 0, 0.3, 0.31)] * 4
    rows += [("traffic.base_lane_change", 0, 0.4, 0.41)] * 3
    rows += [("traffic.additive_lane_change", 0, 0.5, 0.51)]
    spans = spans_of(rows, names=names)
    sim = dict(SIM, receptions=6, infections=3, lane_changes=2)
    counts = {"mac_sends": 2, "busy_defers": 6, "relays": 1}
    out = layers.derive(spans, counts, sim, {}, CTX)
    assert out["radio.mac_send_ratio"] == 2 / 10
    assert out["radio.busy_defer_ratio"] == 6 / 8
    assert out["radio.reception_ratio"] == 6 / 8
    assert out["dissemination.relay_ratio"] == 1 / 4
    assert out["dissemination.receptions_per_informed"] == 2.0
    assert out["traffic.lane_change_evals"] == 4
    assert out["traffic.lane_change_accept_ratio"] == 0.5
    assert out["engine.trace_overhead_ratio"] == 1.5
    assert out["engine.self_s"] == pytest.approx(1.0 - 26 * 0.01)


def test_zero_bases_report_zero_and_every_value_is_a_number():
    spans = spans_of([("root", -1, 0.0, 1.0)])
    out = layers.derive(spans, {}, SIM, {}, CTX)
    assert list(out) == [m[0] for m in layers.LAYER_METRICS]
    for key in ("radio.mac_send_ratio", "radio.busy_defer_ratio", "radio.reception_ratio",
                "dissemination.relay_ratio", "dissemination.receptions_per_informed",
                "metrics.csv_mb_per_s", "sweep.parallel_efficiency", "sweep.case_s_p50",
                "sweep.case_s_max", "engine.origin_slow_sim_s",
                "dissemination.messages_held_end", "dissemination.ledger_entries_end"):
        assert out[key] == 0, key
    for key, value in out.items():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), key
    json.dumps(out, allow_nan=False)


def test_parallel_efficiency_is_case_time_over_jobs_times_wall():
    rows = [("engine.run", -1, 0.0, 1.0), ("engine.run", -1, 0.0, 3.0)]
    spans = spans_of(rows, names=("engine.run",))
    out = layers.derive(spans, {}, SIM, {}, dict(CTX, jobs=2))
    assert out["sweep.parallel_efficiency"] == 4.0 / (2 * 3.0)
    assert out["sweep.case_s_max"] == 3.0 and out["sweep.case_s_p50"] == 2.0


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in layers.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


@pytest.fixture(scope="module")
def vf():
    return bench.import_vanetflow()


def tiny_config(vf):
    cfg = vf["PRESETS"]["velocity_motorway"].config(seed=3, communication=True)
    cfg.duration, cfg.warm_up = 90.0, 10.0
    return cfg


def test_traced_run_matches_untraced_and_restores_the_package(vf):
    engine = vf["engine"]
    originals = {name: getattr(engine, name) for name in layers.ENGINE_CALLS}
    reference = bench.log_digest(engine.run(tiny_config(vf)))
    tracer = Tracer()
    try:
        assert layers.install(tracer, vf) == []
        log = tracer.wrap("engine.run", engine.run)(tiny_config(vf))
    finally:
        tracer.restore()
    assert bench.log_digest(log) == reference
    assert {name: getattr(engine, name) for name in layers.ENGINE_CALLS} == originals
    spans = tracer.spans()
    sim = layers.sim_stats(log)
    assert spans.by_name("engine.step").sum() == 360
    assert spans.by_name("dissemination.record_reception").sum() == sim["receptions"]
    sends = tracer.counts.get("mac_sends", 0)
    beacons = sum(1 for e in log.events if e[1] == "transmission" and e[2] == -1)
    assert sends >= sim["transmissions"] - beacons  # frames past their TTL are not sent
    assert bench.conservation_problems(log) == []


def test_speed_probe_leaves_a_run_unchanged(vf):
    engine = vf["engine"]
    reference = bench.log_digest(engine.run(tiny_config(vf)))
    with refkernel.SpeedProbe() as speed:
        log = engine.run(tiny_config(vf))
    assert speed.samples > 1
    assert bench.log_digest(log) == reference
