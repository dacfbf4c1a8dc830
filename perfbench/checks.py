"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/checks.py``
(the file is outside the default test collection on purpose: two of the
tests run the benchmark end to end).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.cdma.linkgain import LinkGainMap  # noqa: E402
from repro.cdma.network import CdmaNetwork  # noqa: E402
from repro.experiments.campaign import CampaignResult, PointResult  # noqa: E402
from repro.simulation.metrics import SimulationResult  # noqa: E402

#: A 7-cell scenario a few frames long: fast enough for a unit test.
TINY = {"kind": "dynamic", "num_rings": 1, "warmup_s": 0.1, "duration_s": 0.3, "reps_per_round": 1}
#: Any positive time budget runs exactly one round.
ONE_ROUND_S = 1e-9


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run_benchmark(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "paper_k19",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _valid_result() -> SimulationResult:
    return SimulationResult(
        scheduler="JABA-SD(J1)", num_data_users=12, num_voice_users=6, duration_s=1.0,
        mean_packet_delay_s=0.2, p90_packet_delay_s=0.4, mean_forward_delay_s=0.2,
        mean_reverse_delay_s=0.2, completed_packet_calls=10, carried_throughput_bps=1e6,
        offered_load_bps=1e6, mean_granted_m=4.0, grant_rate=0.8, mean_queue_length=1.0,
        forward_utilisation=0.4, reverse_rise_db=2.0, fch_outage_fraction=0.0,
        handoff_events=3,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_and_units_match_benchmark_json(trace, section):
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert declared == (run.PER_LAYER if trace else run.END_TO_END)
    result = _run_benchmark(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    declared = [w["name"] for w in _benchmark_json()["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_correctness_check_trips_on_doctored_results():
    good = _valid_result()
    assert workloads.check_result(good) == []
    assert workloads.check_result(dataclasses.replace(good, mean_packet_delay_s=math.nan))
    assert workloads.check_result(dataclasses.replace(good, extra={"x": math.inf}))
    assert workloads.check_result(dataclasses.replace(good, grant_rate=0.0))

    def campaign(points):
        return CampaignResult(name="c", root_seed=0, replications=2, points=points)

    clean = PointResult(index=0, params={}, replications={0: {"m": 1.0}, 1: {"m": 2.0}})
    assert workloads.check_campaign(campaign([clean])) == (0, [])
    non_finite = PointResult(index=0, params={}, replications={0: {"m": math.nan}, 1: {"m": 2.0}})
    assert workloads.check_campaign(campaign([non_finite]))[0] == 1
    degraded = PointResult(index=0, params={}, replications={0: {"m": 1.0}}, failures={1: "boom"})
    assert workloads.check_campaign(campaign([degraded]))[0] == 2


def test_raising_runner_counts_as_failed():
    calls = []

    def flaky(spec, seed):
        calls.append(seed)
        if len(calls) % 2:
            raise RuntimeError("injected")
        return _valid_result()

    clock = tracing.FrameClock(warmup_s=0.1)
    raw = workloads.measure_dynamic(TINY, 1, ONE_ROUND_S, clock, run_rep=flaky)
    assert raw == dict(raw, attempted=1, failed=1)
    assert "RuntimeError: injected" in raw["problems"][0]
    calls.clear()
    raw = workloads.measure_dynamic(TINY, 1, 1e-3, clock, run_rep=flaky)
    assert raw["attempted"] >= 2 and raw["failed"] == (raw["attempted"] + 1) // 2


def test_raising_campaign_runner_counts_every_task(tmp_path, monkeypatch):
    def boom(params, seed):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads, "dynamic_replication", boom)
    clock = tracing.FrameClock(warmup_s=0.5, collect_garbage=False).install()
    try:
        spec = workloads.WORKLOADS["campaign_f2"]
        raw = workloads.measure_campaign(spec, 1, ONE_ROUND_S, clock, str(tmp_path))
    finally:
        clock.uninstall()
    assert raw["attempted"] == raw["failed"] == 16


def test_untraced_run_wraps_only_the_frame_boundary():
    linkgain, advance = LinkGainMap.advance, CdmaNetwork.advance
    clock = tracing.FrameClock(warmup_s=0.1).install()
    try:
        assert LinkGainMap.advance is linkgain and CdmaNetwork.advance is not advance
        assert len(clock._restore) == 1
    finally:
        clock.uninstall()
    assert CdmaNetwork.advance is advance


def test_traced_layers_and_unattributed_sum_to_frame_time():
    tracer = tracing.Tracer(warmup_s=TINY["warmup_s"]).install()
    try:
        raw = workloads.measure_dynamic(TINY, 1, ONE_ROUND_S, tracer)
    finally:
        tracer.uninstall()
    layers = workloads.layer_metrics(tracer, raw)
    parts = [v for k, v in layers.items() if k.endswith("ms_per_frame") and not k.startswith("trace.")]
    assert len(parts) == len(tracing.SPAN_NAMES) + 1
    assert sum(parts) == pytest.approx(layers["trace.frame_ms_mean"], rel=1e-9)
    assert 0.0 <= layers["unattributed_frac"] < 1.0
    for name in ("mobility", "linkgain", "handoff", "pc_reverse", "pc_forward", "measure", "solve"):
        assert tracer.self_s[name] > 0.0, name
    assert len(tracer.frame_s) == round(TINY["duration_s"] / 0.02)


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_hung_set_up_probe_is_killed_with_its_workers(tmp_path, monkeypatch):
    pid_file = tmp_path / "worker.pid"
    hang = (
        "import os, time\n"
        "if os.fork() == 0:\n"
        f"    open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "time.sleep(60)\n"
    )
    monkeypatch.setattr(run, "SETUP_TIMEOUT_S", 1.0)
    monkeypatch.setattr(run, "child_command", lambda *args: [sys.executable, "-c", hang])
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="timed out"):
        run.setup_probe(argparse.Namespace(workload="paper_k19", seed=1))
    assert time.perf_counter() - start < 10.0
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(worker)
