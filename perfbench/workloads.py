"""Workloads, correctness checks and metric assembly of the repo benchmark.

Workloads set scenario content only -- cells, users, traffic, scheduler and
seed -- and no implementation switch, so the benchmark always measures the
default path the paper experiments run.  See ``README.md`` for why each one
was chosen.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.config import SystemConfig
from repro.experiments.campaign import Campaign, seed_sequence_to_int
from repro.experiments.common import paper_scenario, paper_traffic, scheduler_from_spec
from repro.experiments.delay_vs_load import build_delay_campaign, dynamic_replication
from repro.simulation.dynamic import DynamicSystemSimulator
from repro.simulation.scenario import MobilityConfig, ScenarioConfig

import tracing

#: Scenario content of each workload.
WORKLOADS = {
    # 19 cells, 12 data + 6 voice users per cell (342 users), JABA-SD(J1).
    "paper_k19": {
        "kind": "dynamic",
        "num_rings": 2,
        "warmup_s": 0.5,
        "duration_s": 1.0,
        "reps_per_round": 2,
    },
    # The F2 delay-vs-load campaign: 7 cells, loads {6,12,18,24} x the four
    # default schedulers, one CRN-paired replication per point.  Tasks run
    # 1 s, not ~2 s, so that more rounds fit in a run (see README.md,
    # "Noise"); at 0.5 s some tasks end with no reverse-link packet delay.
    "campaign_f2": {
        "kind": "campaign",
        "warmup_s": 0.5,
        "duration_s": 1.0,
        "replications": 1,
    },
}

DATA_USERS_PER_CELL = 12
VOICE_USERS_PER_CELL = 6
SCHEDULER = "JABA-SD(J1)"


def rep_seed(seed: int, index: int) -> int:
    """Scenario seed of the ``index``-th replication of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


# -- dynamic workloads -------------------------------------------------------------
def dynamic_scenario(spec: dict, seed: int) -> ScenarioConfig:
    base = SystemConfig()
    system = base.with_overrides(radio=replace(base.radio, num_rings=spec["num_rings"]))
    return ScenarioConfig(
        system=system,
        num_data_users_per_cell=DATA_USERS_PER_CELL,
        num_voice_users_per_cell=VOICE_USERS_PER_CELL,
        duration_s=spec["duration_s"],
        warmup_s=spec["warmup_s"],
        seed=seed,
        traffic=paper_traffic(),
        mobility=MobilityConfig(),
    )


def build_simulator(spec: dict, seed: int) -> DynamicSystemSimulator:
    return DynamicSystemSimulator(dynamic_scenario(spec, seed), scheduler_from_spec(SCHEDULER))


def run_dynamic_rep(spec: dict, seed: int):
    """One replication: build the simulator and run it."""
    return build_simulator(spec, seed).run()


def check_result(result) -> list:
    """Problems of one replication's ``SimulationResult`` (empty when correct)."""
    problems = []
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    values.update(values.pop("extra"))
    for name, value in values.items():
        if isinstance(value, (int, float)) and not math.isfinite(value):
            problems.append(f"{name} is not finite ({value})")
    if not result.grant_rate > 0.0:
        problems.append(f"grant_rate is {result.grant_rate}, expected > 0")
    return problems


def digest_of(result) -> dict:
    return {
        "grant_rate": result.grant_rate,
        "completed_packet_calls": result.completed_packet_calls,
        "handoff_events": result.handoff_events,
    }


def measure_dynamic(spec, seed, seconds, clock, run_rep=run_dynamic_rep) -> dict:
    """Run rounds of the same replications until ``seconds`` have passed.

    Every round runs replications ``0 .. reps_per_round - 1`` (same seeds,
    so the same frames) and records each one's host seconds and frame
    times.  A replication that raises or fails :func:`check_result` counts
    as failed and is left out of the timings.  Replication time excludes
    the ``gc.collect()`` the clock runs at each warm-up end.
    """
    attempted = failed = 0
    busy_s = 0.0
    unit_s, frames = {}, {}
    problems, digest = [], None
    while busy_s < seconds:
        for index in range(spec["reps_per_round"]):
            clock.new_rep()
            first = len(clock.frame_s)
            gc_before = clock.gc_s
            start = time.perf_counter()
            try:
                result = run_rep(spec, rep_seed(seed, index))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                result, bad = None, [f"{type(exc).__name__}: {exc}"]
            else:
                bad = check_result(result)
            rep_s = time.perf_counter() - start - (clock.gc_s - gc_before)
            busy_s += rep_s
            attempted += 1
            if bad:
                failed += 1
                problems.extend(bad)
                continue
            unit_s.setdefault(index, []).append(rep_s)
            frames.setdefault(index, []).append(clock.frame_s[first:])
            if digest is None:
                digest = digest_of(result)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "busy_s": busy_s,
        "digest": digest,
        "unit_s": unit_s,
        "unit_reps": dict.fromkeys(unit_s, 1),
        "frame_s": frames,
    }


# -- campaign workload -------------------------------------------------------------
def build_campaign(spec: dict, seed: int) -> Campaign:
    """The F2 delay-vs-load campaign, shortened, seeded from ``seed``."""
    scenario = paper_scenario(
        duration_s=spec["duration_s"], warmup_s=spec["warmup_s"], seed=seed
    )
    campaign = build_delay_campaign(scenario=scenario, num_seeds=spec["replications"])
    campaign.runner = campaign_task
    return campaign


def campaign_task(params, seed) -> dict:
    """The campaign's replication runner plus the recorder's state of the task.

    The serial executor runs it in the coordinator, under the clock or tracer
    that :func:`measure_campaign` installed.  The task's own state goes to
    ``recorder.task_states``; what the recorder held before goes back to it.
    """
    recorder = tracing.installed
    recorder.new_rep()
    before = recorder.take_state()
    start = time.perf_counter()
    metrics = dynamic_replication(params, seed)
    task_s = time.perf_counter() - start
    state = recorder.take_state()
    recorder.merge(before)
    state["task_s"] = task_s
    state["key"] = f"{params['scheduler']}|{params['load']}|{seed_sequence_to_int(seed)}"
    recorder.task_states.append(state)
    return metrics


def check_campaign(result) -> tuple:
    """``(failed replications, problems)`` of one campaign result."""
    failed, problems = 0, []
    for point in result.points:
        if point.failures:
            problems.append(f"point {point.index} degraded: {dict(point.failures)}")
            failed += len(point.failures) + len(point.replications)
            continue
        for rep, metrics in point.replications.items():
            bad = [k for k, v in metrics.items() if not math.isfinite(v)]
            if bad:
                failed += 1
                problems.append(f"point {point.index} rep {rep}: non-finite {bad}")
    return failed, problems


def measure_campaign(spec, seed, seconds, recorder, work_dir) -> dict:
    """Run the same campaign round after round until ``seconds`` have passed.

    Task and frame times come back keyed by replication, so the rounds line
    up task by task and frame by frame.  The campaign runs with one worker,
    that is, with the serial executor in this process: ``PoolExecutor`` can
    hang in its teardown (see README.md, "Deadlines"), and one process times
    steadier than two workers on a shared 2-core host.
    """
    attempted = failed = retries = 0
    busy_s = task_s = 0.0
    unit_s, frames, task_rounds = [], {}, {}
    problems, digest = [], None
    campaign = build_campaign(spec, seed)
    tasks = len(campaign.points) * campaign.replications
    while busy_s < seconds:
        # A fresh checkpoint per round: an existing one would be resumed.
        checkpoint = os.path.join(work_dir, f"campaign-{attempted // tasks}.ckpt.json")
        start = time.perf_counter()
        try:
            result = campaign.run(workers=1, checkpoint_path=checkpoint)
        except Exception as exc:  # noqa: BLE001 - a failed campaign is counted
            result = None
            bad_count, bad = tasks, [f"{type(exc).__name__}: {exc}"]
        else:
            bad_count, bad = check_campaign(result)
            retries += result.executor_stats.get("retries", 0)
        wall_s = time.perf_counter() - start
        busy_s += wall_s
        attempted += tasks
        failed += bad_count
        problems.extend(bad)
        round_frames, round_task_s = {}, {}
        for state in recorder.task_states:
            key, one_task_s = state.pop("key"), state.pop("task_s")
            task_s += one_task_s
            round_frames[key] = state["frame_s"]
            round_task_s[key] = one_task_s
            recorder.merge(state)
        recorder.task_states.clear()
        if bad_count:
            continue
        unit_s.append(wall_s)
        for key, one_task_s in round_task_s.items():
            frames.setdefault(key, []).append(round_frames[key])
            task_rounds.setdefault(key, []).append(one_task_s)
        if digest is None:
            reps = [m for p in result.points for m in p.replications.values()]
            digest = {
                "grant_rate_mean": statistics.fmean(m["grant_rate"] for m in reps),
                "completed_calls": sum(m["completed_calls"] for m in reps),
            }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "busy_s": busy_s,
        "digest": digest,
        "unit_s": {"campaign": unit_s} if unit_s else {},
        "unit_reps": {"campaign": tasks},
        "frame_s": frames,
        "task_rounds": task_rounds,
        "task_s": task_s,
        "retries": retries,
    }


# -- metrics ----------------------------------------------------------------------
def calibration_ms(repeats: int = 40) -> float:
    """Median ms of a fixed multiply-reduce the size of a 127-cell J x K.

    2286 users by 127 cells: the paper's per-cell density on six rings.

    A drift diagnostic of the host, not a metric of the program.
    """
    rng = np.random.default_rng(12345)
    gains = rng.random((2286, 127))
    power = rng.random(127)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        (gains * power).sum(axis=1)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def peak_rss_mb() -> float:
    """Peak RSS of this process and of every reaped child, in MB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6


def end_to_end(raw: dict) -> dict:
    """The end-to-end metrics of a run, except ``setup_s``.

    Each replication (or campaign) ran once per round on the same seed, so
    every frame, task and replication has one host time per round; the
    metrics use the fastest of them, which filters out slow spells of a
    shared host.
    """
    best_frames = {
        key: np.min(np.asarray(rounds), axis=0) for key, rounds in raw["frame_s"].items()
    }
    best_s = {}
    for key, times in raw["unit_s"].items():
        if key == "campaign":
            # The campaign's wall time outside its tasks (journal, reducer)
            # from its fastest round, plus every task's fastest round.
            tasks = raw["task_rounds"].values()
            outside = min(wall - sum(t[r] for t in tasks) for r, wall in enumerate(times))
            best_s[key] = outside + sum(min(t) for t in tasks)
        else:
            # A replication's time outside its timed frames (build, warm-up,
            # summary) is taken from its fastest round, like each frame.
            rounds = raw["frame_s"][key]
            outside = min(t - sum(f) for t, f in zip(times, rounds))
            best_s[key] = outside + best_frames[key].sum()
    frames_ms = [1e3 * frames for frames in best_frames.values()]
    frames_ms = np.concatenate(frames_ms) if frames_ms else np.zeros(0)
    if not best_s or not frames_ms.size:
        # Nothing succeeded: the run reports failure, not speed.
        names = ("reps_per_s", "frames_per_s", "frame_ms_p50", "frame_ms_tail")
        return dict(dict.fromkeys(names, 0.0), tail_percentile=0.0, frames=0, rounds=0)
    tail_pct, tail_ms = tracing.tail_percentile(frames_ms)
    return {
        "reps_per_s": sum(raw["unit_reps"][k] for k in best_s) / sum(best_s.values()),
        "frames_per_s": frames_ms.size / (1e-3 * frames_ms.sum()),
        "frame_ms_p50": float(np.median(frames_ms)),
        "frame_ms_tail": tail_ms,
        "tail_percentile": tail_pct,
        "frames": int(frames_ms.size),
        "rounds": max(len(times) for times in raw["unit_s"].values()),
    }


def layer_metrics(tracer, raw: dict) -> dict:
    """Per-layer metrics of a traced run (see ``README.md`` for the map)."""
    frames = len(tracer.frame_s)
    frame_s = sum(tracer.frame_s)
    c = tracer.counters
    s = tracer.self_s
    decisions = c["admission.decisions"]

    def per_frame_ms(seconds):
        return 1e3 * seconds / frames

    def ratio(a, b):
        return a / b if b else 0.0

    # Spans with child spans report their self time as ``self_ms_per_frame``.
    out = {
        name + (".self_ms_per_frame" if name in tracing.PARENT_SPANS else ".ms_per_frame"):
        per_frame_ms(s[name])
        for name in tracing.SPAN_NAMES
    }
    attributed = sum(s.values())
    solve_pct, solve_tail_s = (
        tracing.tail_percentile(tracer.solve_s) if tracer.solve_s else (0.0, 0.0)
    )
    out.update(
        {
            "trace.frame_ms_mean": per_frame_ms(frame_s),
            "unattributed.ms_per_frame": per_frame_ms(frame_s - attributed),
            "unattributed_frac": (frame_s - attributed) / frame_s,
            "linkgain.ns_per_link": 1e9 * ratio(s["linkgain"], c["linkgain.links"]),
            "handoff.events_per_frame": c["handoff.events"] / frames,
            "pc_reverse.iters_mean": ratio(c["pc_reverse.iters"], c["pc_reverse.solves"]),
            "pc_reverse.at_cap_frac": ratio(c["pc_reverse.at_cap"], c["pc_reverse.solves"]),
            "pc_forward.iters_mean": ratio(c["pc_forward.iters"], c["pc_forward.solves"]),
            "pc_forward.at_cap_frac": ratio(c["pc_forward.at_cap"], c["pc_forward.solves"]),
            "measure.ms_per_decision": 1e3 * ratio(s["measure"], decisions),
            "admission.decisions_per_frame": decisions / frames,
            "admission.requests_per_decision": ratio(c["admission.requests"], decisions),
            "admission.grant_frac": ratio(c["admission.grants"], c["admission.requests"]),
            "solve.ms_per_decision": 1e3 * ratio(s["solve"], decisions),
            "solve.ms_tail": 1e3 * solve_tail_s,
            "solve.tail_percentile": solve_pct,
            "solve.optimal_frac": ratio(c["solve.optimal"], decisions),
            "executor.task_s_sum": raw.get("task_s", 0.0),
            "executor.busy_frac": ratio(raw.get("task_s", 0.0), raw["busy_s"])
            if "task_s" in raw
            else 0.0,
            "executor.retries": raw.get("retries", 0),
            "journal.appends": len(tracer.journal_append_s),
            "journal.append_ms_p50": 1e3 * statistics.median(tracer.journal_append_s)
            if tracer.journal_append_s
            else 0.0,
            "journal.compact_ms": 1e3 * statistics.fmean(tracer.journal_compact_s)
            if tracer.journal_compact_s
            else 0.0,
        }
    )
    return out
