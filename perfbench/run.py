"""Repo benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_k19 --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable table and diagnostics.  Every measurement runs in a fresh
child process with single-threaded BLAS; outputs land in ``perfbench/out/``.
See ``README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("paper_k19", "campaign_f2")
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 6
#: Deadlines of one set-up probe and of the timed window beyond ``--seconds``;
#: with them a hung child cannot keep a run past its 180 s limit.
SETUP_TIMEOUT_S = 15
MEASURE_GRACE_S = 60

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "reps_per_s": "1/s",
    "frames_per_s": "1/s",
    "frame_ms_p50": "ms",
    "frame_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "mobility.ms_per_frame": "ms/frame",
    "linkgain.ms_per_frame": "ms/frame",
    "linkgain.ns_per_link": "ns/link",
    "handoff.ms_per_frame": "ms/frame",
    "handoff.events_per_frame": "1/frame",
    "network_advance.self_ms_per_frame": "ms/frame",
    "pc_reverse.ms_per_frame": "ms/frame",
    "pc_forward.ms_per_frame": "ms/frame",
    "pc_reverse.iters_mean": "iterations",
    "pc_forward.iters_mean": "iterations",
    "pc_reverse.at_cap_frac": "frac",
    "pc_forward.at_cap_frac": "frac",
    "snapshot.self_ms_per_frame": "ms/frame",
    "admission.self_ms_per_frame": "ms/frame",
    "admission.decisions_per_frame": "1/frame",
    "admission.requests_per_decision": "1/decision",
    "admission.grant_frac": "frac",
    "measure.ms_per_frame": "ms/frame",
    "measure.ms_per_decision": "ms/decision",
    "solve.ms_per_frame": "ms/frame",
    "solve.ms_per_decision": "ms/decision",
    "solve.ms_tail": "ms",
    "solve.optimal_frac": "frac",
    "unattributed.ms_per_frame": "ms/frame",
    "unattributed_frac": "frac",
    "trace.frame_ms_mean": "ms/frame",
    "trace.overhead_frac": "frac",
    "executor.task_s_sum": "s",
    "executor.busy_frac": "frac",
    "executor.retries": "count",
    "journal.appends": "count",
    "journal.append_ms_p50": "ms",
    "journal.compact_ms": "ms",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p),
    )
    return env


def child_command(role: str, args, *extra) -> list:
    return [
        sys.executable,
        os.path.abspath(__file__),
        "--role",
        role,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]


def scratch_dir(pid: int) -> str:
    """Scratch directory of the child with process id ``pid``.

    The parent removes it once the child has ended, killed or not.
    """
    return os.path.join(OUT, f"scratch-{pid}")


# -- roles run in fresh child processes -------------------------------------------
def role_setup(args) -> None:
    """Cold set-up: imports and build, then ``READY`` on standard output.

    The parent kills the probe's process group once it has read ``READY``.
    """
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    if spec["kind"] == "dynamic":
        workloads.build_simulator(spec, workloads.rep_seed(args.seed, 0))
    else:
        workloads.build_campaign(spec, args.seed)
    print("READY", flush=True)


def role_measure(args) -> None:
    """The timed window; prints one JSON line of raw results."""
    import gc

    import tracing
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    campaign = spec["kind"] == "campaign"
    recorder_cls = tracing.Tracer if args.traced else tracing.FrameClock
    # The campaign runs as a user's would: no forced collections.
    recorder = recorder_cls(spec["warmup_s"], collect_garbage=not campaign).install()
    calib_before = workloads.calibration_ms()
    gc.collect()
    if campaign:
        work_dir = scratch_dir(os.getpid())
        os.makedirs(work_dir)
        raw = workloads.measure_campaign(spec, args.seed, args.seconds, recorder, work_dir)
    else:
        raw = workloads.measure_dynamic(spec, args.seed, args.seconds, recorder)
    calib_after = workloads.calibration_ms()
    recorder.uninstall()
    raw.update(workloads.end_to_end(raw))
    for bulky in ("unit_s", "frame_s"):
        raw.pop(bulky)
    raw["peak_rss_mb"] = workloads.peak_rss_mb()
    raw["calib_ms"] = [calib_before, calib_after]
    if args.traced:
        raw["layers"] = workloads.layer_metrics(recorder, raw)
        os.makedirs(OUT, exist_ok=True)
        recorder.write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
    print(json.dumps(raw), flush=True)


# -- orchestration ----------------------------------------------------------------
def spawn(command) -> subprocess.Popen:
    """A child in a session of its own, so that what it starts dies with it."""
    return subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, start_new_session=True
    )


def kill_group(proc: subprocess.Popen) -> None:
    """Kill ``proc`` with every process of its session, wait, tidy up."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()
    shutil.rmtree(scratch_dir(proc.pid), ignore_errors=True)


def setup_probe(args) -> float:
    """Seconds from spawning a fresh process to its ``READY`` line."""
    start = time.perf_counter()
    proc = spawn(child_command("setup", args))
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
        line = proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
    finally:
        kill_group(proc)
    if line.strip() != b"READY":
        raise RuntimeError("set-up probe failed or timed out")
    return elapsed


def measure(args, seconds: float, traced: bool) -> dict:
    command = child_command("measure", args, "--seconds", str(seconds), "--traced", str(int(traced)))
    proc = spawn(command)
    try:
        out, _ = proc.communicate(timeout=seconds + MEASURE_GRACE_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"measurement did not finish within {seconds + MEASURE_GRACE_S:g} s")
    finally:
        kill_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"measurement failed (exit {proc.returncode})")
    return json.loads(out.decode().strip().splitlines()[-1])


def orchestrate(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise RuntimeError(f"no simulator sources at {SRC}")
    if args.trace:
        # Half the time untraced, half traced: the ratio is the overhead.
        untraced = measure(args, args.seconds / 2, traced=False)
        raw = measure(args, args.seconds / 2, traced=True)
        metrics = dict(raw["layers"])
        metrics["trace.overhead_frac"] = 1.0 - raw["frames_per_s"] / untraced["frames_per_s"]
        units = PER_LAYER
        runs = [untraced, raw]
    else:
        # Half the set-up probes before the timed window, half after it, so
        # that one slow spell of a shared host does not hold all of them.
        setups = [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
        raw = measure(args, args.seconds, traced=False)
        setups += [setup_probe(args) for _ in range(SETUP_PROBES - len(setups))]
        metrics = {name: raw[name] for name in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        raw["setup_probes_s"] = setups
        units = END_TO_END
        runs = [raw]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "raw": raw,
    }


def report(args, result: dict) -> None:
    raw = result.pop("raw")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12s} {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"failed_frac {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} replications)"
    )
    if not args.trace:
        print(
            f"frame_ms_tail is p{raw['tail_percentile']:g} over {raw['frames']} frames, "
            f"fastest of {raw['rounds']} rounds"
        )
    print(f"calib_ms before {raw['calib_ms'][0]:.4f} after {raw['calib_ms'][1]:.4f}")
    print(f"digest seed={args.seed} {json.dumps(raw['digest'], sort_keys=True)}")
    for problem in raw["problems"]:
        print(f"problem: {problem}")
    os.makedirs(OUT, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, raw=raw)
    with open(
        os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w"
    ) as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(result), flush=True)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"), default="run")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        role_setup(args)
    elif args.role == "measure":
        role_measure(args)
    else:
        try:
            result = orchestrate(args)
        except (RuntimeError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
