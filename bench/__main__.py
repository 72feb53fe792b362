"""Benchmark runner.

One measurement, the form ``BENCHMARK.json``'s command takes::

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1

repeats passes of the workload, each in a fresh child interpreter, until
``S`` seconds are spent (at least :data:`MIN_PASSES`), and prints one
JSON object as the last line of stdout.  ``--trace 0`` reports the
medians of the end-to-end metrics over untraced passes; ``--trace 1``
alternates untraced, layer-profiled and repository-traced passes and
reports the per-layer metrics.

A full run over the workloads, for people and for ``bench/compare.py``::

    python3 -m bench run --seed N [--repeat R] [--workload NAME] [--out FILE]

makes ``R`` untraced passes per workload, then one layer-profiled and
one repository-traced pass, prints every metric with its unit, median
and quartiles, and writes them to ``FILE`` as JSON.

Every pass checks its outputs: every submitted job finishes, and the
simulated outcome is identical across all passes of one seed, traced or
not.  Children run one at a time with ``OMP_NUM_THREADS=1``, so at most
one core is busy.  The runner itself never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from bench.child import REFERENCE_CHUNK_S
from bench.stats import MIN_BEYOND, samples_beyond, summary

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "repro" / "__init__.py"

#: Fewest untraced passes whose median a measurement reports.
MIN_PASSES = 3
#: A pass that runs longer than this is killed and the measurement fails.
PASS_TIMEOUT_S = 120.0
#: Per-layer metrics that are host times, hence medians over passes;
#: every other per-layer value must repeat exactly.
HOST_TIME_SUFFIX = ".self_s"


class PassFailed(RuntimeError):
    """A child pass exited abnormally or printed no result."""


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Let bytecode caches fill on the first pass, so later passes time
    # imports the way a user's repeated runs see them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pass(workload: str, seed: int, mode: str) -> dict:
    """One pass in a child interpreter; returns its result object."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [
                sys.executable, "-m", "bench.child",
                "--workload", workload, "--seed", str(seed), "--mode", mode,
                "--spawned-at", repr(spawned_at),
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(
            f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S:.0f}s"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(
            f"{workload} {mode} pass exited with code {proc.returncode}"
        )
    return json.loads(lines[-1])


def run_rounds(
    workload: str,
    seed: int,
    modes: tuple[str, ...],
    rounds: Optional[int] = None,
    seconds: Optional[float] = None,
    min_rounds: int = 1,
) -> dict[str, list[dict]]:
    """Repeat one pass per mode, ``rounds`` times or until ``seconds``.

    With a time budget, a round is started only while the median round
    so far still fits, so a measurement overruns its budget by little.
    """
    passes: dict[str, list[dict]] = {mode: [] for mode in modes}
    durations: list[float] = []
    start = time.monotonic()
    while True:
        done = len(durations)
        if rounds is not None and done >= rounds:
            break
        if seconds is not None and done >= min_rounds:
            if time.monotonic() - start + statistics.median(durations) > seconds:
                break
        began = time.monotonic()
        for mode in modes:
            passes[mode].append(run_pass(workload, seed, mode))
        durations.append(time.monotonic() - began)
    return passes


def end_to_end(spec: dict, plain: list[dict]) -> dict[str, list[float]]:
    """Each end-to-end metric's value in every untraced pass (host
    metrics sit at the top of a pass, simulated ones under ``sim``)."""
    names = [m["name"] for m in spec["end_to_end"]]
    return {
        name: [p[name] if name in p else p["sim"][name] for p in plain]
        for name in names
    }


def per_layer(spec: dict, passes: dict[str, list[dict]]) -> dict[str, float]:
    """The per-layer metrics: profiled counts and self times (medians
    over profiled passes), record-derived values and tracing overheads."""
    plain, layers, obs = passes["plain"], passes["layers"], passes["obs"]
    untraced_wall = statistics.median(p["wall_s"] for p in plain)
    values = {k: v for k, v in plain[0]["sim"].items() if isinstance(v, (int, float))}
    for key in layers[0]["layers"]:
        values[key] = statistics.median(p["layers"][key] for p in layers)
    values["bench.trace_overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in layers) / untraced_wall
    )
    values["obs.tracer_overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in obs) / untraced_wall
    )
    return {m["name"]: values[m["name"]] for m in spec["per_layer"]}


def problems(passes: dict[str, list[dict]]) -> list[str]:
    """Output checks over every pass of one workload and seed."""
    found = []
    everything = [p for mode_passes in passes.values() for p in mode_passes]
    reference = everything[0]["sim"]
    for p in everything:
        sim = p["sim"]
        if sim["jobs_finished"] != sim["jobs_attempted"]:
            found.append(
                f"{p['mode']} pass finished {sim['jobs_finished']} of "
                f"{sim['jobs_attempted']} jobs"
            )
        if samples_beyond(sim["job_n"], 0.95) < MIN_BEYOND:
            found.append(
                f"{p['mode']} pass: job_p95_s rests on {sim['job_n']} jobs, "
                f"fewer than {MIN_BEYOND} beyond it"
            )
        if sim != reference:
            changed = sorted(k for k in sim if sim[k] != reference.get(k))
            found.append(f"{p['mode']} pass changed the simulated outcome: {changed}")
    profiled = passes.get("layers", [])
    if any(p["layers"]["bench.events_total"] != p["sim"]["events"] for p in profiled):
        found.append("layer profiler missed engine events")
    if any(_counts(p["layers"]) != _counts(profiled[0]["layers"]) for p in profiled):
        found.append("per-layer counts differ between profiled passes")
    return found


def _counts(layers: dict) -> dict:
    """The profiler values that must repeat exactly (all but times)."""
    return {k: v for k, v in layers.items() if not k.endswith(HOST_TIME_SUFFIX)}


def jobs_tally(passes: dict[str, list[dict]]) -> tuple[int, int]:
    """(jobs attempted, jobs not finished) over every pass."""
    sims = [p["sim"] for mode_passes in passes.values() for p in mode_passes]
    attempted = sum(s["jobs_attempted"] for s in sims)
    return attempted, attempted - sum(s["jobs_finished"] for s in sims)


def measure(
    spec: dict, workload: str, seed: int, seconds: float, trace: bool
) -> dict:
    """One measurement: the result object it prints."""
    if trace:
        passes = run_rounds(
            workload, seed, ("plain", "layers", "obs"), seconds=seconds
        )
        values = per_layer(spec, passes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        passes = run_rounds(
            workload, seed, ("plain",), seconds=seconds, min_rounds=MIN_PASSES
        )
        values = {
            name: statistics.median(v)
            for name, v in end_to_end(spec, passes["plain"]).items()
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    found = problems(passes)
    for problem in found:
        print(f"{workload}: {problem}", file=sys.stderr)
    attempted, failed = jobs_tally(passes)
    return {
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(spec: dict, workload: str, seed: int, repeat: int) -> dict:
    """``repeat`` untraced passes, then one profiled and one traced pass."""
    passes = run_rounds(workload, seed, ("plain",), rounds=repeat)
    passes.update(run_rounds(workload, seed, ("layers", "obs"), rounds=1))
    found = problems(passes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return {
        "correct": not found,
        "problems": found,
        "job_n": passes["plain"][0]["sim"]["job_n"],
        "calibration_s": summary([p["calibration_s"] for p in passes["plain"]]),
        "end_to_end": {
            name: {"unit": units[name], "values": values, **summary(values)}
            for name, values in end_to_end(spec, passes["plain"]).items()
        },
        "per_layer": per_layer(spec, passes),
    }


def print_workload(name: str, result: dict, spec: dict) -> None:
    print(f"== {name}")
    print(
        f"   host times at reference speed; calibration chunk median "
        f"{result['calibration_s']['median']:.4f} s (reference "
        f"{REFERENCE_CHUNK_S} s)"
    )
    print(f"   {'metric':24s} {'unit':7s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for metric, s in result["end_to_end"].items():
        note = f"  (n={result['job_n']} jobs)" if metric.startswith("job_p") else ""
        print(
            f"   {metric:24s} {s['unit']:7s} {s['median']:12.6g} {s['q1']:12.6g} "
            f"{s['q3']:12.6g}{note}"
        )
    layers = result["per_layer"]
    total_events = sum(v for k, v in layers.items() if k.endswith(".events"))
    total_self = sum(v for k, v in layers.items() if k.endswith(HOST_TIME_SUFFIX))
    print("   -- per layer (one profiled pass; self time is host seconds)")
    print(
        f"   {'layer':16s} {'events':>10s} {'share':>7s} {'self_s':>9s} "
        f"{'share':>7s}"
    )
    for key, events in layers.items():
        if not key.endswith(".events"):
            continue
        layer = key[: -len(".events")]
        self_s = layers[layer + HOST_TIME_SUFFIX]
        print(
            f"   {layer:16s} {events:10d} {events / max(total_events, 1):7.1%} "
            f"{self_s:9.3f} {self_s / max(total_self, 1e-12):7.1%}"
        )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for key, value in layers.items():
        if not key.endswith((".events", HOST_TIME_SUFFIX)):
            print(f"   {key:42s} {value:12.6g} {units[key]}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem}")


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not PROGRAM.is_file():
        print(f"bench: the program is missing ({PROGRAM} not found)", file=sys.stderr)
        return 2
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="python3 -m bench run")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--repeat", type=int, default=5)
        parser.add_argument("--workload", choices=names, action="append")
        parser.add_argument("--out", type=Path)
        args = parser.parse_args(argv[1:])
        if args.seed < 0 or args.repeat < 1:
            parser.error("--seed must be >= 0 and --repeat >= 1")
        report = {
            "seed": args.seed,
            "repeat": args.repeat,
            "machine": machine_info(),
            "workloads": {},
        }
        for name in args.workload or names:
            report["workloads"][name] = result = run_workload(
                spec, name, args.seed, args.repeat
            )
            print_workload(name, result, spec)
        if args.out is not None:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
        return 0 if all(w["correct"] for w in report["workloads"].values()) else 1
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except PassFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
