"""Benchmark of the gkslgraph CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload kernel_blocks --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout.  It generates the workload's spec
files from the seed under ``.perfbench_out/<workload>/``, and measures set-up
in fresh interpreters before and after the measuring process
(``bench_worker.py``), which feeds the files one at a time to
``gkslgraph.cli.main`` for ``--seconds`` seconds.  Command times are
normalised by a speed probe timed next to each command.  Afterwards every
output is checked against the benchmark's own reference (``bench_check.py``).
BLAS and OpenMP are pinned to one thread.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer metrics from a traced run (``bench_trace.py``) and the tracing
overhead.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Set before numpy loads, in this process and the measuring ones.
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
WORKER = HERE / "bench_worker.py"
#: Fresh interpreters that measure set-up, besides the measuring process;
#: half run before it and half after, so that they span the run.
SETUP_PROBES = 6
#: Every run, with its set-up and checks, must end within this many seconds.
RUN_LIMIT_S = 175.0
#: Seconds the worker's speed probe takes on the reference machine (2-vCPU
#: Intel Xeon VM, numpy with OpenBLAS on one thread).  Every command time is
#: scaled by this over the probe time measured next to it; see normalised().
PROBE_REFERENCE_S = 0.0017
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "specs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (not a failed command)."""


def parse_args(argv):
    import bench_specs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_specs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, root, timeout, capture=False) -> str:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE if capture else None,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"measuring process exited with code {proc.returncode}")
    return proc.stdout if capture else ""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def normalised(wall_s: float, probe_s: float) -> float:
    """Wall time scaled to the reference machine speed.

    The machine's speed drifts by up to 2x over seconds.  The speed probe,
    a fixed piece of work timed right before and after each command, drifts
    with it, so ``wall_s * PROBE_REFERENCE_S / probe_s`` stays put while a
    change to the program still moves it one for one.
    """
    return wall_s * PROBE_REFERENCE_S / probe_s


def per_spec_latency(phase) -> list[list[float]]:
    """Each spec's normalised timed runs."""
    return [
        [normalised(w, p) for w, p in zip(walls, probes)]
        for walls, probes in zip(phase["samples"], phase["probes"])
    ]


def paired_overhead(untraced, traced) -> float:
    """Mean over specs of the mean traced-minus-untraced difference of the
    pairs that ran back to back.  Each order ran equally often, so the
    advantage of running second in a pair cancels."""
    return statistics.fmean(
        statistics.fmean(t - u for u, t in zip(us, ts)) for us, ts in zip(untraced, traced)
    )


def warmup_excess(warmup, latencies) -> float:
    """Normalised time of the warm-up commands above the median of their
    timed runs: the first-call work that the set-up cache fill did not take."""
    return sum(
        normalised(w["wall_s"], w["probe_s"]) - statistics.median(latencies[w["command"]])
        for w in warmup
    )


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it, nearest rank; the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


def check_cases(cases, workload, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every timed command of the run."""
    import bench_check
    import bench_specs

    problems = []
    verified = {}
    for case in cases:
        data = case.out_path.read_bytes() if case.out_path.is_file() else b""
        text = data.decode(errors="replace")
        found = bench_check.check_output(
            text,
            workload.command,
            case.N,
            case.reference,
            expected_method=workload.expected_method,
            expect_invariant=case.expect_invariant,
            times=bench_specs.CHECK_TIMES,
        )
        for problem in found:
            problems.append(f"{case.spec_path.name}: {problem}")
        if not found:
            verified[case.index] = hashlib.sha256(data).hexdigest()
    attempted = failed = 0
    for phase in result["phases"].values():
        for idx, (codes, digests) in enumerate(zip(phase["codes"], phase["digests"])):
            for code, dig in zip(codes, digests):
                attempted += 1
                if code != 0 or dig is None or dig != verified.get(idx):
                    failed += 1
        for err in phase["errors"]:
            problems.append(f"command {err['command']}: {err['error'].strip()}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root, args, workload, worker_env) -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **worker_env,
        "threads": PINNED_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(root),
        "workload": workload.name,
        "command": workload.command,
        "format": workload.spec_format,
        "n_mix": {str(N): count for N, count in sorted(workload.mix.items())},
        "spec_count": workload.spec_count,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.monotonic()
    os.environ.update(PINNED_THREADS)
    root = Path.cwd()
    if not (root / "src" / "gkslgraph" / "cli.py").is_file():
        print(f"error: {root} holds no gkslgraph source tree (src/gkslgraph)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)

    import bench_specs
    import bench_trace

    workload = bench_specs.WORKLOADS[args.workload]
    work = root / ".perfbench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = bench_specs.generate(workload, args.seed, work)

    sizes = sorted(workload.mix)
    plan = {
        "sizes": sizes,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "result": str(work / "worker_result.json"),
        "commands": [{"argv": c.argv, "N": c.N, "out": str(c.out_path)} for c in cases],
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))

    def probe_setup():
        out = run_child([str(plan_path), "--setup-only"], root, timeout=60, capture=True)
        return json.loads(out.strip().splitlines()[-1])

    setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    # Leave time for the set-up probes and the checks that follow.
    run_child([str(plan_path)], root, timeout=max(remaining - 30.0, 1.0))
    result = json.loads(Path(plan["result"]).read_text())
    setups.append(result["setup"])
    setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    attempted, failed, problems = check_cases(cases, workload, result)
    env = environment(root, args, workload, result["environment"])

    untraced_samples = per_spec_latency(result["phases"]["untraced"])
    untraced = [statistics.median(s) for s in untraced_samples]
    excess = warmup_excess(result["warmup"], untraced_samples)
    report = {
        "environment": env,
        "failed_fraction": failed / attempted,
        "problems": problems,
        "warmup_excess_s": excess,
    }
    lines = []
    if not args.trace:
        tail_value, tail_pct = tail(untraced)
        passes = [len(s) for s in untraced_samples]
        metrics = {
            "specs_per_s": len(untraced) / sum(untraced),
            "latency_p50_s": statistics.median(untraced),
            "latency_tail_s": tail_value,
            "peak_rss_mb": result["maxrss_kb"] * 1024 / 1e6,
            "setup_s": statistics.median(s["import_s"] + s["cache_fill_s"] for s in setups),
        }
        units = E2E_UNITS
        report["latency_tail_percentile"] = tail_pct
        report["latency_samples"] = len(untraced)
        report["runs_per_spec"] = [min(passes), max(passes)]
        report["setup_runs"] = setups
        lines.append(f"warm-up excess over the median timed runs = {excess:.6g} s")
        lines.append(
            f"latency: per-spec median of {min(passes)}-{max(passes)} normalised runs, "
            f"{len(untraced)} specs; tail = p{tail_pct:.1f} "
            f"({TAIL_BEYOND} specs beyond it)"
        )
    else:
        traced = result["phases"]["traced"]
        commands = sum(len(s) for s in traced["samples"])
        input_bytes = sum(c.input_bytes * len(s) for c, s in zip(cases, traced["samples"]))
        output_bytes = sum(
            (c.out_path.stat().st_size if c.out_path.is_file() else 0) * len(s)
            for c, s in zip(cases, traced["samples"])
        )
        metrics = bench_trace.layer_metrics(
            result["trace"],
            commands=commands,
            kernel_requests=commands if workload.command == "kernel" else 0,
            input_bytes=input_bytes / commands,
            output_bytes=output_bytes / commands,
        )
        metrics["setup.warmup_excess_s"] = excess
        metrics["trace.overhead_s"] = paired_overhead(untraced_samples, per_spec_latency(traced))
        units = bench_trace.LAYER_UNITS
        lines.append(
            f"traced: {commands} commands, each paired with an untraced run of the same "
            f"command; overhead = per-spec mean of traced minus untraced time, "
            f"averaged over {len(cases)} specs"
        )

    lines.insert(
        0,
        f"workload {workload.name} ({workload.command}, {workload.spec_format}), "
        f"N mix {env['n_mix']}, seed {args.seed}, {env['cpu']}, nproc {env['nproc']}, "
        f"threads pinned to 1",
    )
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    lines.append(f"failed_fraction = {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in problems[:20]:
        lines.append(f"problem: {problem}")
    report["metrics"] = metrics
    (work / "result.json").write_text(json.dumps(report, indent=2))
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
