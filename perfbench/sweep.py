"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --traced-seeds 1-3 --out perfbench/baseline.json

Run from the root of a source checkout.  For every workload of
BENCHMARK.json it runs ``run.py`` for the file's ``run_seconds``, untraced
for each of ``--seeds`` and traced for each of ``--traced-seeds``.  Per
metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound.
``--out`` writes every run and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--traced-seeds", default="", help="seeds of the traced runs")
    parser.add_argument("--out", default=None, help="write runs and summary as JSON here")
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    plan = [(seed, 0) for seed in seed_list(args.seeds)]
    if args.traced_seeds:
        plan += [(seed, 1) for seed in seed_list(args.traced_seeds)]
    report = {"seconds": bench["run_seconds"], "runs": plan, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed, trace in plan:
            started = time.monotonic()
            result = run_once(workload, seed, bench["run_seconds"], trace)
            wall = time.monotonic() - started
            detail = json.loads((Path(".perfbench_out") / workload / "result.json").read_text())
            detail.pop("metrics")
            detail.pop("setup_runs", None)
            runs.append({"seed": seed, "trace": trace, "wall_s": wall, **result, "detail": detail})
            print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}, {wall:.1f} s", flush=True)
        summary = {}
        for trace in sorted({t for _, t in plan}):
            chosen = [r for r in runs if r["trace"] == trace]
            for name in chosen[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in chosen]
                summary[name] = summarize(values) if len(values) > 1 else {"median": values[0]}
                summary[name]["unit"] = chosen[0]["metrics"][name]["unit"]
                if name in bounds:
                    s = summary[name].get("spread")
                    print(f"  {name}: median {summary[name]['median']:.6g} "
                          f"{summary[name]['unit']}, spread {s:.4f} (bound {bounds[name]})"
                          if s is not None else f"  {name}: {values}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
