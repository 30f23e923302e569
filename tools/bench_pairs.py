"""Run the benchmark on a base revision and on the working tree, in alternating pairs.

Usage, from the root of the repository::

    python tools/bench_pairs.py --base REV [--workloads NAME ...] [--seeds 111-120]
        [--claim WORKLOAD:METRIC ...]

For each workload (default: every workload of ``BENCHMARK.json``) and each
seed, ``perfbench/run.py --trace 0`` runs once on a ``git archive`` of
``--base`` and once on the working tree: the base first at the first seed,
the working tree first at the second, and so on, so that a drift of the
machine's speed does not favour either side.  Each run lasts
``BENCHMARK.json``'s ``run_seconds``.  The runs are sequential.

Per workload and end-to-end metric it prints both sides' medians and
quartiles (``statistics.quantiles(values, n=4)``), the relative move of the
median, the pairs the working tree won, and a verdict.  Each metric is
checked against its bound from ``BENCHMARK.json``: the working tree's median
may be worse than the base's by at most that share of the base's median.
A metric is ``unresolved``, and fails, when fewer than 10 pairs ran, or when
the distance between the base's quartiles is more than that share of its
median, unless every working-tree run is better than every base run: such
runs spread too widely to tell a move within the bound.  The share of
failed operations may not grow, and every run must report ``correct``.
Each ``--claim`` is checked by the claim rule: at least 10 pairs ran, the
working tree wins at least 9 of 10 of them, and its median is better than
the base's by more than the distance between the base's quartiles.

The base is exported into a temporary directory, removed on exit.  The runs
write only where ``run.py`` writes, ``.perfbench_out/`` of each checkout.
Exits 0 when every bound and claim holds and 1 otherwise.  This is a tool,
not a test: the test suite does not run it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The share of pairs a claimed metric must win.
CLAIM_WINS = 0.9
#: The fewest pairs on which a bound or a claim is checked.
MIN_PAIRS = 10


def seed_list(text: str) -> list[int]:
    """``"111-120"`` or ``"3,5,8"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def export(rev: str, directory: Path) -> Path:
    """Write the tree of ``rev`` under ``directory``; return its path."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=zip", rev],
        check=True,
        capture_output=True,
    ).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zipped:
        zipped.extractall(directory)
    return directory


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py --trace 0`` in the checkout at ``root``: its last line, as JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a: float, b: float, higher: bool) -> bool:
    """Whether a is better than b."""
    return a > b if higher else a < b


def summarize(workload: str, pairs: list[tuple[dict, dict]], metrics: list[dict],
              claims: set[str]) -> list[str]:
    """Print the table of one workload; return the failed checks."""
    failures = []
    print(f"\n{workload}: {len(pairs)} pairs (base -> working tree)")
    for side, index in (("base", 0), ("working tree", 1)):
        runs = [pair[index] for pair in pairs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        incorrect = sum(not r["correct"] for r in runs)
        print(f"  {side}: {failed}/{attempted} operations failed, {incorrect} runs not correct")
        if index == 1 and incorrect:
            failures.append(f"{workload}: {incorrect} working-tree runs not correct")
    share = [sum(p[i]["failed"] for p in pairs) / sum(p[i]["attempted"] for p in pairs)
             for i in (0, 1)]
    if share[1] > share[0]:
        failures.append(f"{workload}: failed share {share[0]:.3g} -> {share[1]:.3g}")
    print(f"  {'metric':<16} {'base q1/median/q3':>32} {'working tree q1/median/q3':>32}"
          f" {'move':>8} {'wins':>6}  verdict")
    enough = len(pairs) >= MIN_PAIRS
    if not enough:
        failures.append(f"{workload}: {len(pairs)} pairs, fewer than {MIN_PAIRS}: unresolved")
    for metric in metrics:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base = [p[0]["metrics"][name]["value"] for p in pairs]
        head = [p[1]["metrics"][name]["value"] for p in pairs]
        bq, hq = quartiles(base), quartiles(head)
        wins = sum(better(h, b, higher) for b, h in zip(base, head))
        move = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        worse = -move if higher else move
        iqr = bq[2] - bq[0]
        separated = all(better(h, b, higher) for b in base for h in head)
        if worse > bound:
            verdict = "WORSE"
            failures.append(f"{workload} {name}: {move:+.2%}, worse than its bound {bound:.0%}")
        elif not enough:
            verdict = "unresolved"
        elif iqr > bound * abs(bq[1]) and not separated:
            verdict = "unresolved"
            failures.append(f"{workload} {name}: base IQR {iqr:.4g} is wider than its bound"
                            f" {bound:.0%} of the median {bq[1]:.4g}: unresolved")
        else:
            verdict = "ok"
        print(f"  {name:<16} {bq[0]:>10.4g} {bq[1]:>10.4g} {bq[2]:>10.4g}"
              f" {hq[0]:>10.4g} {hq[1]:>10.4g} {hq[2]:>10.4g} {move:>+8.2%}"
              f" {wins:>3}/{len(pairs)}  {verdict}")
        if f"{workload}:{name}" in claims:
            gap = (hq[1] - bq[1]) if higher else (bq[1] - hq[1])
            held = wins >= CLAIM_WINS * len(pairs) and gap > iqr
            claim = "unresolved" if not enough else "holds" if held else "FAILS"
            print(f"    claim: {wins}/{len(pairs)} wins, median gap {gap:.4g} against the base's"
                  f" IQR {iqr:.4g}: {claim}")
            if claim != "holds":
                failures.append(f"claim {workload}:{name}: {claim}")
    return failures


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="111-120", help="e.g. 111-120 or 3,5,8")
    parser.add_argument("--claim", nargs="*", default=[], metavar="WORKLOAD:METRIC",
                        help="metrics the working tree claims to improve")
    args = parser.parse_args(argv)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_root = export(args.base, Path(tmp))
        for workload in args.workloads:
            pairs = []
            for k, seed in enumerate(seed_list(args.seeds)):
                order = ((0, base_root), (1, ROOT)) if k % 2 == 0 else ((1, ROOT), (0, base_root))
                pair: list[dict] = [{}, {}]
                for index, root in order:
                    pair[index] = run(root, workload, seed, bench["run_seconds"])
                pairs.append((pair[0], pair[1]))
                print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
            failures += summarize(workload, pairs, bench["end_to_end"], set(args.claim))
    print()
    for failure in failures:
        print(f"FAILED: {failure}")
    print("every bound and claim holds" if not failures else f"{len(failures)} checks failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
