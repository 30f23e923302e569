"""The benchmark's measuring process: one client, closed loop, in-process CLI.

Run as ``python bench_worker.py PLAN.json [--setup-only]`` with ``src`` on
``PYTHONPATH``.  The plan (written by ``run.py``) lists the CLI commands.
The process

1. times ``import gkslgraph.cli`` and the fill of every ``lru_cache``d
   table of the package for each distinct ``N`` (this is set-up; with
   ``--setup-only`` it prints these two times as JSON and exits);
2. runs one warm-up command per distinct ``N`` and records its wall time;
3. sends the commands one after another through ``gkslgraph.cli.main``,
   cycling over the list until the plan's seconds have passed and every
   command ran at least once, timing each call from argument parsing to
   the emitted JSON file, and times the speed probe (:class:`SpeedProbe`)
   between every two commands;
4. with ``trace`` set, runs every command of step 3 twice in a row, once
   untraced and once traced, alternating which goes first from pass to
   pass, so that both timings of a pair see the same machine state;
5. writes timings, exit codes, output digests, peak RSS and spans to the
   plan's result file.

Only the stdlib is imported before the timed import of ``gkslgraph``.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import resource
import sys
import time
import traceback


def cached_tables(package) -> list[tuple[object, str, int]]:
    """(module, name, arity) of every ``lru_cache``d function of the package.

    Set-up fills each table for every ``N`` of the workload, so a table must
    need no argument besides ``N``.  Any other cached function would be
    filled by the first timed command of its key, unseen by ``setup_s``;
    finding one stops the benchmark instead.
    """
    found = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != package.__name__:
            continue
        for attr, value in sorted(vars(module).items()):
            if not hasattr(value, "cache_info") or getattr(value, "__module__", None) != name:
                continue
            required = [
                p.name
                for p in inspect.signature(value).parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            ]
            if required not in ([], ["N"]):
                raise SystemExit(
                    f"error: cannot fill the cache of {name}.{attr}{inspect.signature(value)} "
                    "during set-up: it needs arguments besides N"
                )
            found.append((module, attr, len(required)))
    return found


def fill_caches(tables, sizes) -> None:
    for module, attr, arity in tables:
        fn = getattr(module, attr)
        if arity == 0:
            fn()
        else:
            for N in sizes:
                fn(N)


def run_command(cli, argv) -> tuple[float, int, str | None]:
    """(wall seconds, exit code, error text) of one in-process CLI call."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        error = None
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code!r})"
    except Exception:  # a crash of the program is a failed command, not ours
        code = -1
        error = traceback.format_exc()
    return time.perf_counter() - start, code, error


def digest(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class SpeedProbe:
    """A fixed piece of work that never touches gkslgraph, timed between
    commands to follow the machine's speed: dense BLAS, an array stream and
    a JSON parse, the three kinds of work the CLI does.  The arrays are
    written in place, so the program's heap state cannot change the probe's
    cost."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matmul, self.multiply = np.matmul, np.multiply
        self.matrix = rng.random((64, 64))
        self.product = np.empty_like(self.matrix)
        self.stream = rng.random(1 << 18)
        self.scaled = np.empty_like(self.stream)
        self.text = json.dumps(rng.random((40, 40)).tolist())

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(12):
            self.matmul(self.matrix, self.matrix, out=self.product)
        self.multiply(self.stream, 2.0, out=self.scaled).sum()
        json.loads(self.text)
        return time.perf_counter() - start


def timed_loop(cli, commands, seconds, tracer=None) -> dict:
    """Closed loop over the commands for ``seconds``, at least one full pass.

    With a tracer, each command runs as a pair, untraced and traced, with
    the tracer installed only for the traced one; the loop then runs at
    least two passes.
    """
    phases = ["untraced", "traced"] if tracer is not None else ["untraced"]
    keys = ("samples", "probes", "codes", "digests")
    record = {phase: {key: [[] for _ in commands] for key in keys} for phase in phases}
    probe = SpeedProbe()
    probe_s = probe()
    errors = []
    deadline = time.perf_counter() + seconds
    # A traced loop ends after an even number of passes, so that each command
    # runs first in its pair as often traced as untraced.
    stride = 2 * len(commands) if tracer is not None else 1
    done = 0
    while done < len(commands) or time.perf_counter() < deadline or done % stride:
        idx = done % len(commands)
        order = phases if (done // len(commands)) % 2 == 0 else phases[::-1]
        for phase in order:
            if phase == "traced":
                tracer.spec_id = idx
                tracer.install()
            wall, code, error = run_command(cli, commands[idx]["argv"])
            if phase == "traced":
                tracer.uninstall()
            before, probe_s = probe_s, probe()
            record[phase]["samples"][idx].append(wall)
            record[phase]["probes"][idx].append((before + probe_s) / 2.0)
            record[phase]["codes"][idx].append(code)
            record[phase]["digests"][idx].append(digest(commands[idx]["out"]))
            if error is not None:
                errors.append({"command": idx, "phase": phase, "error": error})
        done += 1
    for phase in phases:
        record[phase]["errors"] = [e for e in errors if e["phase"] == phase]
    return record


def main(argv) -> int:
    with open(argv[1]) as fh:
        plan = json.load(fh)
    setup_only = "--setup-only" in argv[2:]
    sizes = plan["sizes"]

    start = time.perf_counter()
    import gkslgraph
    import gkslgraph.cli as cli

    import_s = time.perf_counter() - start
    tables = cached_tables(gkslgraph)
    tracer = None
    if plan["trace"] and not setup_only:
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    fill_caches(tables, sizes)
    cache_fill_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    setup = {"import_s": import_s, "cache_fill_s": cache_fill_s}
    if setup_only:
        print(json.dumps(setup))
        return 0

    commands = plan["commands"]
    probe = SpeedProbe()
    warmup = []
    for N in sizes:
        idx = next(i for i, c in enumerate(commands) if c["N"] == N)
        before = probe()
        wall = run_command(cli, commands[idx]["argv"])[0]
        warmup.append({"command": idx, "wall_s": wall, "probe_s": (before + probe()) / 2.0})

    result = {"setup": setup, "warmup": warmup}
    result["phases"] = timed_loop(cli, commands, plan["seconds"], tracer)
    if tracer is not None:
        result["trace"] = tracer.dump()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["environment"] = environment()
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv))
