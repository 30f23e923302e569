"""Compare the CLI's outputs at a base revision with those of the working tree.

Usage, from the root of the repository::

    python tools/compare_outputs.py --base REV [--seeds 41 ...]

The specs of the benchmark's workloads are generated once per seed, by
importing ``perfbench/bench_specs.py``.  Every command of
``tests/helpers.COMMANDS`` is run on every spec, with the arguments of
``helpers.command_argv``; ``oracle`` and ``crosscheck`` only for N <= 12.
``check-state`` also runs with the spec's first kernel element as the
state, at ``--times 0.5,2`` and at ``1e6``: the element of ``full_kernel``
where it applies, and else the oracle's, for N <= 12, so that the dense
route is checked too.
So is the command the benchmark times on the spec (``check-state`` with the
workload's own state, or ``kernel`` writing its ``--out`` file).  Each
seed's first ``kernel_blocks`` spec is also written with the faults of
``helpers.malformed_blocks_documents``, and ``validate`` runs on each copy,
so the parse errors (stderr and exit code) are compared too.  ``kernel
--batch`` and ``digraph --batch`` run on a directory holding the seed's first
``kernel_blocks`` spec, its ``two_faults`` copy and the first
``kernel_dense_fallback`` spec, in that order, so a failure in the middle
of a batch is compared as well; a batch's ``--out`` directory is read as
its files, each compared by name.  Every
command also runs on the specs of ``tests/golden/``, where "held narrowly"
notes, fallback reasons and ``--tol 0`` rejections show up.  ``validate``
and ``kernel`` run on ``helpers.near_threshold_psd_specs``, written in the
``dense`` and ``blocks`` formats: specs just inside and outside the PSD
threshold and the shift of ``validate``'s Cholesky certificate.  Each seed
also writes ``helpers.strongly_connected_blocks_document`` at N = 64 and
128, past the benchmark's sizes, and runs every command on it but the
oracle's and ``canonicalize`` (whose dense N^4 gamma would take gigabytes),
and every command on the two specs of ``helpers.wide_rate_documents``, whose
stationary ratios leave the float range.  Each golden spec, and each seed's
first spec of each workload, is also written as a ``"basis": "gellmann"``
document (``helpers.gellmann_document`` of ``standard_to_gellmann``), and
every command runs on it, so the parser's Gell-Mann conversion is compared
too.  The same specs are also written with ``indent=2``, whose matrices
json's own scanner reads instead of the parser's flat read, and every
command runs on them, so both decode routes are compared.
Each of these jobs runs three times: at the default tolerance, with
``--tol 0`` and with ``--tol 1e-3``.
Each tree runs the same argument lists in-process, in one subprocess with
that tree's ``src`` first on ``PYTHONPATH``: the base revision is exported
by ``bench_pairs.export`` (``git archive``) into a temporary directory,
removed on exit.

Each differing stdout, stderr, exit code and ``--out`` file is reported.
Where both sides are JSON, every differing number is listed with the
absolute and relative size of its difference.  Oracle payloads
(``"method": "oracle"``, from ``oracle`` or from ``kernel``'s fallback) are
the exception: their elements are one orthonormal basis of the kernel among
many, so where both sides carry one, the element matrices are compared by
span, in one line giving both dimensions and the largest principal angle
between the two element sets.  The command still counts as differing.  A
summary follows: one line per JSON path with its indices collapsed
(``$.stationary[].rho[]``), giving how many numbers moved there and the
largest absolute and relative move, how many oracle spans were compared and
their largest principal angle, the number of commands whose non-numeric
content differs, and how many commands raised instead of exiting, at the
base and in the working tree, with each one of the working tree that did.
Exits 0 when every output is byte-identical and 1
otherwise.  This is a tool, not a test: the test suite does not run it.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import scipy.linalg

from bench_pairs import export

ROOT = Path(__file__).resolve().parent.parent

#: Commands that build the dense N^2 x N^2 superoperator and take its SVD.
ORACLE_COMMANDS = ("oracle", "crosscheck")
ORACLE_MAX_N = 12
#: Sizes of the strongly connected ``blocks`` specs, beyond the benchmark's N.
LARGE_SIZES = (64, 128)
#: Commands left out at ``LARGE_SIZES``: the oracle's, and ``canonicalize``,
#: which writes the dense N^4 gamma (gigabytes of JSON lists at N = 64).
LARGE_SKIPPED = (*ORACLE_COMMANDS, "canonicalize")
#: ``--times`` of the ``check-state`` jobs on a spec's own stationary state:
#: times the drift bound settles, and a time it leaves to the evolution.
STATIONARY_TIMES = ("0.5,2", "1e6")
#: Every job runs again with each of these ``--tol`` values.
TOLERANCES = ("0", "1e-3")


def _run_jobs(jobs_path: str, results_path: str) -> None:
    """Run each job's argv through the imported ``gkslgraph.cli`` and record its outputs."""
    from gkslgraph import cli

    results = []
    for argv in json.loads(Path(jobs_path).read_text()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:  # a crash is an output to compare, not the end of the run
                traceback.print_exc()
                code = f"raised {type(exc).__name__}"
        out = None
        if "--out" in argv:
            path = Path(argv[argv.index("--out") + 1])
            # Removed once read, so the next tree cannot read this tree's files.
            if path.is_dir():  # a --batch output directory
                out = [(file.name, file.read_text()) for file in sorted(path.iterdir())]
                shutil.rmtree(path)
            elif path.exists():
                out = path.read_text()
                path.unlink()
        results.append({
            "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "code": code, "out": out
        })
    Path(results_path).write_text(json.dumps(results))


def _run_tree(src: Path, jobs_path: Path, results_path: Path) -> list[dict]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, __file__, "--run-jobs", str(jobs_path), str(results_path)],
        check=True,
        env=env,
    )
    return json.loads(results_path.read_text())


def _jobs(seeds: list[int], directory: Path) -> list[list[str]]:
    """Write the workload specs under ``directory``; return the argv of every command."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import bench_specs
    from gkslgraph import (
        PreconditionError,
        brute_force_kernel,
        dump_json,
        full_kernel,
        load_spec,
        matrix_to_document,
        spec_to_document,
        standard_to_gellmann,
    )
    from helpers import (
        COMMANDS,
        blocks_document,
        command_argv,
        gellmann_document,
        malformed_blocks_documents,
        near_threshold_psd_specs,
        strongly_connected_blocks_document,
        wide_rate_documents,
    )

    def stationary(spec_path: Path, workdir: Path) -> list[list[str]]:
        """``check-state`` on the spec's first kernel element, if it has one.

        The element is the analytic one, or the oracle's for a spec off the
        analytic route with N <= ``ORACLE_MAX_N``.
        """
        spec = load_spec(spec_path)
        try:
            elements = full_kernel(spec).elements
        except PreconditionError:
            elements = brute_force_kernel(spec).elements if spec.N <= ORACLE_MAX_N else ()
        if not elements:
            return []
        element = elements[0].matrix
        state = workdir / f"{spec_path.stem}.stationary.state.json"
        state.write_text(dump_json({"matrix": matrix_to_document(element)}) + "\n")
        argv = ["check-state", str(spec_path), "--state", str(state), "--times"]
        return [[*argv, times] for times in STATIONARY_TIMES]

    def commands(spec_path: Path, workdir: Path, N: int) -> list[list[str]]:
        return [
            command_argv(command, spec_path, workdir, N)
            for command in COMMANDS
            if command not in ORACLE_COMMANDS or N <= ORACLE_MAX_N
        ] + stationary(spec_path, workdir)

    def indented(spec_path: Path, workdir: Path) -> list[list[str]]:
        """Every command on the spec, written with ``indent=2`` under ``workdir``.

        json's own scanner reads an indented document's matrices, so the
        parser's list route is compared as well as the flat read.
        """
        doc = json.loads(spec_path.read_text())
        path = workdir / f"{spec_path.stem}.indent.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return commands(path, workdir, doc["N"])

    def gellmann(spec_path: Path, workdir: Path) -> list[list[str]]:
        """Every command on the spec, written as a Gell-Mann document under ``workdir``."""
        H, C = standard_to_gellmann(load_spec(spec_path))
        path = workdir / f"{spec_path.stem}.gellmann.json"
        path.write_text(dump_json(gellmann_document(H, C)) + "\n")
        return commands(path, workdir, len(H))

    golden = directory / "golden"
    golden.mkdir(parents=True)
    jobs = []
    for spec_path in sorted((ROOT / "tests" / "golden").glob("*.spec.json")):
        jobs += commands(spec_path, golden, json.loads(spec_path.read_text())["N"])
        jobs += gellmann(spec_path, golden)
        jobs += indented(spec_path, golden)
    near = directory / "near_threshold"
    near.mkdir()
    for name, spec in near_threshold_psd_specs().items():
        for fmt, doc in (("dense", spec_to_document(spec)), ("blocks", blocks_document(spec))):
            path = near / f"{name}.{fmt}.json"
            path.write_text(dump_json(doc) + "\n")
            jobs += [["validate", str(path)], ["kernel", str(path)]]
    for seed in seeds:
        firsts = {}  # each workload's first spec
        large = directory / f"seed{seed}" / "strongly_connected"
        large.mkdir(parents=True)
        for N in LARGE_SIZES:
            path = large / f"N{N}.json"
            doc = strongly_connected_blocks_document(np.random.default_rng(seed), N)
            path.write_text(dump_json(doc) + "\n")
            jobs += [command_argv(c, path, large, N) for c in COMMANDS if c not in LARGE_SKIPPED]
            jobs += stationary(path, large)
        wide = directory / f"seed{seed}" / "wide_rate"
        wide.mkdir()
        for name, doc in wide_rate_documents().items():
            path = wide / f"{name}.json"
            path.write_text(dump_json(doc) + "\n")
            jobs += commands(path, wide, doc["N"])
        for name, workload in bench_specs.WORKLOADS.items():
            workdir = directory / f"seed{seed}" / name
            cases = bench_specs.generate(workload, seed, workdir)
            for case in cases:
                jobs.append(case.argv)
                jobs += commands(case.spec_path, workdir / "out", case.N)
            jobs += gellmann(cases[0].spec_path, workdir / "out")
            jobs += indented(cases[0].spec_path, workdir / "out")
            firsts[name] = cases[0].spec_path
            if name == "kernel_blocks":
                doc = json.loads(cases[0].spec_path.read_text())
                (workdir / "malformed").mkdir()
                for fault, malformed in malformed_blocks_documents(doc).items():
                    path = workdir / "malformed" / f"{fault}.json"
                    path.write_text(json.dumps(malformed))  # NaN and Infinity as JSON extensions
                    jobs.append(["validate", str(path)])
        # Run in name order, so the malformed copy fails in the middle of the batch.
        batch = directory / f"seed{seed}" / "batch"
        batch.mkdir()
        fault = directory / f"seed{seed}" / "kernel_blocks" / "malformed" / "two_faults.json"
        sources = (firsts["kernel_blocks"], fault, firsts["kernel_dense_fallback"])
        for i, source in enumerate(sources, 1):
            (batch / f"{i}_{source.name}").write_bytes(source.read_bytes())
        for command in ("kernel", "digraph"):
            out = directory / f"seed{seed}" / f"batch.{command}"
            jobs.append([command, "--batch", str(batch), "--out", str(out)])
    return [job + tol for job in jobs for tol in ([], *(["--tol", t] for t in TOLERANCES))]


def _numbers(value, path="$"):
    """Every number of a JSON value, keyed by its path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{path}[{i}]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _span(elements) -> np.ndarray:
    """The element matrices of a kernel payload, flattened, one per column."""
    columns = [np.asarray(el["matrix"], dtype=float).reshape(-1, 2) @ [1, 1j] for el in elements]
    return np.stack(columns, axis=1)


def _compare_spans(a: dict, b: dict, spans: list) -> str:
    """One line comparing the element spans of two oracle payloads.

    Gives both dimensions and the largest principal angle between the spans
    (None when either is empty), which is also appended to ``spans``.  The
    matrices are then dropped from both payloads, in place.
    """
    ea, eb = a["elements"], b["elements"]
    angle = None
    if ea and eb:
        angle = float(scipy.linalg.subspace_angles(_span(ea), _span(eb)).max())
        spans.append(angle)
    for el in (*ea, *eb):
        del el["matrix"]
    return f"$.elements: dimension {len(ea)} -> {len(eb)}, largest principal angle {angle!r}"


def _describe(base: str, head: str, moved: dict, spans: list) -> tuple[list[str], bool]:
    """How two texts differ, and whether anything but a number differs.

    Number by number where both are JSON, else a diff.  Each moved number
    is also tallied in ``moved``, keyed by its path with indices collapsed,
    as ``[count, largest absolute move, largest relative move]``.  Where
    both are oracle payloads (``"method": "oracle"``), their element
    matrices are compared by span instead (:func:`_compare_spans`).
    """
    try:
        a, b = json.loads(base), json.loads(head)
    except ValueError:
        a = b = None
    if a is None:
        return _diff_lines(base, head), True
    lines = []
    if all(isinstance(doc, dict) and doc.get("method") == "oracle" for doc in (a, b)):
        lines.append(_compare_spans(a, b, spans))
    na, nb = dict(_numbers(a)), dict(_numbers(b))
    for path in na.keys() & nb.keys():
        x, y = na[path], nb[path]
        if x != y:
            diff = abs(x - y)
            rel = diff / max(abs(x), abs(y))
            lines.append(f"{path}: {x!r} -> {y!r} (abs {diff:.3g}, rel {rel:.3g})")
            tally = moved.setdefault(re.sub(r"\[\d+\]", "[]", path), [0, 0.0, 0.0])
            tally[:] = tally[0] + 1, max(tally[1], diff), max(tally[2], rel)
    lines.sort()
    # Anything but a number that moved: keys, strings, booleans, nulls, lengths.
    shape_a, shape_b = _shape(a), _shape(b)
    if shape_a == shape_b:
        return lines, False
    return [*lines, "non-numeric content differs:", *_diff_lines(shape_a, shape_b)], True


def _shape(value) -> str:
    """``value`` as indented JSON with every number replaced by 0."""

    def blank(v):
        if isinstance(v, dict):
            return {key: blank(item) for key, item in v.items()}
        if isinstance(v, list):
            return [blank(item) for item in v]
        return 0 if isinstance(v, (int, float)) and not isinstance(v, bool) else v

    return json.dumps(blank(value), indent=1, sort_keys=True)


def _diff_lines(base: str, head: str, limit: int = 20) -> list[str]:
    lines = difflib.unified_diff(
        base.splitlines(), head.splitlines(), "base", "head", lineterm="", n=0
    )
    return [f"  {line}" for line in list(lines)[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=[41], help="workload seeds (default: 41)"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        jobs = _jobs(args.seeds, tmp / "specs")
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        base = _run_tree(export(args.base, tmp / "base") / "src", jobs_path, tmp / "base.json")
        head = _run_tree(ROOT / "src", jobs_path, tmp / "head.json")

        def shown(job: list[str]) -> str:
            return " ".join(
                a.replace(f"{tmp}{os.sep}", "").replace(f"{ROOT}{os.sep}", "") for a in job
            )

        differing = reshaped = 0
        moved: dict[str, list] = {}
        spans: list[float] = []
        for job, b, h in zip(jobs, base, head):
            if b == h:
                continue
            differing += 1
            print(shown(job))
            if b["code"] != h["code"]:
                print(f" exit code: {b['code']} -> {h['code']}")
            other = False
            outputs_b, outputs_h = _outputs(b), _outputs(h)
            for channel in dict.fromkeys([*outputs_b, *outputs_h]):
                x, y = outputs_b.get(channel), outputs_h.get(channel)
                if x != y:
                    print(f" {channel}:")
                    lines, changed = _describe(x or "", y or "", moved, spans)
                    other |= changed
                    for line in lines:
                        print(f"  {line}")
            reshaped += other
    print(f"{differing} of {len(jobs)} commands differ ({args.base} vs the working tree)")
    print("summary of moved numbers (path: count, largest abs, largest rel):")
    for path, (count, diff, rel) in sorted(moved.items()):
        print(f" {path}: {count}, abs {diff:.3g}, rel {rel:.3g}")
    if spans:
        largest = max(spans)
        print(f"oracle element spans compared: {len(spans)}, largest principal angle {largest:.3g}")
    print(f"{reshaped} commands differ in non-numeric content")
    # A traceback is not an exit code: name every command that raised.
    at_base, at_head = (sum(map(_raised, side)) for side in (base, head))
    print(f"commands that raised: {at_base} at {args.base}, {at_head} in the working tree")
    for job, h in zip(jobs, head):
        if _raised(h):
            print(f" {h['code']}: {shown(job)}")
    return 1 if differing else 0


def _outputs(result: dict) -> dict:
    """A result's texts by channel: stdout, stderr, and ``out``, or each file of a batch's."""
    out = result["out"]
    files = {f"out {name}": text for name, text in out} if isinstance(out, list) else {"out": out}
    return {"stdout": result["stdout"], "stderr": result["stderr"], **files}


def _raised(result: dict) -> bool:
    """Whether the command raised instead of exiting (its code is ``raised <type>``)."""
    return str(result["code"]).startswith("raised ")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-jobs"]:
        _run_jobs(*sys.argv[2:4])
    else:
        sys.exit(main())
