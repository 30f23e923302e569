"""Seeded workload definitions and spec-file generation.

Every input the program sees is generated here from the benchmark seed and
written to disk as a spec (and, for ``check-state``, a state) JSON file.
Generation uses numpy only, never ``gkslgraph``, so a change to the program
cannot change its own inputs.  Each generated spec carries its reference
answer, computed by :mod:`bench_check` before any timing starts.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_check

#: Evolution times passed to ``check-state``.
CHECK_TIMES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a CLI command over a fixed per-``N`` spec mix.

    ``mix`` maps N to the number of specs of that size.  The counts are
    chosen so that the median and the tail order statistic of the per-spec
    latencies land in the middle of one size class rather than on the
    boundary between two, which keeps both steady across seeds.
    """

    name: str
    command: str
    spec_format: str
    mix: dict[int, int]
    expected_method: str | None = None

    @property
    def spec_count(self) -> int:
        return sum(self.mix.values())


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernel_blocks",
            command="kernel",
            spec_format="blocks",
            mix={8: 14, 12: 12, 16: 10, 20: 2, 24: 1, 32: 1},
            expected_method="analytic",
        ),
        Workload(
            name="kernel_dense_fallback",
            command="kernel",
            spec_format="dense",
            mix={8: 14, 12: 12, 16: 12, 20: 1, 24: 1},
            expected_method="oracle",
        ),
        Workload(
            name="check_state_blocks",
            command="check-state",
            spec_format="blocks",
            mix={8: 16, 16: 14, 20: 6, 24: 4},
        ),
    )
}


@dataclass
class SpecCase:
    """One generated input file and everything needed to check its output."""

    index: int
    N: int
    spec_path: Path
    out_path: Path
    argv: list[str]
    reference: bench_check.Reference
    state_path: Path | None = None
    expect_invariant: bool | None = None
    input_bytes: int = 0


# ---------------------------------------------------------------------------
# Random building blocks
# ---------------------------------------------------------------------------


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _random_psd(rng, n):
    A = _complex_normal(rng, (n, n))
    return A @ A.conj().T / n


def _random_hermitian(rng, n):
    A = _complex_normal(rng, (n, n))
    return (A + A.conj().T) / 2.0


def pair_block_case(rng, N):
    """Random pair-block-diagonal generator with a diagonal Hamiltonian.

    Mirrors the case mix of the test suite's random pair-block specs:
    empty, generic PSD and singular symmetric 2x2 blocks; designated sinks
    (no out-rates); zero, generic PSD or uniform population-sector blocks;
    Hamiltonians with and without degeneracies.  It adds at most one
    *closed pair*, two levels whose only out-rates run to each other, so
    that terminal 2-cycles (and with them every branch of the pair-block
    analysis) occur at every ``N``, not only at small ones.

    Returns ``(H, pairs, diag, features)`` where ``pairs`` maps ``(i, j)``,
    ``1 <= i < j <= N``, to the 2x2 block over labels ``(i, j), (j, i)``.
    """
    degenerate_h = bool(rng.random() < 0.5)
    if degenerate_h:
        h = rng.choice([0.0, 0.5, 1.0], size=N)
    else:
        h = rng.uniform(-2.0, 2.0, size=N)
    H = np.diag(h).astype(complex)

    levels = rng.permutation(np.arange(1, N + 1))
    n_sinks = int(rng.integers(0, 4))
    sinks = {int(v) for v in levels[:n_sinks]}
    closed: tuple[int, int] | None = None
    if rng.random() < 0.5 and N - n_sinks >= 2:
        a, b = sorted(int(v) for v in levels[n_sinks : n_sinks + 2])
        closed = (a, b)
    no_out = sinks | set(closed or ())

    pairs: dict[tuple[int, int], np.ndarray] = {}
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            u = rng.random()
            if (i, j) == closed:
                u = 0.3 + 0.7 * u  # never empty: the two levels feed each other
            if u < 0.3:
                continue
            if u < 0.7:
                blk = _random_psd(rng, 2)
            else:
                g = float(rng.uniform(0.2, 2.0))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                blk = np.array([[g, sign * g], [sign * g, g]], dtype=complex)
            # blk[0, 0] is the rate j -> i and blk[1, 1] the rate i -> j;
            # zeroing a diagonal entry of a PSD block zeroes its off-diagonals.
            if (i, j) != closed:
                if j in no_out:
                    blk = np.diag([0.0, blk[1, 1].real]).astype(complex)
                if i in no_out:
                    blk = np.diag([blk[0, 0].real, 0.0]).astype(complex)
            if np.any(blk != 0):
                pairs[(i, j)] = blk

    u = rng.random()
    if u < 0.4:
        diag, diag_kind = None, "none"
    elif u < 0.7:
        diag, diag_kind = _random_psd(rng, N), "psd"
    else:
        diag = float(rng.uniform(0.1, 1.5)) * np.ones((N, N), dtype=complex)
        diag_kind = "uniform"
    features = {
        "degenerate_h": degenerate_h,
        "sinks": len(sinks),
        "closed_pair": closed is not None,
        "diag": diag_kind,
        "singular_blocks": sum(
            1 for b in pairs.values() if abs(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]) == 0
        ),
    }
    return H, pairs, diag, features


def dense_case(rng, N):
    """General valid generator: full PSD coefficient matrix, full Hermitian H."""
    H = _random_hermitian(rng, N)
    gamma = _random_psd(rng, N * N)
    return H, gamma


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _cdoc(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), axis=-1).tolist()


def blocks_document(N, H, pairs, diag) -> dict:
    gamma = {
        "format": "blocks",
        "pairs": [
            {"i": i, "j": j, "block": _cdoc(blk)} for (i, j), blk in sorted(pairs.items())
        ],
    }
    if diag is not None:
        gamma["diag"] = _cdoc(diag)
    return {"N": N, "basis": "standard", "H": _cdoc(H), "gamma": gamma}


def dense_document(N, H, gamma) -> dict:
    return {
        "N": N,
        "basis": "standard",
        "H": _cdoc(H),
        "gamma": {"format": "dense", "matrix": _cdoc(gamma)},
    }


def _write_json(path: Path, doc) -> int:
    text = json.dumps(doc, separators=(",", ":"))
    path.write_text(text)
    return len(text)


# ---------------------------------------------------------------------------
# States for check-state
# ---------------------------------------------------------------------------


def _random_density(rng, N):
    rho = _random_psd(rng, N)
    return rho / np.trace(rho).real


def stationary_state(rng, N, S) -> np.ndarray:
    """A diagonal stationary state: a random mixture over terminal classes."""
    populations = bench_check.terminal_stationary_populations(S, N)
    weights = rng.dirichlet(np.ones(len(populations)))
    p = sum(w * pop for w, pop in zip(weights, populations))
    return np.diag(p / p.sum()).astype(complex)


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


def _case_rng(seed: int, workload: str, index: int, attempt: int):
    key = [seed, zlib.crc32(workload.encode()), index, attempt]
    return np.random.default_rng(np.random.SeedSequence(key))


def spec_sizes(workload: Workload) -> list[int]:
    """The N of each spec in run order (ascending N)."""
    return [N for N, count in sorted(workload.mix.items()) for _ in range(count)]


def generate(workload: Workload, seed: int, directory: Path) -> list[SpecCase]:
    """Write the workload's spec (and state) files and compute references.

    A draw whose kernel dimension is numerically ambiguous (no clear gap in
    the singular values of the superoperator) is redrawn from the next
    sub-seed: on such input the dimension is not well defined and no route
    can be checked against it.
    """
    spec_dir = directory / "specs"
    out_dir = directory / "out"
    spec_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for index, N in enumerate(spec_sizes(workload)):
        for attempt in range(20):
            rng = _case_rng(seed, workload.name, index, attempt)
            case = _draw(workload, rng, index, N, spec_dir, out_dir)
            if case is not None:
                break
        else:
            raise RuntimeError(f"{workload.name}: no well-conditioned spec at N={N}")
        cases.append(case)
    return cases


def _draw(workload, rng, index, N, spec_dir, out_dir) -> SpecCase | None:
    stem = f"s{index:03d}_N{N:02d}"
    spec_path = spec_dir / f"{stem}.json"
    out_path = out_dir / f"{stem}.{workload.command}.json"
    if workload.spec_format == "blocks":
        H, pairs, diag, _ = pair_block_case(rng, N)
        G = bench_check.gamma_from_blocks(N, pairs, diag)
        doc = blocks_document(N, H, pairs, diag)
    else:
        H, dense = dense_case(rng, N)
        G = bench_check.gamma_from_dense(N, dense)
        doc = dense_document(N, H, dense)
    S = bench_check.superoperator(H, G)
    reference = bench_check.reference(S)
    if reference is None:
        return None
    argv = [workload.command, str(spec_path), "--out", str(out_path)]
    case = SpecCase(
        index=index,
        N=N,
        spec_path=spec_path,
        out_path=out_path,
        argv=argv,
        reference=reference,
    )
    if workload.command == "check-state":
        rho = stationary_state(rng, N, S)
        case.expect_invariant = index % 2 == 0
        if not case.expect_invariant:
            rho = 0.8 * rho + 0.2 * _random_density(rng, N)
        if bench_check.state_is_invariant(S, rho) != case.expect_invariant:
            return None
        case.state_path = spec_dir / f"{stem}.state.json"
        case.input_bytes += _write_json(case.state_path, {"matrix": _cdoc(rho)})
        argv[2:2] = ["--state", str(case.state_path)]
        argv += ["--times", ",".join(repr(t) for t in CHECK_TIMES)]
    case.input_bytes += _write_json(spec_path, doc)
    return case
