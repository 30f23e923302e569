"""Kernel-layer tests: closed-form invariant spaces vs. the numeric oracle."""

import functools
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gkslgraph as gk
from gkslgraph import kernel
from gkslgraph.basis import _pair_index, _pair_levels
from gkslgraph.generator import _PairPattern, _pair_block_table
from helpers import (
    ORACLE_FAMILIES,
    dephasing_ladder_spec,
    exact_null_vectors,
    exact_nullity,
    gellmann_document,
    identity_coupled_spec,
    max_principal_angle,
    pair_block_families,
    pair_block_spec,
    random_density_matrix,
    random_hermitian,
    random_identity_preserving_spec,
    random_pbd_spec,
    random_psd,
    random_valid_spec,
    reference_superoperator,
    sink_menagerie_spec,
    strongly_connected_blocks_document,
    superposition_decay_spec,
)

RT2 = np.sqrt(2.0)
GOLDEN_DIR = Path(__file__).parent / "golden"


def kernel_matrices(basis: gk.KernelBasis) -> list[np.ndarray]:
    return [el.matrix for el in basis.elements]


# ---------------------------------------------------------------------------
# diagonal sector
# ---------------------------------------------------------------------------


def diagonal_elements(spec) -> list[gk.KernelElement]:
    return [el for el in gk.full_kernel(spec).elements if el.tag == "diagonal"]


def test_diagonal_elements_superposition():
    els = diagonal_elements(superposition_decay_spec())
    assert len(els) == 1
    el = els[0]
    assert el.tag == "diagonal"
    assert np.allclose(el.matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-12)


def test_diagonal_elements_menagerie_count():
    els = diagonal_elements(sink_menagerie_spec())
    assert len(els) == 5
    for el in els:
        assert abs(np.trace(el.matrix) - 1.0) < 1e-12
        assert np.max(np.abs(el.matrix - np.diag(np.diag(el.matrix)))) == 0.0


def test_diagonal_elements_of_a_gellmann_spec():
    # A Gell-Mann document, parsed, gives the converted spec's elements exactly.
    spec = superposition_decay_spec()
    gm = gk.standard_to_gellmann(spec)
    els_gm = diagonal_elements(gk.parse_spec_document(gellmann_document(*gm)))
    els_conv = diagonal_elements(gk.gellmann_to_standard(*gm))
    els_std = diagonal_elements(spec)
    assert len(els_gm) == len(els_conv) == len(els_std) == 1
    assert els_gm[0].support == els_conv[0].support
    assert np.array_equal(els_gm[0].matrix, els_conv[0].matrix)
    assert np.max(np.abs(els_gm[0].matrix - els_std[0].matrix)) < 1e-9


# ---------------------------------------------------------------------------
# pair-block eigenpairs
# ---------------------------------------------------------------------------


def test_block_eigenpairs_menagerie_pinned():
    spec = sink_menagerie_spec()
    plus, minus = gk.block_eigenpairs(spec, (6, 7))
    assert plus.mu == pytest.approx(-3.5 + 0.4j, abs=1e-12)
    assert minus.mu == pytest.approx(-3.5 - 0.4j, abs=1e-12)
    assert plus.branch == "plus" and minus.branch == "minus"
    for pair in (plus, minus):
        resid = gk.apply_generator(spec, pair.matrix) - pair.mu * pair.matrix
        assert np.max(np.abs(resid)) < 1e-10
        assert np.linalg.norm(pair.matrix) == pytest.approx(1.0, abs=1e-12)


def test_block_eigenpairs_random_residuals():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(60):
        N = int(rng.integers(2, 5))
        spec = random_pbd_spec(rng, N)
        for k in range(1, N + 1):
            for ell in range(k + 1, N + 1):
                plus, minus = gk.block_eigenpairs(spec, (k, ell))
                for pair in (plus, minus):
                    resid = gk.apply_generator(spec, pair.matrix) - pair.mu * pair.matrix
                    assert np.max(np.abs(resid)) < 1e-8 * max(
                        1.0, np.max(np.abs(pair.matrix))
                    )
                    checked += 1
    assert checked > 100


def test_block_eigenpairs_oscillating_plus_has_the_larger_imaginary_part():
    # D*D + p*q on the negative real axis up to rounding: the sign of its
    # rounding-level imaginary part must not decide which root is "plus".
    eps = np.finfo(float).eps
    checked = 0
    for seed in range(300):
        spec = random_pbd_spec(np.random.default_rng(seed), 2 + seed % 7)
        _, blocks = _pair_block_table(spec)
        for k in range(1, spec.N + 1):
            for ell in range(k + 1, spec.N + 1):
                t = _pair_index(k, ell, spec.N)
                _, A0, _ = kernel._pair_block_split(blocks[t][None])
                (D, p), (q, _) = A0[0]
                z = complex(D * D + p * q)
                if not (z.real < 0 and abs(z.imag) <= 4 * eps * abs(z)):
                    continue
                plus, minus = gk.block_eigenpairs(spec, (k, ell))
                assert plus.mu.imag >= minus.mu.imag, (seed, k, ell)
                for pair in (plus, minus):
                    resid = gk.apply_generator(spec, pair.matrix) - pair.mu * pair.matrix
                    assert np.max(np.abs(resid)) < 1e-12
                checked += 1
    assert checked > 2000


def test_block_eigenpairs_scalar_block_fallback():
    # no coupling at all: the block operator is scalar (here zero), and the
    # matrix units themselves are returned
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4)))
    plus, minus = gk.block_eigenpairs(spec, (1, 2))
    assert plus.mu == 0.0 and minus.mu == 0.0
    assert np.allclose(plus.matrix, gk.matrix_unit(1, 2, 2))
    assert np.allclose(minus.matrix, gk.matrix_unit(2, 1, 2))


def test_block_eigenpairs_degenerate_antisymmetric_block():
    # [[g, -g], [-g, g]] makes the naive eigenvector formula collapse to
    # (0, 0) on one branch; the implementation must still return a genuine
    # eigenvector (regression for the candidate-selection logic)
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[1.0, -1.0], [-1.0, 1.0]])})
    plus, minus = gk.block_eigenpairs(spec, (1, 2))
    assert plus.mu == pytest.approx(0.0, abs=1e-14)
    assert minus.mu == pytest.approx(-2.0, abs=1e-14)
    for pair in (plus, minus):
        assert np.linalg.norm(pair.matrix) == pytest.approx(1.0, abs=1e-12)
        resid = gk.apply_generator(spec, pair.matrix) - pair.mu * pair.matrix
        assert np.max(np.abs(resid)) < 1e-12


def test_block_eigenpairs_superposition_pinned():
    plus, minus = gk.block_eigenpairs(superposition_decay_spec(), (1, 2))
    assert plus.mu == pytest.approx(0.0, abs=1e-12)
    assert minus.mu == pytest.approx(-2.0, abs=1e-12)


def test_block_eigenpairs_with_complex_rates():
    # The pattern holds but two rates are complex: the spec is invalid, which
    # block_eigenpairs allows; its eigenpairs are still those of L.
    spec = pair_block_spec(
        3,
        np.zeros((3, 3)),
        {(1, 3): [[1 + 0.5j, 0.2], [0.1, 2.0]], (1, 2): [[0.3, 0.0], [0.0, 0.7 - 0.4j]]},
    )
    for pair in ((1, 2), (1, 3), (2, 3)):
        for eig in gk.block_eigenpairs(spec, pair):
            resid = gk.apply_generator(spec, eig.matrix) - eig.mu * eig.matrix
            assert np.max(np.abs(resid)) <= 1e-12


def test_block_eigenpairs_preconditions():
    rng = np.random.default_rng(43)
    coupled = random_valid_spec(rng, 3)  # dense coefficients: not pair-block
    with pytest.raises(gk.PreconditionError):
        gk.block_eigenpairs(coupled, (1, 2))
    offdiag_h = gk.GeneratorSpec(H=random_hermitian(rng, 3), gamma=np.zeros((9, 9)))
    with pytest.raises(gk.PreconditionError):
        gk.block_eigenpairs(offdiag_h, (1, 2))
    ok = pair_block_spec(2, np.zeros((2, 2)), {})
    with pytest.raises(ValueError):
        gk.block_eigenpairs(ok, (1, 1))
    with pytest.raises(ValueError):
        gk.block_eigenpairs(ok, (0, 2))


# ---------------------------------------------------------------------------
# pair-block kernel contributions
# ---------------------------------------------------------------------------


def pair_elements(spec, pair) -> list[gk.KernelElement]:
    """The elements of ``full_kernel`` supported on the level pair (k, l), k < l."""
    elements = gk.full_kernel(spec).elements
    return [el for el in elements if el.tag != "diagonal" and el.support == pair]


def test_pair_elements_sink_pair_menagerie():
    spec = sink_menagerie_spec()
    els = pair_elements(spec, (2, 3))
    assert len(els) == 2
    assert {el.tag for el in els} == {"sink-pair"}
    assert {el.support for el in els} == {(2, 3)}
    mats = sorted((el.matrix for el in els), key=lambda m: np.argmax(np.abs(m)))
    assert np.allclose(mats[0], gk.matrix_unit(2, 3, 8))
    assert np.allclose(mats[1], gk.matrix_unit(3, 2, 8))


def test_pair_elements_respect_level_splitting():
    spec = sink_menagerie_spec()
    # h_1 = 1 differs from h_2 = 2: no coherence survives
    assert pair_elements(spec, (1, 2)) == []
    # closing the gap promotes the pair
    spec_eq = sink_menagerie_spec(equal_h=True)
    els = pair_elements(spec_eq, (1, 2))
    assert len(els) == 2


def test_pair_elements_singular_two_sink():
    els = pair_elements(superposition_decay_spec(), (1, 2))
    assert len(els) == 1
    el = els[0]
    assert el.tag == "singular-2-sink"
    expected = (gk.matrix_unit(1, 2, 3) + gk.matrix_unit(2, 1, 3)) / RT2
    overlap = abs(np.vdot(expected, el.matrix))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pair_elements_menagerie_singular_pair_pinned():
    els = pair_elements(sink_menagerie_spec(), (4, 5))
    assert len(els) == 1
    expected = (1 + 1j) * gk.matrix_unit(4, 5, 8) + (1 - 1j) * gk.matrix_unit(5, 4, 8)
    expected = expected / np.linalg.norm(expected)
    overlap = abs(np.vdot(expected, els[0].matrix))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_pair_elements_nothing_on_nonsingular_cycle():
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.diag([1.0, 1.0])})
    assert pair_elements(spec, (1, 2)) == []


def test_pair_elements_dephasing_mismatch_blocks_element():
    # both levels are sinks, h matches, but unequal dephasing rates on the
    # population sector destroy the coherence
    diag = np.diag([0.7, 0.0]).astype(complex)
    spec = pair_block_spec(2, np.zeros((2, 2)), {}, diag=diag)
    assert pair_elements(spec, (1, 2)) == []
    # with equal dephasing and matching cross terms the coherence survives
    uniform = 0.7 * np.ones((2, 2), dtype=complex)
    spec2 = pair_block_spec(2, np.zeros((2, 2)), {}, diag=uniform)
    assert len(pair_elements(spec2, (1, 2))) == 2


def test_block_analysis_visits_only_sink_pairs_and_two_sinks(monkeypatch):
    from gkslgraph import kernel

    visited = []
    analyse = kernel._block_analysis

    def recording(canon, cls, tol, k, ell, two_sink):
        visited.append((k, ell, two_sink))
        return analyse(canon, cls, tol, k, ell, two_sink)

    monkeypatch.setattr(kernel, "_block_analysis", recording)
    gk.full_kernel(sink_menagerie_spec())
    # sinks 1, 2, 3; the terminal 2-cycle (4, 5); {6, 7, 8} has no pair.
    assert visited == [(1, 2, False), (1, 3, False), (2, 3, False), (4, 5, True)]
    visited.clear()
    gk.full_kernel(dephasing_ladder_spec())  # every level a sink
    assert visited == [(1, 2, False), (1, 3, False), (2, 3, False)]


# ---------------------------------------------------------------------------
# near-threshold diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_narrowly_failed():
    spec = gk.GeneratorSpec(H=np.diag([0.0, 3e-9]).astype(complex), gamma=np.zeros((4, 4)))
    basis = gk.full_kernel(spec)
    assert any("narrowly failed" in note for note in basis.diagnostics)
    # the coherence was rejected: only diagonal + nothing for the pair
    assert all(el.tag == "diagonal" for el in basis.elements)


def test_diagnostics_held_narrowly():
    spec = gk.GeneratorSpec(H=np.diag([0.0, 5e-10]).astype(complex), gamma=np.zeros((4, 4)))
    basis = gk.full_kernel(spec)
    assert any("held narrowly" in note for note in basis.diagnostics)
    assert any(el.tag == "sink-pair" for el in basis.elements)


def test_diagnostics_empty_for_clean_cases():
    assert gk.full_kernel(superposition_decay_spec()).diagnostics == ()


# ---------------------------------------------------------------------------
# full kernel vs oracle
# ---------------------------------------------------------------------------


def test_full_kernel_superposition():
    spec = superposition_decay_spec()
    basis = gk.full_kernel(spec)
    assert basis.method == "analytic"
    assert basis.dimension == 2
    oracle = gk.brute_force_kernel(spec)
    assert oracle.dimension == 2
    angle = max_principal_angle(kernel_matrices(basis), kernel_matrices(oracle))
    assert angle < 1e-8


def test_full_kernel_menagerie_both_variants():
    spec = sink_menagerie_spec()
    basis = gk.full_kernel(spec)
    oracle = gk.brute_force_kernel(spec)
    assert basis.dimension == oracle.dimension == 8
    assert max_principal_angle(kernel_matrices(basis), kernel_matrices(oracle)) < 1e-8

    spec_eq = sink_menagerie_spec(equal_h=True)
    basis_eq = gk.full_kernel(spec_eq)
    oracle_eq = gk.brute_force_kernel(spec_eq)
    assert basis_eq.dimension == oracle_eq.dimension == 12
    assert max_principal_angle(kernel_matrices(basis_eq), kernel_matrices(oracle_eq)) < 1e-8


def test_full_kernel_zero_generator():
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4)))
    basis = gk.full_kernel(spec)
    assert basis.dimension == 4  # everything is invariant
    assert gk.brute_force_kernel(spec).dimension == 4


def test_full_kernel_degenerate_antisymmetric_block_vs_oracle():
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[1.0, -1.0], [-1.0, 1.0]])})
    basis = gk.full_kernel(spec)
    oracle = gk.brute_force_kernel(spec)
    assert basis.dimension == oracle.dimension == 2
    assert max_principal_angle(kernel_matrices(basis), kernel_matrices(oracle)) < 1e-10


def test_full_kernel_gellmann_round_trip_same_span():
    spec = superposition_decay_spec()
    round_tripped = gk.gellmann_to_standard(*gk.standard_to_gellmann(spec))
    a = gk.full_kernel(spec)
    b = gk.full_kernel(round_tripped)
    assert a.dimension == b.dimension
    assert max_principal_angle(kernel_matrices(a), kernel_matrices(b)) < 1e-7


def test_full_kernel_preconditions():
    rng = np.random.default_rng(44)
    with pytest.raises(gk.PreconditionError):
        gk.full_kernel(random_valid_spec(rng, 3))  # not pair-block diagonal
    bad = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    message = "generator failed validation (psd_on_traceless=False, trace_condition=True)"
    with pytest.raises(gk.PreconditionError, match=f"^{re.escape(message)}$"):
        gk.full_kernel(bad)  # invalid


def test_brute_force_kernel_properties():
    spec = superposition_decay_spec()
    oracle = gk.brute_force_kernel(spec)
    assert oracle.method == "oracle"
    mats = kernel_matrices(oracle)
    for a, m in enumerate(mats):
        assert np.max(np.abs(gk.apply_generator(spec, m))) < 1e-10
        for b, m2 in enumerate(mats):
            ip = np.vdot(m, m2)
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-10
    assert all(el.tag == "oracle" for el in oracle.elements)


def _full_svd_null_space(S: np.ndarray) -> list[np.ndarray]:
    """The null space of a superoperator by a full complex SVD, with the oracle's rank rule."""
    N = math.isqrt(S.shape[0])
    null = scipy.linalg.null_space(S, rcond=gk.DEFAULT_TOL)
    return [gk.from_standard_coordinates(v, N) for v in null.T]


def _assert_oracle_spans_the_full_svd_null_space(spec, reference, exact: bool) -> list:
    """The oracle's elements: as many as the reference's, and the same span.

    With ``exact``, the dimension is also ``helpers.exact_nullity``.
    """
    oracle = kernel_matrices(gk.brute_force_kernel(spec))
    assert len(oracle) == len(reference)
    if exact:
        assert len(oracle) == exact_nullity(spec)
    if oracle:
        assert math.sin(max_principal_angle(oracle, reference)) <= 1e-10
    return oracle


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("family", ORACLE_FAMILIES)
def test_oracle_takes_a_real_svd_with_the_kernel_of_the_complex_one(svd_calls, family, N):
    # A valid L maps Hermitian matrices to Hermitian ones, so its matrix over
    # the Gell-Mann basis is real, and so are its null vectors: each element
    # is Hermitian.  The reference is the full complex SVD of the reference
    # superoperator, with the oracle's rank rule; the oracle takes only the
    # singular values, and its null vectors from the bordered solve.  The
    # exact nullity is skipped where its rational elimination of a dense
    # gamma takes seconds.
    spec = ORACLE_FAMILIES[family](np.random.default_rng(N), N)
    reference = _full_svd_null_space(reference_superoperator(spec))
    exact = family != "valid" or N <= 4
    oracle = _assert_oracle_spans_the_full_svd_null_space(spec, reference, exact)
    assert svd_calls == [(np.float64, False)]
    for m in oracle:
        assert np.abs(m - m.conj().T).max() <= 1e-15


#: The three goldens and the pair-block families, by name.
NAMED_SPECS = [f"golden_{name}" for name in ("ladder", "menagerie", "superposition")] + sorted(
    pair_block_families()
)


def _named_spec(name: str) -> gk.GeneratorSpec:
    if name.startswith("golden_"):
        path = GOLDEN_DIR / f"{name.removeprefix('golden_')}.spec.json"
        return gk.parse_spec_document(json.loads(path.read_text()))
    return pair_block_families()[name]


@pytest.mark.parametrize("name", NAMED_SPECS)
def test_oracle_spans_the_full_svd_null_space_with_the_exact_dimension(name):
    # The goldens and pair-block families, the invalid ones included: L
    # preserves the trace whatever gamma is, so the identity border applies.
    spec = _named_spec(name)
    reference = _full_svd_null_space(gk.superoperator(spec))
    _assert_oracle_spans_the_full_svd_null_space(spec, reference, exact=True)


def test_oracle_of_a_non_hermitian_gamma_takes_a_complex_svd(svd_calls):
    # Such an L does not preserve Hermiticity, so its Gell-Mann matrix is
    # complex.  It still preserves the trace, so its kernel is not empty,
    # and the bordered solve takes its null vectors in complex arithmetic.
    rng = np.random.default_rng(62)
    gamma = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    spec = gk.GeneratorSpec(H=random_hermitian(rng, 3), gamma=gamma)
    reference = _full_svd_null_space(reference_superoperator(spec))
    oracle = _assert_oracle_spans_the_full_svd_null_space(spec, reference, exact=False)
    assert svd_calls == [(np.complex128, False)]
    assert len(oracle) >= 1
    for m in oracle:
        assert np.linalg.norm(gk.apply_generator(spec, m)) <= 1e-10
        assert complex(np.trace(m)).real > 0.0


@pytest.mark.parametrize("N", range(2, 7))
def test_one_dimensional_oracle_kernel_is_the_normalised_state(N):
    # The bordered solve fixes the element's trace, so the one element is
    # the stationary state scaled to unit HS norm: positive trace, PSD.
    spec = random_valid_spec(np.random.default_rng(N), N)
    [element] = kernel_matrices(gk.brute_force_kernel(spec))
    assert np.linalg.norm(element) == pytest.approx(1.0, abs=1e-14)
    trace = complex(np.trace(element))
    assert trace.real > 0.0 and abs(trace.imag) <= 1e-15
    assert gk.is_psd(element / trace.real)


def _counted_null_space(monkeypatch, svd_calls, spec, tol):
    """The oracle's rows on ``spec``, and the names of the linear-algebra calls it made."""
    calls = []
    for name in ("solve", "qr"):

        def recording(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(np.linalg, name, recording)
    rows = kernel._null_space(gk.superoperator(spec), tol)
    calls += ["svd" if compute_uv else "svdvals" for _, compute_uv in svd_calls]
    return rows, sorted(calls)


def test_oracle_at_tol_0_takes_one_full_svd_and_no_solve(monkeypatch, svd_calls):
    # At --tol 0 no singular value of rounding size counts as zero: the
    # nullity is 0, and nothing is solved.  Tol 0 keeps the full SVD (see
    # kernel._nullity), so its rows, none here, come from that one SVD.
    spec = random_valid_spec(np.random.default_rng(3), 3)
    rows, calls = _counted_null_space(monkeypatch, svd_calls, spec, 0.0)
    assert rows.shape == (0, 9)
    assert calls == ["svd"]


def test_oracle_skips_the_solve_when_no_residual_can_pass(monkeypatch, svd_calls):
    # Populations exchanged at rate 1e-5 under dephasing at rate 1: at
    # --tol 1e-3 the singular value 2e-5 counts as zero, d = 2, and no
    # orthonormal Q has |A Q|_F below 2e-5, far above the residual bound.
    # The null vectors come straight from the full SVD.
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.eye(2) * 1e-5}, diag=[[1, 0], [0, 0]])
    A = kernel._conjugate_by_w(gk.superoperator(spec), inverse=False).real
    expected = np.linalg.svd(A)[2][-2:]
    svd_calls.clear()
    rows, calls = _counted_null_space(monkeypatch, svd_calls, spec, 1e-3)
    assert calls == ["svd", "svdvals"]
    np.testing.assert_array_equal(rows, expected)


@pytest.mark.parametrize("failure", ["residual", "singular"])
def test_oracle_falls_back_to_the_full_svd(monkeypatch, svd_calls, failure):
    # A bordered solve whose residual check fails, or that raises, leaves
    # the null vectors to a full SVD of the same A: the last d right
    # singular vectors, as before the bordered solve.
    spec = superposition_decay_spec()
    A = kernel._conjugate_by_w(gk.superoperator(spec), inverse=False).real
    expected = np.linalg.svd(A)[2][-2:]
    svd_calls.clear()
    solve = np.linalg.solve
    if failure == "residual":

        def inaccurate(*args):
            return solve(*args) + 1e-6

        solve_calls = ["qr", "solve"]
    else:

        def inaccurate(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        solve_calls = ["solve"]
    monkeypatch.setattr(np.linalg, "solve", inaccurate)
    rows, calls = _counted_null_space(monkeypatch, svd_calls, spec, gk.DEFAULT_TOL)
    assert calls == sorted(["svd", "svdvals", *solve_calls])
    np.testing.assert_array_equal(rows, expected)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2 (sectors and graded rates): the oracle's rank is held to s[0]",
)
def test_oracle_dimension_of_rates_that_span_the_float_range():
    # Rates 1 -> 2 at 1e300, 2 -> 1 at 1e-8 and 2 <-> 3 at 1: one terminal
    # component, so the kernel is the one stationary state.  The rate-1
    # dynamics' singular values fall below tol * s[0] ~ 1e291, and the
    # oracle sees 4 dimensions.
    blocks = {(1, 2): np.diag([1e-8, 1e300]), (2, 3): np.eye(2)}
    spec = pair_block_spec(3, np.zeros((3, 3)), blocks)
    assert gk.brute_force_kernel(spec).dimension == exact_nullity(spec)


# ---------------------------------------------------------------------------
# K-operator and containment
# ---------------------------------------------------------------------------


def test_k_operator_zero_coefficients():
    spec = gk.GeneratorSpec(H=np.diag([1.0, -1.0]).astype(complex), gamma=np.zeros((4, 4)))
    res = gk.k_operator(spec)
    assert res.epsilon == 0.0
    assert np.max(np.abs(res.K)) == 0.0
    assert res.labels == ()  # K marks directions outside ker C; here none


def test_k_operator_full_rank_pinned():
    spec = gk.gellmann_to_standard(np.zeros((2, 2)), np.eye(3, dtype=complex))
    res = gk.k_operator(spec)
    assert np.allclose(res.K, np.eye(3), atol=1e-12)
    assert res.epsilon == pytest.approx(1.0, abs=1e-9)
    assert res.labels == gk.gellmann_labels(2)[:-1]


def test_k_operator_rank_one_pinned():
    C = np.zeros((3, 3), dtype=complex)
    C[0, 0] = 2.0
    spec = gk.gellmann_to_standard(np.zeros((2, 2)), C)
    res = gk.k_operator(spec)
    assert np.allclose(res.K, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert res.epsilon == pytest.approx(2.0, abs=1e-9)


def test_k_operator_requires_identity_preservation():
    with pytest.raises(gk.PreconditionError):
        gk.k_operator(superposition_decay_spec())


def test_k_operator_dominated_by_coefficients():
    # C - eps*K must stay PSD: that is the whole point of the construction
    rng = np.random.default_rng(45)
    for _ in range(25):
        N = int(rng.integers(2, 5))
        spec = random_identity_preserving_spec(rng, N)
        res = gk.k_operator(spec)
        _, C = gk.standard_to_gellmann(spec)
        diff = (C + C.conj().T) / 2.0 - res.epsilon * res.K
        evals = np.linalg.eigvalsh(diff)
        assert evals.min() > -1e-8 * max(1.0, float(evals.max()))
        assert res.epsilon >= 0.0
        if np.max(np.abs(C)) > 1e-9:
            assert res.epsilon > 0.0


def test_kernel_containment_random_identity_preserving():
    rng = np.random.default_rng(46)
    for _ in range(25):
        N = int(rng.integers(2, 5))
        spec = random_identity_preserving_spec(rng, N)
        assert gk.kernel_containment_check(spec)


def test_kernel_containment_requires_identity_preservation():
    with pytest.raises(gk.PreconditionError):
        gk.kernel_containment_check(superposition_decay_spec())


def test_kernel_containment_is_false_for_an_oracle_element_outside_ker_k(monkeypatch):
    # The guard against an implementation fault: with C = I, K = I on the
    # traceless sector, so the traceless sigma_x is not in ker K.
    spec = gk.gellmann_to_standard(np.zeros((2, 2)), np.eye(3))
    assert gk.kernel_containment_check(spec)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fault = gk.KernelBasis(elements=(gk.KernelElement(sigma_x, "oracle"),), method="oracle")
    monkeypatch.setattr(kernel, "brute_force_kernel", lambda spec, tol: fault)
    assert not gk.kernel_containment_check(spec)


# ---------------------------------------------------------------------------
# consistency bound
# ---------------------------------------------------------------------------


def test_consistency_superposition():
    rep = gk.consistency_and_bound(superposition_decay_spec())
    assert rep.components == ((1, 2, 3),)
    assert rep.consistent
    assert rep.lower_bound == 1
    assert rep.nullity == 2
    assert rep.projection_check


def test_consistency_detects_cross_component_hamiltonian():
    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    spec = gk.GeneratorSpec(H=H, gamma=np.zeros((4, 4)))
    rep = gk.consistency_and_bound(spec)
    assert rep.components == ((1,), (2,))
    assert not rep.consistent
    assert rep.lower_bound is None
    assert not rep.projection_check


def test_consistency_block_hamiltonian_ok():
    # same split, but H respects the components: two conserved projections
    H = np.diag([0.3, -0.7]).astype(complex)
    spec = gk.GeneratorSpec(H=H, gamma=np.zeros((4, 4)))
    rep = gk.consistency_and_bound(spec)
    assert rep.consistent
    assert rep.lower_bound == 2
    assert rep.lower_bound <= rep.nullity
    assert rep.projection_check


def test_consistency_bound_above_the_oracle_nullity_raises(monkeypatch):
    # The guard against an implementation fault: an oracle that loses a
    # kernel direction puts the two components above its nullity.
    spec = gk.GeneratorSpec(H=np.diag([0.3, -0.7]).astype(complex), gamma=np.zeros((4, 4)))
    nullity = kernel._nullity

    def one_less(S, tol):
        A, s, d, vh = nullity(S, tol)
        return A, s, d - 1, vh

    monkeypatch.setattr(kernel, "_nullity", one_less)
    message = (
        "consistency bound violated: 2 components but oracle nullity 1; the "
        "implementation asserts lower_bound <= nullity for valid generators"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        gk.consistency_and_bound(spec)


def test_consistency_requires_valid_spec():
    bad = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.raises(ValueError):
        gk.consistency_and_bound(bad)


# ---------------------------------------------------------------------------
# dynamical verification
# ---------------------------------------------------------------------------


def test_verify_invariant_superposition_state():
    spec = superposition_decay_spec()
    psi = np.array([1.0, 1.0, 0.0]) / RT2
    rho = np.outer(psi, psi.conj())
    assert gk.verify_invariant(spec, rho, times=(0.5, 1.0, 5.0))


def test_verify_invariant_rejects_moving_state():
    spec = superposition_decay_spec()
    rho = np.diag([0.6, 0.4, 0.0]).astype(complex)
    assert not gk.verify_invariant(spec, rho, times=(0.5,))


def test_verify_invariant_warns_on_non_state():
    spec = superposition_decay_spec()
    psi = np.array([1.0, 1.0, 0.0]) / RT2
    rho = 2.0 * np.outer(psi, psi.conj())  # invariant, but trace 2
    with pytest.warns(UserWarning):
        assert gk.verify_invariant(spec, rho, times=(1.0,))


def test_verify_invariant_gates_on_validity_and_shape():
    bad = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.raises(ValueError):
        gk.verify_invariant(bad, np.eye(2) / 2.0, times=(1.0,))
    good = superposition_decay_spec()
    with pytest.raises(ValueError):
        gk.verify_invariant(good, np.eye(2) / 2.0, times=(1.0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_verify_invariant_rejects_non_finite_times(bad):
    spec = superposition_decay_spec()
    psi = np.array([1.0, 1.0, 0.0]) / RT2
    with pytest.raises(ValueError, match="evolution times must be finite and >= 0"):
        gk.verify_invariant(spec, np.outer(psi, psi), times=(1.0, bad))


def test_verify_invariant_raises_on_a_nan_residual():
    spec = superposition_decay_spec()
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    rho[0, 1] = np.nan
    with pytest.warns(UserWarning), pytest.raises(FloatingPointError, match=r"residual .* \(nan\)"):
        gk.verify_invariant(spec, rho, times=(1.0,))


EXPM_TIMES = (1e-6, 0.5, 1.0, 2.0, 50.0)


def _assert_expm_close(E, A, t):
    """E matches scipy's expm(tA) to 1e-12 relative, per block, above underflow."""
    for e, a in zip(E, A):
        ref = scipy.linalg.expm(t * a)
        assert np.abs(e - ref).max() <= 1e-12 * np.abs(ref).max() + np.finfo(float).tiny


@pytest.mark.parametrize(
    "block",
    [
        np.array([[-0.3 + 0.7j, 0.0], [0.0, -0.3 + 0.7j]]),  # scalar: s = 0, A0 = 0
        np.array([[0.0, 2.0 + 1.0j], [0.0, 0.0]]),  # nilpotent: s = 0, A0 != 0
        np.array([[-0.5, 1.0], [-0.25 + 1e-14, -1.5]]),  # s = 1e-7
        np.array([[-0.5, 1.0], [-0.25 + 1e-6, -1.5]]),  # s = 1e-3
        np.array([[-1.0, 1.0], [1.0, -1.0]]),  # a terminal 2-cycle: one eigenvalue 0
        np.array([[-1.0 - 3.0j, 0.5], [0.5, -1.0 + 3.0j]]),  # oscillating: s imaginary
    ],
    ids=["scalar", "nilpotent", "s_1e-7", "s_1e-3", "two_cycle", "oscillating"],
)
def test_pair_block_expm_matches_scipy(block):
    for t in EXPM_TIMES:
        E = kernel._pair_block_expm(kernel._pair_block_split(block[None]), t)
        assert np.isfinite(E).all()
        _assert_expm_close(E, block[None], t)


def test_pair_block_expm_of_a_nilpotent_block_is_exact():
    E = kernel._pair_block_expm(
        kernel._pair_block_split(np.array([[[0.0, 3.0], [0.0, 0.0]]], dtype=complex)), 50.0
    )
    assert np.array_equal(E[0], [[1.0, 150.0], [0.0, 1.0]])


def _pair_block_stack():
    rng = np.random.default_rng(480)
    specs = [superposition_decay_spec(), sink_menagerie_spec(), dephasing_ladder_spec()]
    specs += [random_pbd_spec(rng, N) for N in range(2, 8) for _ in range(3)]
    return np.concatenate([_pair_block_table(s)[1] for s in specs])


@pytest.mark.parametrize("scale", 10.0 ** np.arange(-8, 9))
def test_pair_block_expm_at_every_rate_scale(scale):
    A = scale * _pair_block_stack()
    split = kernel._pair_block_split(A)
    for t in EXPM_TIMES:
        E = kernel._pair_block_expm(split, t)
        assert np.isfinite(E).all()
        # scipy's scaling and squaring loses digits as |tA| grows (1e-11 at
        # |tA|_1 ~ 1e3 on these blocks, against 60-digit arithmetic), so it is
        # the 1e-12 reference only up to |tA|_1 = 100.
        small = np.abs(t * A).sum(axis=1).max(axis=1) <= 100.0
        _assert_expm_close(E[small], A[small], t)
    # Beyond, against the exact exponential of the 2-cycle block a [[-1, 1], [1, -1]]:
    # (I + P)/2 + e^{-2at} (I - P)/2, P = [[0, 1], [1, 0]].
    split = kernel._pair_block_split(scale * np.array([[[-1.0, 1.0], [1.0, -1.0]]]))
    for t in EXPM_TIMES:
        decay = math.exp(-2.0 * scale * t)
        exact = 0.5 * np.array([[1 + decay, 1 - decay], [1 - decay, 1 + decay]])
        E = kernel._pair_block_expm(split, t)
        assert np.abs(E[0] - exact).max() <= 1e-12 * np.abs(exact).max()


def _dense_verify(spec, rho, times):
    """verify_invariant's rule, evolved by expm of the dense superoperator."""
    residual = np.linalg.norm(gk.apply_generator(spec, rho))
    if not residual <= gk.GENERATOR_RESIDUAL_TOL:
        return False
    return all(drift <= gk.EVOLUTION_DRIFT_TOL for drift in _dense_drifts(spec, rho, times))


def _dense_drifts(spec, rho, times):
    S = gk.superoperator(spec)
    v = gk.to_standard_coordinates(rho)
    return [float(np.linalg.norm(scipy.linalg.expm(t * S) @ v - v)) for t in times]


def _invariant_state(spec, rng):
    """A random invariant state: stationary populations plus kernel coherences."""
    basis = gk.full_kernel(spec)
    diagonal = [el.matrix for el in basis.elements if el.tag == "diagonal"]
    rho = sum(w * m for w, m in zip(rng.dirichlet(np.ones(len(diagonal))), diagonal))
    for el in basis.elements:
        if el.tag != "diagonal":
            z = 0.05 * complex(rng.normal(), rng.normal())
            rho = rho + z * el.matrix + np.conj(z) * el.matrix.conj().T
    return rho


PARITY_TIMES = (0.5, 1.0, 2.0, 50.0)


def _assert_norms_match_dense(spec, state):
    """The route's residual is apply_generator's, and its drifts the dense evolution's."""
    residual, *drifts = kernel._generator_norms(spec, state, PARITY_TIMES)
    expected = np.linalg.norm(gk.apply_generator(spec, state))
    assert abs(residual - expected) <= 1e-12 * expected + 1e-15
    assert np.allclose(drifts, _dense_drifts(spec, state, PARITY_TIMES), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_verify_invariant_matches_dense_evolution(seed):
    rng = np.random.default_rng(4800 + seed)
    spec = random_pbd_spec(rng, 2 + seed % 6)
    exact = gk.classify_pair_block_diagonal(spec, 0.0)
    assert exact.is_pair_block_diagonal and exact.h_diagonal
    rho = _invariant_state(spec, rng)
    perturbed = rho + 1e-3 * random_hermitian(rng, spec.N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a coherence may break positivity
        assert gk.verify_invariant(spec, rho, PARITY_TIMES) is True
        assert _dense_verify(spec, rho, PARITY_TIMES) is True
        assert gk.verify_invariant(spec, perturbed, PARITY_TIMES) is False
        assert _dense_verify(spec, perturbed, PARITY_TIMES) is False
    # The residual and the drifts themselves, past the residual gate that
    # stops a perturbed state.
    for state in (rho, perturbed):
        _assert_norms_match_dense(spec, state)


def test_verify_invariant_on_one_level():
    spec = gk.GeneratorSpec(H=np.array([[0.25]]), gamma=np.array([[0.7]]))
    exact = gk.classify_pair_block_diagonal(spec, 0.0)
    assert exact.is_pair_block_diagonal and exact.h_diagonal
    rho = np.ones((1, 1), dtype=complex)
    assert gk.verify_invariant(spec, rho, PARITY_TIMES) is True
    assert _dense_verify(spec, rho, PARITY_TIMES) is True
    assert list(kernel._generator_norms(spec, rho, PARITY_TIMES)) == [0.0] * 5  # L(rho), 4 drifts


@pytest.mark.parametrize("seed", range(5))
def test_verify_invariant_on_an_identity_coupled_spec_takes_the_dense_route(seed):
    # Pair-block diagonal only after canonicalization: the exact pattern fails.
    rng = np.random.default_rng(4900 + seed)
    spec = identity_coupled_spec(rng, 3 + seed % 3, 0.3)
    exact = gk.classify_pair_block_diagonal(spec, 0.0)
    assert not (exact.is_pair_block_diagonal and exact.h_diagonal)
    rho = _invariant_state(spec, rng)
    perturbed = rho + 1e-3 * random_hermitian(rng, spec.N)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert gk.verify_invariant(spec, rho, PARITY_TIMES) is True
        assert _dense_verify(spec, rho, PARITY_TIMES) is True
        assert gk.verify_invariant(spec, perturbed, PARITY_TIMES) is False
        assert _dense_verify(spec, perturbed, PARITY_TIMES) is False
    for state in (rho, perturbed):
        _assert_norms_match_dense(spec, state)


def _drift_bounds(spec, rho, times):
    """The pair-block route's drift bounds, from L(rho) read off apply_generator."""
    image = gk.apply_generator(spec, rho)
    k, ell = np.triu_indices(spec.N, 1)  # the pairs in basis._pair_levels order
    images = np.diag(image), np.stack((image[k, ell], image[ell, k]), axis=1)
    laplacian, blocks = _pair_block_table(spec)
    return kernel._drift_bounds(laplacian, blocks, images, list(times))


def _dense_drift_bounds(spec, rho, times):
    """The dense route's drift bounds: the superoperator S is the one sector, with no pair."""
    S = gk.superoperator(spec)
    images = S @ gk.to_standard_coordinates(rho), np.empty((0, 2), dtype=complex)
    return kernel._drift_bounds(S, np.empty((0, 2, 2), dtype=complex), images, list(times))


def _certificate_specs(golden_dir):
    """(spec, its route's bounds): pair-block specs, then dense ones."""
    rng = np.random.default_rng(4960)
    specs = [random_pbd_spec(rng, N) for N in range(2, 8) for _ in range(4)]
    specs += [s for s in pair_block_families().values() if gk.validate(s).verdict]
    for name in ("superposition", "ladder", "menagerie"):
        path = golden_dir / f"{name}.spec.json"
        specs.append(gk.parse_spec_document(json.loads(path.read_text())))
    dense = [random_valid_spec(rng, N) for N in range(2, 6) for _ in range(3)]
    return [(s, _drift_bounds) for s in specs] + [(s, _dense_drift_bounds) for s in dense]


@pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20])
def test_drift_bound_is_at_least_the_drift(golden_dir, scale):
    # |exp(tL)(rho) - rho|_F, by expm of the dense superoperator, never
    # exceeds the bound of either route; rates scaled by a power of two keep
    # the exact pattern, or its absence.
    rng = np.random.default_rng(4961)
    times = (0.0, 0.1, 2.0, 50.0)
    checked = dict.fromkeys((_drift_bounds, _dense_drift_bounds), 0)
    for spec, drift_bounds in _certificate_specs(golden_dir):
        spec = gk.GeneratorSpec(H=scale * spec.H, gamma=scale * spec.gamma)
        on_pattern = spec._on_pair_pattern and not (spec.H - np.diag(np.diag(spec.H))).any()
        assert on_pattern is (drift_bounds is _drift_bounds)
        for _ in range(2):
            rho = random_density_matrix(rng, spec.N)
            bounds = drift_bounds(spec, rho, times)
            drifts = _dense_drifts(spec, rho, times)
            assert bounds[0] == drifts[0] == 0.0
            assert all(d <= b for d, b in zip(drifts, bounds)), (drifts, bounds)
            checked[drift_bounds] += 1
    assert checked[_drift_bounds] >= 80 and checked[_dense_drift_bounds] >= 24


def test_drift_bound_of_a_growing_sector():
    # mu_1 = 1 on the diagonal sector and -1 on the one pair block.  A sector
    # with Ax = 0 adds nothing, even where its phi overflows; a moving one
    # whose phi overflows (e^1000) gives an infinite bound, with no warning.
    laplacian = np.array([[1.0 + 0j]])
    pairs = np.array([[[-1.0, 0.0], [0.0, -1.0]]], dtype=complex)
    # Bounds near 1e-300, whose squares underflow, stay nonzero.
    still, moving = np.zeros(1, dtype=complex), np.full(1, 1e-300 + 0j)
    times = [0.0, 1.0, 1000.0]
    bounds = kernel._drift_bounds(laplacian, pairs, (still, np.full((1, 2), 1e-300)), times)
    assert bounds == [0.0, 2e-300, 1000.0 * 2e-300]
    bounds = kernel._drift_bounds(laplacian, pairs, (moving, np.zeros((1, 2))), times)
    assert bounds[0] == 0.0 and bounds[1] >= (math.e - 1.0) * 1e-300 and bounds[2] == math.inf


# ---------------------------------------------------------------------------
# semigroup-level properties
# ---------------------------------------------------------------------------


def test_semigroup_preserves_states():
    rng = np.random.default_rng(47)
    for N in (2, 3):
        for _ in range(5):
            spec = random_valid_spec(rng, N)
            S = gk.superoperator(spec)
            rho0 = random_density_matrix(rng, N)
            v0 = gk.to_standard_coordinates(rho0)
            for t in (0.1, 1.0, 10.0):
                vt = scipy.linalg.expm(t * S) @ v0
                rho_t = gk.from_standard_coordinates(vt, N)
                assert np.max(np.abs(rho_t - rho_t.conj().T)) < 1e-7
                assert abs(np.trace(rho_t) - 1.0) < 1e-7
                evals = np.linalg.eigvalsh((rho_t + rho_t.conj().T) / 2.0)
                assert evals.min() > -1e-7


def test_canonical_dephasing_sums_nonnegative():
    # in canonical form gamma_kk + gamma_ll - gamma_kkll - gamma_llkk >= 0
    # up to tolerance (it equals an expectation of a PSD matrix)
    rng = np.random.default_rng(48)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        canon = gk.canonicalize(random_valid_spec(rng, N))
        scale = max(1.0, float(np.abs(canon.gamma).max()))
        for k in range(1, N + 1):
            for ell in range(k + 1, N + 1):
                pk = gk.standard_position(k, k, N)
                pl = gk.standard_position(ell, ell, N)
                value = (
                    canon.gamma[pk, pk] + canon.gamma[pl, pl]
                    - canon.gamma[pk, pl] - canon.gamma[pl, pk]
                ).real
                assert value >= -1e-9 * scale


def test_coherence_sector_negative_without_hamiltonian():
    # H = 0, pair-block coefficients, diagonal population sector: the
    # coherence-sector compression of the superoperator is Hermitian and
    # negative semidefinite
    rng = np.random.default_rng(49)
    for _ in range(10):
        N = int(rng.integers(2, 5))
        blocks = {}
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                if rng.random() < 0.6:
                    blocks[(i, j)] = random_psd(rng, 2)
        diag = np.diag(rng.uniform(0.0, 2.0, size=N)).astype(complex)
        spec = pair_block_spec(N, np.zeros((N, N)), blocks, diag=diag)
        S = gk.superoperator(spec)
        R = N * N - N
        block = S[:R, :R]
        assert np.max(np.abs(block - block.conj().T)) < 1e-10
        evals = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
        assert evals.max() <= 1e-9 * max(1.0, abs(evals.min()))


# ---------------------------------------------------------------------------
# sector coupling through the identity direction only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_identity_coupled_spec_takes_the_analytic_route(seed):
    # Not pair-block diagonal as given, pair-block diagonal once the
    # identity row and column are moved into H.
    spec = identity_coupled_spec(np.random.default_rng(seed), 4, 0.3)
    assert not gk.classify_pair_block_diagonal(spec).is_pair_block_diagonal
    assert gk.classify_pair_block_diagonal(gk.canonicalize(spec)).is_pair_block_diagonal
    analytic = gk.full_kernel(spec)
    oracle = gk.brute_force_kernel(spec)
    assert analytic.method == "analytic"
    assert analytic.dimension == oracle.dimension
    assert max_principal_angle(kernel_matrices(analytic), kernel_matrices(oracle)) < 1e-7


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("coupling", [0.3 - 0.2j, 0.3 + 0.2j])
def test_identity_coupling_with_imaginary_part_leaves_h_off_diagonal(seed, coupling):
    spec = identity_coupled_spec(np.random.default_rng(seed), 4, coupling)
    message = "canonicalized Hamiltonian is not diagonal"
    with pytest.raises(gk.PreconditionError, match=message):
        gk.full_kernel(spec)


# ---------------------------------------------------------------------------
# exact ground truth: the nullity of L in rational arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(pair_block_families()))
def test_kernel_dimension_is_the_exact_nullity_on_every_pair_block_family(name):
    # The analytic route where the spec is valid; the oracle where it is not.
    spec = pair_block_families()[name]
    exact = exact_nullity(spec)
    if gk.validate(spec).verdict:
        assert gk.full_kernel(spec).dimension == exact
    else:
        with pytest.raises(gk.PreconditionError):
            gk.full_kernel(spec)
        assert gk.brute_force_kernel(spec).dimension == exact


@pytest.mark.parametrize("name, dimension", [("superposition", 2), ("menagerie", 8)])
def test_golden_kernel_dimension_is_the_exact_nullity(golden_dir, name, dimension):
    path = golden_dir / f"{name}.spec.json"
    spec = gk.parse_spec_document(json.loads(path.read_text()))
    assert exact_nullity(spec) == gk.full_kernel(spec).dimension == dimension


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3 (one tolerance rule): thresholds are absolute below scale 1",
)
def test_kernel_dimension_of_the_superposition_scaled_by_2_to_the_minus_34():
    # Scaling H and gamma by a power of two is exact and leaves the kernel
    # as it is, but full_kernel's absolute thresholds see 9 dimensions.
    spec = superposition_decay_spec()
    scaled = gk.GeneratorSpec(H=2.0**-34 * spec.H, gamma=2.0**-34 * spec.gamma)
    assert exact_nullity(scaled) == gk.brute_force_kernel(scaled).dimension == 2
    assert gk.full_kernel(scaled).dimension == 2


#: The valid pair-block families with N <= 6.
EXACT_BASIS_FAMILIES = sorted(
    name
    for name, spec in pair_block_families().items()
    if spec.N <= 6 and gk.validate(spec).verdict
)


def _assert_kernel_spans_the_exact_null_vectors(spec):
    exact = exact_null_vectors(spec)
    elements = kernel_matrices(gk.full_kernel(spec))
    assert len(elements) == len(exact) == exact_nullity(spec)
    assert max_principal_angle(elements, exact) <= 1e-10


@pytest.mark.parametrize("name", EXACT_BASIS_FAMILIES)
def test_kernel_elements_span_the_exact_null_vectors(name):
    _assert_kernel_spans_the_exact_null_vectors(pair_block_families()[name])


@pytest.mark.parametrize("name", ["ladder", "menagerie", "superposition"])
def test_golden_kernel_elements_span_the_exact_null_vectors(golden_dir, name):
    doc = json.loads((golden_dir / f"{name}.spec.json").read_text())
    _assert_kernel_spans_the_exact_null_vectors(gk.parse_spec_document(doc))


def test_random_pair_block_kernel_dimension_is_the_exact_nullity():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        spec = random_pbd_spec(rng, int(rng.integers(1, 6)))
        assert gk.full_kernel(spec).dimension == exact_nullity(spec)


# ---------------------------------------------------------------------------
# exact relations at large N, where no oracle runs
# ---------------------------------------------------------------------------

#: The sizes of the strongly connected specs, past the oracle's reach.
RELATION_SIZES = (64, 256)
RELATION_SPEC_NAMES = [
    *sorted(n for n, s in pair_block_families().items() if gk.validate(s).verdict),
    *(f"golden_{p.name.split('.')[0]}" for p in sorted(GOLDEN_DIR.glob("*.spec.json"))),
    *(f"strongly_connected_N{N}" for N in RELATION_SIZES),
]


@functools.cache
def _relation_specs() -> dict[str, gk.GeneratorSpec]:
    """The specs of ``RELATION_SPEC_NAMES``, each built from its pattern data alone."""
    specs = {
        n: _pattern_spec(s.H, s._pattern.pairs, s._pattern.G)
        for n, s in pair_block_families().items()
        if gk.validate(s).verdict
    }
    for path in sorted(GOLDEN_DIR.glob("*.spec.json")):
        doc = json.loads(path.read_text())
        specs[f"golden_{path.name.split('.')[0]}"] = gk.parse_spec_document(doc)
    for N in RELATION_SIZES:
        doc = strongly_connected_blocks_document(np.random.default_rng(1), N)
        specs[f"strongly_connected_N{N}"] = gk.parse_spec_document(doc)
    return specs


def _pattern_spec(H, pairs, G) -> gk.GeneratorSpec:
    return gk.GeneratorSpec(H=H, gamma=_PairPattern(pairs, G))


def _element_bytes(spec) -> list:
    return [(el.tag, el.support, el.matrix.tobytes()) for el in gk.full_kernel(spec).elements]


@pytest.mark.parametrize("name", RELATION_SPEC_NAMES)
def test_kernel_elements_are_bit_identical_under_power_of_two_scaling(name):
    # Multiplying H and gamma by 2**k is exact in binary floating point (no
    # scaling down: that is ROADMAP item 3's defect, pinned by an xfail).
    spec = _relation_specs()[name]
    expected = _element_bytes(spec)
    pattern = spec._pattern
    for k in (0, 1, 10, 30, 60):
        s = 2.0**k
        scaled = _pattern_spec(s * spec.H, s * pattern.pairs, s * pattern.G)
        assert _element_bytes(scaled) == expected, k


@pytest.mark.parametrize("name", RELATION_SPEC_NAMES)
def test_kernel_elements_are_bit_identical_under_an_energy_shift(name):
    spec = _relation_specs()[name]
    shifted = _pattern_spec(spec.H + 3.0 * np.eye(spec.N), spec._pattern.pairs, spec._pattern.G)
    assert _element_bytes(shifted) == _element_bytes(spec)


def _permuted(spec: gk.GeneratorSpec, perm: np.ndarray) -> gk.GeneratorSpec:
    """``spec`` with level i relabelled ``perm[i]`` (0-based), built from its pattern data."""
    N = spec.N
    levels = _pair_levels(N) - 1
    index = np.zeros((N, N), dtype=int)
    index[levels[:, 0], levels[:, 1]] = np.arange(len(levels))
    a, b = perm[levels[:, 0]], perm[levels[:, 1]]
    blocks = spec._pattern.pairs.copy()
    swapped = a > b  # the block over ((l, k), (k, l)): both labels exchange
    blocks[swapped] = blocks[swapped][:, ::-1, ::-1]
    pairs = np.empty_like(blocks)
    pairs[index[np.minimum(a, b), np.maximum(a, b)]] = blocks
    back = np.argsort(perm)
    return _pattern_spec(spec.H[np.ix_(back, back)], pairs, spec._pattern.G[np.ix_(back, back)])


@pytest.mark.parametrize("name", RELATION_SPEC_NAMES)
def test_kernel_elements_permute_with_the_levels(name):
    spec = _relation_specs()[name]
    perm = np.random.default_rng(spec.N).permutation(spec.N)
    back = np.argsort(perm)
    expected = [m[np.ix_(back, back)] for m in kernel_matrices(gk.full_kernel(spec))]
    got = kernel_matrices(gk.full_kernel(_permuted(spec, perm)))
    assert len(got) == len(expected)
    if got:
        assert max_principal_angle(got, expected) <= 1e-12


@pytest.mark.parametrize("name", RELATION_SPEC_NAMES)
def test_kernel_element_residuals_are_below_the_generator_scale(name):
    spec = _relation_specs()[name]
    pattern = spec._pattern
    scale = max(np.abs(a).max(initial=0.0) for a in (spec.H, pattern.pairs, pattern.G))
    for el in gk.full_kernel(spec).elements:
        assert next(kernel._generator_norms(spec, el.matrix, [])) <= 1e-12 * scale
