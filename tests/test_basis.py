"""Basis-layer tests: orderings, matrix units, orthonormal basis, transforms."""

import sys
import warnings

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph.basis import (
    _certified_psd,
    _conjugate_by_w,
    _diagonal_block,
    _max_off_block,
    _pair_blocks,
    _pair_index,
    _pair_levels,
    _psd_test,
    _standard_flat_order,
    _standard_position_array,
)
from gkslgraph.io import parse_spec_document, spec_to_document
from helpers import (
    NEAR_THRESHOLD_SCALE_BLOCK,
    basis_change_matrix,
    blocks_document,
    identity_coupled_spec,
    lowest_eigenvalue_block,
    near_threshold_psd_specs,
    pair_block,
    pair_block_families,
    random_consistent_spec,
    random_hermitian,
    random_identity_preserving_spec,
    random_pair_block_matrix,
    random_valid_spec,
    reference_diagonal_block,
    reference_flat_order,
    reference_gellmann,
    reference_pair_levels,
    reference_position_array,
    reference_standard_labels,
    reference_validate,
    to_gellmann,
    to_standard,
)

RT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# label orderings and position arithmetic
# ---------------------------------------------------------------------------


def test_standard_labels_n3_pinned():
    assert gk.standard_labels(3) == (
        (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2),
        (1, 1), (2, 2), (3, 3),
    )


def test_gellmann_labels_n3_pinned():
    assert gk.gellmann_labels(3) == (
        (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2),
        (1, 1), (2, 2), (3, 3),
    )


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_standard_position_closed_form(N):
    # Independent arithmetic for the position of each label: the pair (i, j)
    # with i < j is preceded by (i-1)N - i(i-1)/2 + (j-i-1) lex-earlier pairs.
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                expected = N * N - N + (i - 1)
            else:
                lo, hi = min(i, j), max(i, j)
                t = (lo - 1) * N - lo * (lo - 1) // 2 + (hi - lo - 1)
                expected = 2 * t + (0 if i < j else 1)
            assert gk.standard_position(i, j, N) == expected
            assert gk.standard_labels(N)[expected] == (i, j)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_positions_invert_labels(N):
    for q, (i, j) in enumerate(gk.standard_labels(N)):
        assert gk.standard_position(i, j, N) == q


@pytest.mark.parametrize("N", range(1, 13))
def test_pair_levels_are_the_pair_labels_and_pair_index_inverts_them(N):
    R = N * N - N
    levels = _pair_levels(N)
    assert not levels.flags.writeable
    assert levels.shape == (R // 2, 2)
    assert list(map(tuple, levels.tolist())) == list(gk.standard_labels(N)[0:R:2])
    k, ell = levels.T
    assert _pair_index(k, ell, N).tolist() == list(range(R // 2))
    for t, (a, b) in enumerate(levels.tolist()):
        assert _pair_index(a, b, N) == t == gk.standard_position(a, b, N) // 2


@pytest.mark.parametrize("N", range(2, 8))
def test_pair_block_is_a_view_of_the_labelled_block(N):
    # Block t of _pair_blocks, and the tests' pair_block, are M's block over
    # the labels of pair t; a write through either lands there.
    M = np.arange(N**4, dtype=complex).reshape(N * N, N * N)
    d = [gk.standard_position(n, n, N) for n in range(1, N + 1)]
    assert np.array_equal(M[-N:, -N:], M[np.ix_(d, d)])
    for k in range(1, N + 1):
        for ell in range(k + 1, N + 1):
            p = [gk.standard_position(k, ell, N), gk.standard_position(ell, k, N)]
            t = _pair_index(k, ell, N)
            expected = M.copy()
            expected[np.ix_(p, p)] = -1.0
            for view in (lambda A: _pair_blocks(A, N)[t], lambda A: pair_block(A, k, ell, N)):
                assert np.array_equal(view(M), M[np.ix_(p, p)])
                written = M.copy()
                view(written)[...] = -1.0
                assert np.array_equal(written, expected)


def test_position_rejects_bad_labels():
    with pytest.raises(ValueError):
        gk.standard_position(0, 1, 3)
    with pytest.raises(ValueError):
        gk.standard_position(1, 4, 3)


# ---------------------------------------------------------------------------
# matrix units and the orthonormal basis
# ---------------------------------------------------------------------------


def test_matrix_unit_entries():
    E = gk.matrix_unit(2, 3, 4)
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(E, expected)


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (3, 1), (1, 3)])
def test_matrix_units_and_gellmann_matrices_reject_labels_out_of_range(i, j):
    with pytest.raises(ValueError, match=rf"matrix unit \({i}, {j}\) out of range for N=2"):
        gk.matrix_unit(i, j, 2)
    with pytest.raises(ValueError, match=rf"Gell-Mann label \({i}, {j}\) out of range for N=2"):
        gk.gellmann(i, j, 2)


def test_gellmann_qubit_pinned():
    assert np.allclose(gk.gellmann(1, 2, 2), np.array([[0, 1], [1, 0]]) / RT2)
    assert np.allclose(gk.gellmann(2, 1, 2), np.array([[0, -1j], [1j, 0]]) / RT2)
    assert np.allclose(gk.gellmann(1, 1, 2), np.array([[1, 0], [0, -1]]) / RT2)
    # identity sentinel
    assert np.allclose(gk.gellmann(2, 2, 2), np.eye(2) / RT2)


def test_gellmann_diagonal_n3():
    lam22 = (np.diag([1.0, 1.0, -2.0])) / np.sqrt(6.0)
    assert np.allclose(gk.gellmann(2, 2, 3), lam22)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_gellmann_orthonormality_exhaustive(N):
    labels = gk.gellmann_labels(N)
    mats = [gk.gellmann(i, j, N) for (i, j) in labels]
    for a, A in enumerate(mats):
        for b, B in enumerate(mats):
            ip = np.vdot(A, B)
            assert abs(ip - (1.0 if a == b else 0.0)) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_gellmann_hermitian_traceless(N):
    for (i, j) in gk.gellmann_labels(N):
        lam = gk.gellmann(i, j, N)
        assert gk.is_hermitian(lam)
        if (i, j) == (N, N):
            assert abs(np.trace(lam) - N / np.sqrt(N)) < 1e-12
        else:
            assert abs(np.trace(lam)) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_basis_change_columns_reconstruct_matrix_units(N):
    # Column p of W holds the Gell-Mann coefficients of the p-th matrix unit.
    labels = gk.gellmann_labels(N)
    W = basis_change_matrix(N)
    for (i, j) in gk.standard_labels(N):
        coeffs = W[:, gk.standard_position(i, j, N)]
        M = sum(c * gk.gellmann(a, b, N) for c, (a, b) in zip(coeffs, labels))
        assert np.max(np.abs(M - gk.matrix_unit(i, j, N))) < 1e-12


# ---------------------------------------------------------------------------
# coordinates and the change-of-basis unitary
# ---------------------------------------------------------------------------


def test_coordinates_one_hot():
    v = gk.to_standard_coordinates(gk.matrix_unit(2, 3, 3))
    expected = np.zeros(9)
    expected[gk.standard_position(2, 3, 3)] = 1.0
    assert np.array_equal(v, expected)


def test_coordinates_round_trip():
    rng = np.random.default_rng(20260822)
    for N in (2, 3, 5):
        for _ in range(20):
            M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            v = gk.to_standard_coordinates(M)
            assert np.max(np.abs(gk.from_standard_coordinates(v, N) - M)) < 1e-14


def test_coordinates_reject_wrong_shapes():
    with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
        gk.to_standard_coordinates(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"expected a vector of length 4, got \(5,\)"):
        gk.from_standard_coordinates(np.zeros(5), 2)


@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_basis_change_matrix_unitary(N):
    W = basis_change_matrix(N)
    assert np.max(np.abs(W @ W.conj().T - np.eye(N * N))) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_basis_change_matrix_is_overlap_table(N):
    # independent route: W[q, p] should be the overlap of the q-th
    # orthonormal basis element with the p-th matrix unit
    W = basis_change_matrix(N)
    for q, (a, b) in enumerate(gk.gellmann_labels(N)):
        lam = gk.gellmann(a, b, N)
        for p, (i, j) in enumerate(gk.standard_labels(N)):
            ip = np.vdot(lam, gk.matrix_unit(i, j, N))
            assert abs(W[q, p] - ip) < 1e-13


@pytest.mark.parametrize("N", range(1, 6))
def test_diagonal_block_is_the_diagonal_sector_of_w(N):
    R = N * N - N
    assert _diagonal_block(N).tobytes() == basis_change_matrix(N)[R:, R:].tobytes()


#: Sizes at which the derived tables are pinned to the loop builders of ``helpers``.
TABLE_SIZES = [1, 2, 3, 4, 7, 16, 33, 64]


@pytest.mark.parametrize("N", TABLE_SIZES)
def test_label_tables_equal_the_loop_builders_byte_for_byte(N):
    labels = gk.standard_labels(N)
    assert labels == reference_standard_labels(N)
    assert {type(x) for label in labels for x in label} == {int}
    for table, reference in (
        (_standard_position_array(N), reference_position_array(N)),
        (_pair_levels(N), reference_pair_levels(N)),
        (_standard_flat_order(N), reference_flat_order(N)),
    ):
        assert (table.dtype, table.shape) == (reference.dtype, reference.shape)
        assert table.tobytes() == reference.tobytes()
        assert not table.flags.writeable


@pytest.mark.parametrize("N", TABLE_SIZES)
def test_diagonal_block_and_diagonal_gellmann_equal_the_dense_builders_byte_for_byte(N):
    # The closed form divides in complex arithmetic, as the dense builder
    # does; a real division moves -3/sqrt(12) in its last bit.
    D = _diagonal_block(N)
    assert D.tobytes() == reference_diagonal_block(N).tobytes()
    assert not D.flags.writeable
    for n in range(1, N + 1):
        assert gk.gellmann(n, n, N).tobytes() == reference_gellmann(n, n, N).tobytes()


def test_flat_order_is_one_cached_table_and_gellmann_a_fresh_matrix():
    assert _standard_flat_order(5) is _standard_flat_order(5)
    lam = gk.gellmann(2, 2, 5)
    lam[0, 0] = 7.0  # a caller's write does not reach W's diagonal block
    assert _diagonal_block(5).tobytes() == reference_diagonal_block(5).tobytes()


@pytest.mark.parametrize("N", [0, -1])
def test_standard_labels_reject_a_dimension_below_one(N):
    with pytest.raises(ValueError, match=f"dimension must be positive, got {N}"):
        gk.standard_labels(N)


def test_no_cached_table_grows_past_n_squared():
    # Every per-N cache of the package holds O(N^2) entries, never N^4.
    N = 5
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "gkslgraph":
            continue
        for attr, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == name:
                table = fn(N) if fn.__wrapped__.__code__.co_argcount else fn()
                assert np.size(table) <= 2 * N * N, f"{name}.{attr}"


def test_basis_change_transforms_coordinates():
    rng = np.random.default_rng(7)
    N = 4
    W = basis_change_matrix(N)
    for _ in range(10):
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        gm_coords = W @ gk.to_standard_coordinates(M)
        for q, (a, b) in enumerate(gk.gellmann_labels(N)):
            assert abs(gm_coords[q] - np.vdot(gk.gellmann(a, b, N), M)) < 1e-12


def test_conjugate_by_w_preserves_action():
    rng = np.random.default_rng(11)
    N = 3
    W = basis_change_matrix(N)
    for _ in range(25):
        M = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        M_gm = to_gellmann(M)
        v = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
        lhs = M_gm @ (W @ v)
        rhs = W @ (M @ v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_conjugate_by_w_round_trip():
    rng = np.random.default_rng(12)
    for N in (2, 4):
        M = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        A = M.copy()
        assert _conjugate_by_w(A, inverse=False) is A
        assert _conjugate_by_w(A, inverse=True) is A
        assert np.max(np.abs(A - M)) < 1e-12


@pytest.mark.parametrize("N", range(1, 8))
@pytest.mark.parametrize("pattern", ["dense", "pair-block"])
def test_conjugate_by_w_matches_dense_products(N, pattern):
    # The conjugation is computed from the blocks of W; the dense products
    # with the full W are the reference.
    rng = np.random.default_rng(40 + N)
    n = N * N
    W = basis_change_matrix(N)
    for _ in range(3):
        if pattern == "dense":
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        else:
            M = random_pair_block_matrix(rng, N)
        scale = np.max(np.abs(M))
        to_gm = to_gellmann(M)
        to_std = to_standard(M)
        assert np.max(np.abs(to_gm - W @ M @ W.conj().T)) <= 1e-13 * scale
        assert np.max(np.abs(to_std - W.conj().T @ M @ W)) <= 1e-13 * scale
        if pattern == "pair-block":
            # W is block diagonal, so the zero pattern survives exactly.
            assert _max_off_block(to_gm, N) == 0.0
            assert _max_off_block(to_std, N) == 0.0


# ---------------------------------------------------------------------------
# the pair-block unitary
# ---------------------------------------------------------------------------


def test_pair_block_unitary_pinned():
    U = gk.pair_block_unitary()
    assert np.allclose(U, np.array([[1.0, 1.0], [1.0j, -1.0j]]) / RT2)
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-15


def test_pair_block_unitary_converts_a_rate_one_block():
    # a pure rate-1 dissipator on the first off-diagonal orthonormal element
    U = gk.pair_block_unitary()
    c_blk = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    g_blk = U.conj().T @ c_blk @ U
    assert np.max(np.abs(g_blk - 0.5 * np.ones((2, 2)))) < 1e-15
    back = U @ g_blk @ U.conj().T
    assert np.max(np.abs(back - c_blk)) < 1e-15


def test_pair_block_unitary_conversion_round_trips():
    U = gk.pair_block_unitary()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        there = U @ blk @ U.conj().T
        back = U.conj().T @ there @ U
        assert np.max(np.abs(back - blk)) < 1e-12


def test_pair_block_unitary_matches_full_transform():
    # cross-route: embedding a single pair block into a full coefficient
    # matrix and conjugating by the full change-of-basis unitary must give
    # the same 2x2 block as conjugating by the pair-block unitary
    rng = np.random.default_rng(5)
    N = 2
    W = basis_change_matrix(N)
    U = gk.pair_block_unitary()
    blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[:2, :2] = blk
    C = W @ gamma @ W.conj().T
    assert np.max(np.abs(C[:2, :2] - U @ blk @ U.conj().T)) < 1e-13


# ---------------------------------------------------------------------------
# small predicates
# ---------------------------------------------------------------------------


def test_is_hermitian():
    assert gk.is_hermitian(np.array([[1.0, 2.0 + 1j], [2.0 - 1j, -3.0]]))
    assert not gk.is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # tolerance scales with the matrix
    big = 1e12 * np.eye(2)
    big[0, 1] = 1e-3
    big[1, 0] = 1e-3
    assert gk.is_hermitian(big)


def test_is_psd():
    assert gk.is_psd(np.diag([0.0, 1.0, 2.0]))
    assert not gk.is_psd(np.diag([1.0, -1e-3]))
    # a tiny negative eigenvalue within tolerance still counts
    assert gk.is_psd(np.diag([1.0, -1e-12]))
    assert not gk.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predicates_reject_a_non_finite_entry(bad):
    # An unmirrored inf gives skew = max|A| = inf, which a scaled threshold
    # of inf would pass: the entry fails before any threshold is drawn.
    A = np.array([[-1.0, bad], [0.0, 0.0]])
    assert not gk.is_hermitian(A)
    assert not gk.is_psd(A)


@pytest.mark.parametrize(
    "A",
    [
        np.diag([1.0, np.nan]),
        np.diag([1.0, np.inf]),
        np.diag([1.0, -np.inf]),
        np.array([[0.0, 1e308], [-1e308, 0.0]]),
    ],
    ids=["nan", "inf", "-inf", "overflowing_skew"],
)
def test_predicates_reject_a_non_finite_diagonal_or_skew_with_no_warning(A):
    # The skew of an infinite diagonal entry is inf - inf, which numpy warns
    # of: the entry fails before the skew is formed.  Finite entries whose
    # skew overflows fail on that skew, which is taken with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not gk.is_hermitian(A)
        assert not gk.is_psd(A)


@pytest.mark.parametrize(
    "A, psd",
    [
        (np.full((2, 2), 1e308), True),
        (np.diag([1e308, 1e308]), True),
        (np.array([[1e308, 1e308], [1e308, -1e308]]), False),
        (np.array([[1e308, 1e308j], [-1e308j, 1e-300]]), False),
    ],
    ids=["rank_one", "overflowing_trace", "indefinite", "complex"],
)
def test_psd_test_of_entries_near_the_largest_float_gives_no_warning(A, psd):
    # (A + A*) / 2 of these entries would overflow if summed first, and the
    # trace of the first two overflows; both are taken with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gk.is_hermitian(A)
        assert gk.is_psd(A) is psd


@pytest.mark.parametrize("scale", [1.0, 4.0])
@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_predicates_hold_at_the_threshold_and_fail_one_float_past_it(tol, scale):
    # The threshold is tol * max(1, scale), exact for scale a power of 2.
    # A diagonal matrix's eigenvalues are its entries, and the skew of
    # [[scale, x], [0, 0]] is x, so both tests see the threshold exactly.
    edge = tol * scale
    past = np.nextafter(edge, np.inf)
    assert gk.is_psd(np.diag([scale, -edge]), tol)
    assert not gk.is_psd(np.diag([scale, -past]), tol)
    assert gk.is_hermitian(np.array([[scale, edge], [0.0, 0.0]]), tol)
    assert not gk.is_hermitian(np.array([[scale, past], [0.0, 0.0]]), tol)


def test_random_hermitian_helper_sanity():
    rng = np.random.default_rng(8)
    assert gk.is_hermitian(random_hermitian(rng, 5))


# ---------------------------------------------------------------------------
# the Cholesky certificate of the PSD test
# ---------------------------------------------------------------------------


def _every_family() -> dict[str, gk.GeneratorSpec]:
    """Every spec family of the helpers, by name: pair-block, near-threshold and dense."""
    rng = np.random.default_rng(97)
    specs = {**pair_block_families(), **near_threshold_psd_specs()}
    for N in range(1, 6):
        specs[f"random_valid_N{N}"] = random_valid_spec(rng, N)
        specs[f"identity_preserving_N{N}"] = random_identity_preserving_spec(rng, N)
    for N in range(2, 6):
        specs[f"identity_coupled_N{N}"] = identity_coupled_spec(rng, N, 0.3 + 0.2j)
        specs[f"consistent_N{N}"] = random_consistent_spec(rng, N)[0]
    return specs


def _read_back(specs: dict[str, gk.GeneratorSpec]):
    """Each spec parsed from its dense document and, on the pattern, from its blocks document."""
    for name, spec in specs.items():
        yield f"{name}_dense", parse_spec_document(spec_to_document(spec))
        if spec._on_pair_pattern:
            yield f"{name}_blocks", parse_spec_document(blocks_document(spec))


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_validate_matches_the_dense_reference_on_every_family(tol):
    # Given and canonical forms, read from both document formats.  The
    # certificate passes only what the spectrum passes, so every verdict is
    # the dense reference's.
    verdicts = set()
    for name, spec in _read_back(_every_family()):
        forms = [(name, spec)]
        if gk.validate(spec, tol).verdict:
            forms.append((f"{name}_canonical", gk.canonicalize(spec, tol)))
        for form, s in forms:
            got, ref = gk.validate(s, tol), reference_validate(s, tol)
            verdicts.add(got.verdict)
            assert got.psd_on_traceless == ref.psd_on_traceless, form
            assert got.trace_condition == ref.trace_condition, form
            assert got.trace_witness == ref.trace_witness, form
            if ref.offending_eigenvalue is None:
                assert got.offending_eigenvalue is None, form
            else:
                assert got.offending_eigenvalue == pytest.approx(
                    ref.offending_eigenvalue, rel=1e-12, abs=1e-15
                ), form
    assert verdicts == {True, False}


def _spectrum_route(monkeypatch):
    """Make every Cholesky fail, so that _psd_test takes the spectrum."""

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("not certified")

    monkeypatch.setattr(np.linalg, "cholesky", failing)


def _boundary_blocks(lowest: float, stacked: bool) -> list[np.ndarray]:
    """Hermitian blocks of largest diagonal entry 2, largest eigenvalue 3.5 and lowest ``lowest``.

    As a list of one (P, 2, 2) stack and one dense block, as on the pattern
    route, or as one dense 6 x 6 matrix whose lowest eigenvalue a random
    unitary spreads over a dense 4 x 4 block.
    """
    if stacked:
        others = [[[0.5, 0.25j], [-0.25j, 0.5]]] * 3
        blocks = [NEAR_THRESHOLD_SCALE_BLOCK, lowest_eigenvalue_block(lowest), *others]
        pairs = np.array(blocks, dtype=complex)
        return [pairs, 0.5 * np.eye(3, dtype=complex)[None]]
    rng = np.random.default_rng(98)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    h = np.zeros((6, 6), dtype=complex)
    h[:2, :2] = NEAR_THRESHOLD_SCALE_BLOCK
    h[2:, 2:] = (Q * [lowest, 0.2, 0.4, 0.6]) @ Q.conj().T
    return [h]


@pytest.mark.parametrize("stacked", [False, True], ids=["dense", "stack"])
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("side", [-1e-6, 1e-6], ids=["inside", "outside"])
@pytest.mark.parametrize("boundary", ["t", "s"])
def test_certificate_agrees_with_the_spectrum_at_both_boundaries(
    monkeypatch, boundary, side, tol, stacked
):
    # t is the PSD threshold tol * 3.5 and s = tol * 2 / 2 the certificate's
    # shift.  On either side of each, _psd_test's verdict and offending
    # eigenvalue are those of the spectrum alone, bit for bit.
    x = tol * 3.5 if boundary == "t" else tol
    blocks = _boundary_blocks(-x * (1.0 + side), stacked)
    got = _psd_test(blocks, tol)
    _spectrum_route(monkeypatch)
    assert got == _psd_test(blocks, tol)
    assert got[0] is not (boundary == "t" and side > 0)  # only past t is not PSD
    if tol == 1e-3:  # far above rounding: the certificate passes just inside its shift
        hermitized = [(b + b.conj().swapaxes(-1, -2)) / 2.0 for b in blocks]
        monkeypatch.undo()
        assert _certified_psd(hermitized, tol) is (boundary == "s" and side < 0)


def test_certificate_is_not_taken_where_rounding_could_exceed_the_shift(psd_calls):
    # A 15 x 15 PD block of diagonal 1: at tol 1e-9 the shift s = 5e-10
    # dominates the guard's bound on the rounding, 4 (n + 1) eps tr = 2e-13;
    # at tol 1e-14 (s = 5e-15) it does not, and no Cholesky is taken.
    h = np.eye(15, dtype=complex) + 0.01 * random_hermitian(np.random.default_rng(7), 15)
    np.fill_diagonal(h, 1.0)
    assert _certified_psd([h], 1e-9)
    assert psd_calls == [("cholesky", (15, 15))]
    psd_calls.clear()
    assert not _certified_psd([h], 1e-14)
    assert psd_calls == []
    assert _psd_test([h], 1e-14)[:2] == (True, None)  # passed by the spectrum instead


def test_no_cholesky_is_taken_at_tolerance_zero(psd_calls):
    # At tol 0 the shift is 0, so the certificate could not pass: every
    # verdict comes from the spectrum, N = 1 and N = 2 included.
    for name, spec in _read_back(_every_family()):
        gk.validate(spec, 0.0)
    assert psd_calls and {name for name, _ in psd_calls} == {"eigvalsh"}


def test_certificate_at_n_1_and_n_2(psd_calls):
    # At N = 1 the traceless block is empty (a (0, 2, 2) pair stack and a
    # 0 x 0 block): nothing is factored.  At N = 2 each block array is
    # factored once: the dense 3 x 3 block, or on the pattern its one pair
    # block and its 1 x 1 diagonal-sector block.
    rng = np.random.default_rng(99)
    specs = {
        "N1": random_valid_spec(rng, 1),
        "N2": random_valid_spec(rng, 2),
        "N2_pattern": gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.diag([1.0, 0.5, 1.0, 1.0])),
    }
    expected = {
        "N1_dense": [],
        "N1_blocks": [],
        "N2_dense": [("cholesky", (1, 3, 3))],
        "N2_pattern_dense": [("cholesky", (1, 2, 2)), ("cholesky", (1, 1, 1))],
        "N2_pattern_blocks": [("cholesky", (1, 2, 2)), ("cholesky", (1, 1, 1))],
    }
    seen = set()
    for name, spec in _read_back(specs):
        psd_calls.clear()
        report = gk.validate(spec)
        assert psd_calls == expected[name], name
        assert report.verdict and report == reference_validate(spec), name
        seen.add(name)
    assert seen == set(expected)
