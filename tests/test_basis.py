"""Basis-layer tests: orderings, matrix units, orthonormal basis, transforms."""

import sys

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph.basis import _diagonal_block, _max_off_block, _pair_block
from helpers import random_hermitian, random_pair_block_matrix

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
    for q, (i, j) in enumerate(gk.gellmann_labels(N)):
        assert gk.gellmann_position(i, j, N) == q


@pytest.mark.parametrize("N", range(2, 8))
def test_pair_block_is_a_view_of_the_labelled_block(N):
    M = np.arange(N**4, dtype=complex).reshape(N * N, N * N)
    d = [gk.standard_position(n, n, N) for n in range(1, N + 1)]
    assert np.array_equal(M[-N:, -N:], M[np.ix_(d, d)])
    for k in range(1, N + 1):
        for ell in range(k + 1, N + 1):
            p = [gk.standard_position(k, ell, N), gk.standard_position(ell, k, N)]
            assert np.array_equal(_pair_block(M, k, ell, N), M[np.ix_(p, p)])
            written, expected = M.copy(), M.copy()
            _pair_block(written, k, ell, N)[...] = -1.0
            expected[np.ix_(p, p)] = -1.0
            assert np.array_equal(written, expected)


def test_position_rejects_bad_labels():
    with pytest.raises(ValueError):
        gk.standard_position(0, 1, 3)
    with pytest.raises(ValueError):
        gk.standard_position(1, 4, 3)
    with pytest.raises(ValueError):
        gk.gellmann_position(4, 4, 3)


# ---------------------------------------------------------------------------
# matrix units and the orthonormal basis
# ---------------------------------------------------------------------------


def test_matrix_unit_entries():
    E = gk.matrix_unit(2, 3, 4)
    expected = np.zeros((4, 4))
    expected[1, 2] = 1.0
    assert np.array_equal(E, expected)


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
            ip = gk.hs_inner(A, B)
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
def test_expansion_reconstructs_matrix_units(N):
    labels = gk.gellmann_labels(N)
    for (i, j) in gk.standard_labels(N):
        coeffs = gk.expand_standard_in_gellmann(i, j, N)
        M = sum(c * gk.gellmann(a, b, N) for c, (a, b) in zip(coeffs, labels))
        assert np.max(np.abs(M - gk.matrix_unit(i, j, N))) < 1e-12


def test_expansion_matches_inner_products():
    # the expansion coefficients are exactly the overlaps <lam_q, E_ij>
    N = 4
    for (i, j) in gk.standard_labels(N):
        E = gk.matrix_unit(i, j, N)
        coeffs = gk.expand_standard_in_gellmann(i, j, N)
        for q, (a, b) in enumerate(gk.gellmann_labels(N)):
            assert abs(coeffs[q] - gk.hs_inner(gk.gellmann(a, b, N), E)) < 1e-12


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


@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_basis_change_matrix_unitary(N):
    W = gk.basis_change_matrix(N)
    assert np.max(np.abs(W @ W.conj().T - np.eye(N * N))) < 1e-12


@pytest.mark.parametrize("N", [2, 3, 4])
def test_basis_change_matrix_is_overlap_table(N):
    # independent route: W[q, p] should be the overlap of the q-th
    # orthonormal basis element with the p-th matrix unit
    W = gk.basis_change_matrix(N)
    for q, (a, b) in enumerate(gk.gellmann_labels(N)):
        lam = gk.gellmann(a, b, N)
        for p, (i, j) in enumerate(gk.standard_labels(N)):
            ip = gk.hs_inner(lam, gk.matrix_unit(i, j, N))
            assert abs(W[q, p] - ip) < 1e-13


@pytest.mark.parametrize("N", range(1, 6))
def test_diagonal_block_is_the_diagonal_sector_of_w(N):
    R = N * N - N
    assert _diagonal_block(N).tobytes() == gk.basis_change_matrix(N)[R:, R:].tobytes()


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
    W = gk.basis_change_matrix(N)
    for _ in range(10):
        M = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        gm_coords = W @ gk.to_standard_coordinates(M)
        for q, (a, b) in enumerate(gk.gellmann_labels(N)):
            assert abs(gm_coords[q] - gk.hs_inner(gk.gellmann(a, b, N), M)) < 1e-12


def test_operator_basis_change_preserves_action():
    rng = np.random.default_rng(11)
    N = 3
    W = gk.basis_change_matrix(N)
    for _ in range(25):
        M = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        M_gm = gk.operator_basis_change(M, "standard", "gellmann")
        v = rng.normal(size=N * N) + 1j * rng.normal(size=N * N)
        lhs = M_gm @ (W @ v)
        rhs = W @ (M @ v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_operator_basis_change_round_trip():
    rng = np.random.default_rng(12)
    for N in (2, 4):
        M = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        back = gk.operator_basis_change(
            gk.operator_basis_change(M, "standard", "gellmann"), "gellmann", "standard"
        )
        assert np.max(np.abs(back - M)) < 1e-12
        same = gk.operator_basis_change(M, "standard", "standard")
        assert np.max(np.abs(same - M)) < 1e-14


@pytest.mark.parametrize("N", range(1, 8))
@pytest.mark.parametrize("pattern", ["dense", "pair-block"])
def test_operator_basis_change_matches_dense_products(N, pattern):
    # The conjugation is computed from the blocks of W; the dense products
    # with the full W are the reference.
    rng = np.random.default_rng(40 + N)
    n = N * N
    W = gk.basis_change_matrix(N)
    for _ in range(3):
        if pattern == "dense":
            M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        else:
            M = random_pair_block_matrix(rng, N)
        scale = np.max(np.abs(M))
        to_gm = gk.operator_basis_change(M, "standard", "gellmann")
        to_std = gk.operator_basis_change(M, "gellmann", "standard")
        assert np.max(np.abs(to_gm - W @ M @ W.conj().T)) <= 1e-13 * scale
        assert np.max(np.abs(to_std - W.conj().T @ M @ W)) <= 1e-13 * scale
        if pattern == "pair-block":
            # W is block diagonal, so the zero pattern survives exactly.
            assert _max_off_block(to_gm, N) == 0.0
            assert _max_off_block(to_std, N) == 0.0


def test_operator_basis_change_rejects_unknown_names():
    M = np.eye(4)
    with pytest.raises(ValueError):
        gk.operator_basis_change(M, "standard", "pauli")
    with pytest.raises(ValueError):
        gk.operator_basis_change(M, "fock", "standard")


# ---------------------------------------------------------------------------
# pair-block conversion
# ---------------------------------------------------------------------------


def test_pair_block_unitary_pinned():
    U = gk.pair_block_unitary()
    assert np.allclose(U, np.array([[1.0, 1.0], [1.0j, -1.0j]]) / RT2)
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-15


def test_convert_block_pinned_example():
    # a pure rate-1 dissipator on the first off-diagonal orthonormal element
    c_blk = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    g_blk = gk.convert_block(c_blk, "c-to-gamma")
    assert np.max(np.abs(g_blk - 0.5 * np.ones((2, 2)))) < 1e-15
    back = gk.convert_block(g_blk, "gamma-to-c")
    assert np.max(np.abs(back - c_blk)) < 1e-15


def test_convert_block_round_trips():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        there = gk.convert_block(blk, "gamma-to-c")
        back = gk.convert_block(there, "c-to-gamma")
        assert np.max(np.abs(back - blk)) < 1e-12


def test_convert_block_matches_full_transform():
    # cross-route: embedding a single pair block into a full coefficient
    # matrix and conjugating by the full change-of-basis unitary must give
    # the same 2x2 block as convert_block
    rng = np.random.default_rng(5)
    N = 2
    W = gk.basis_change_matrix(N)
    blk = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gamma = np.zeros((4, 4), dtype=complex)
    gamma[:2, :2] = blk
    C = W @ gamma @ W.conj().T
    assert np.max(np.abs(C[:2, :2] - gk.convert_block(blk, "gamma-to-c"))) < 1e-13


def test_convert_block_rejects_bad_args():
    with pytest.raises(ValueError):
        gk.convert_block(np.eye(3), "gamma-to-c")
    with pytest.raises(ValueError):
        gk.convert_block(np.eye(2), "sideways")


# ---------------------------------------------------------------------------
# small predicates
# ---------------------------------------------------------------------------


def test_hs_inner_is_trace_pairing():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert abs(gk.hs_inner(A, B) - np.trace(A.conj().T @ B)) < 1e-13


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


def test_random_hermitian_helper_sanity():
    rng = np.random.default_rng(8)
    assert gk.is_hermitian(random_hermitian(rng, 5))
