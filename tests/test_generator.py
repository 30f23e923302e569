"""Generator-layer tests: action, superoperator, validation, canonical form."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import gkslgraph as gk
from helpers import (
    dephasing_ladder_spec,
    pair_block_spec,
    random_hermitian,
    random_identity_preserving_spec,
    random_pbd_spec,
    random_psd,
    random_valid_spec,
    reference_max_off_block,
    reference_superoperator,
    reference_canonicalize,
    reference_validate,
    superposition_decay_spec,
)

RT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# spec containers
# ---------------------------------------------------------------------------


def test_generator_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gk.GeneratorSpec(H=np.zeros((2, 3)), gamma=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        gk.GeneratorSpec(H=np.array([[0.0, 1.0], [0.0, 0.0]]), gamma=np.zeros((4, 4)))


def test_generator_spec_is_frozen():
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.H = np.eye(2)
    assert not spec.H.flags.writeable
    assert not spec.gamma.flags.writeable
    with pytest.raises(ValueError):
        spec.gamma[0, 0] = 1.0


def test_spec_copies_input_arrays():
    H = np.zeros((2, 2), dtype=complex)
    g = np.zeros((4, 4), dtype=complex)
    spec = gk.GeneratorSpec(H=H, gamma=g)
    H[0, 0] = 5.0
    g[0, 0] = 5.0
    assert spec.H[0, 0] == 0.0
    assert spec.gamma[0, 0] == 0.0


def test_spec_freezes_the_converted_array_without_a_copy():
    # The complex conversion of a real gamma is already a fresh array; the
    # spec keeps it instead of copying all N^4 entries again.
    H, gamma = np.zeros((24, 24)), np.zeros((576, 576))
    tracemalloc.start()
    try:
        spec = gk.GeneratorSpec(H=H, gamma=gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * gamma.size * np.dtype(np.complex128).itemsize
    assert H.flags.writeable and gamma.flags.writeable
    assert spec.gamma.flags.owndata and not spec.gamma.flags.writeable


def test_spec_copies_read_only_views():
    base = np.zeros((4, 4), dtype=complex)
    view = base[:]
    view.setflags(write=False)
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=view)
    base[0, 0] = 5.0
    assert spec.gamma is not view
    assert spec.gamma[0, 0] == 0.0
    assert spec.gamma.flags.owndata and not spec.gamma.flags.writeable


def test_spec_keeps_a_frozen_array_that_owns_its_data():
    g = np.zeros((4, 4), dtype=complex)
    g.setflags(write=False)
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=g)
    assert spec.gamma is g
    gm = gk.GellMannSpec(H=np.zeros((2, 2)), C=np.zeros((3, 3)))
    assert gk.GellMannSpec(H=gm.H, C=gm.C).C is gm.C


def test_spec_keeps_a_read_only_view_of_a_frozen_array():
    base = np.zeros(32)
    base.setflags(write=False)
    view = base.view(np.complex128).reshape(4, 4)
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=view)
    assert spec.gamma is view


def test_load_spec_keeps_the_parsed_dense_gamma(tmp_path):
    # The dense matrix is a complex view of the parser's frozen float buffer;
    # the spec keeps that view instead of copying its N^4 entries.
    path = tmp_path / "dense.json"
    path.write_text(gk.dump_json(gk.spec_to_document(superposition_decay_spec())))
    spec = gk.load_spec(path)
    assert not spec.gamma.flags.owndata and not spec.gamma.flags.writeable
    buffer = spec.gamma.base
    assert buffer.dtype == np.float64 and buffer.size == 2 * 9 * 9
    assert buffer.flags.owndata and not buffer.flags.writeable
    assert np.array_equal(spec.gamma, superposition_decay_spec().gamma)


def test_fresh_gamma_is_handed_over_frozen(golden_dir):
    for spec in (
        gk.canonicalize(superposition_decay_spec()),
        gk.load_spec(golden_dir / "superposition.spec.json"),
        gk.gellmann_to_standard(gk.standard_to_gellmann(superposition_decay_spec())),
    ):
        assert spec.gamma.flags.owndata and not spec.gamma.flags.writeable
        assert gk.GeneratorSpec(H=spec.H, gamma=spec.gamma).gamma is spec.gamma


def test_gellmann_spec_shape_checks():
    with pytest.raises(ValueError):
        gk.GellMannSpec(H=np.zeros((2, 2)), C=np.zeros((4, 4)))  # needs 3x3
    gm = gk.GellMannSpec(H=np.zeros((2, 2)), C=np.zeros((3, 3)))
    assert gm.N == 2


# ---------------------------------------------------------------------------
# action of the generator
# ---------------------------------------------------------------------------


def test_amplitude_damping_action_pinned():
    # single rate gamma_{1212} = 1: level 2 decays into level 1
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = 1.0
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=g)
    E11 = gk.matrix_unit(1, 1, 2)
    E22 = gk.matrix_unit(2, 2, 2)
    assert np.max(np.abs(gk.apply_generator(spec, E11))) < 1e-15
    assert np.max(np.abs(gk.apply_generator(spec, E22) - (E11 - E22))) < 1e-15
    # coherence decays at half the rate
    E12 = gk.matrix_unit(1, 2, 2)
    assert np.max(np.abs(gk.apply_generator(spec, E12) + 0.5 * E12)) < 1e-15


def test_dissipator_closed_form_on_matrix_units():
    # D_{ij,ij}(E_ab) = 2 d_aj d_bj E_ii - (d_aj + d_bj) E_ab, derived by
    # multiplying matrix units directly
    N = 3
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for a in range(1, N + 1):
                for b in range(1, N + 1):
                    got = gk.lindblad_dissipator(i, j, i, j, gk.matrix_unit(a, b, N))
                    expected = -( (a == j) + (b == j) ) * gk.matrix_unit(a, b, N)
                    if a == j and b == j:
                        expected = expected + 2.0 * gk.matrix_unit(i, i, N)
                    assert np.max(np.abs(got - expected)) < 1e-15


def test_hamiltonian_only_action():
    rng = np.random.default_rng(42)
    H = random_hermitian(rng, 3)
    spec = gk.GeneratorSpec(H=H, gamma=np.zeros((9, 9)))
    rho = random_hermitian(rng, 3)
    expected = -1j * (H @ rho - rho @ H)
    assert np.max(np.abs(gk.apply_generator(spec, rho) - expected)) < 1e-13


def test_apply_generator_rejects_wrong_shape():
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gk.apply_generator(spec, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# superoperator vs. independent routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [2, 3])
def test_superoperator_matches_reference_route(N):
    rng = np.random.default_rng(100 + N)
    for _ in range(5):
        # arbitrary complex coefficient matrix -- not even valid; the matrix
        # representation must agree regardless
        gamma = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        spec = gk.GeneratorSpec(H=random_hermitian(rng, N), gamma=gamma)
        S = gk.superoperator(spec)
        S_ref = reference_superoperator(spec)
        assert np.max(np.abs(S - S_ref)) < 1e-12 * max(1.0, np.max(np.abs(S_ref)))


def test_superoperator_columns_are_generator_applications():
    rng = np.random.default_rng(17)
    N = 3
    spec = random_valid_spec(rng, N)
    S = gk.superoperator(spec)
    for q, (i, j) in enumerate(gk.standard_labels(N)):
        col = gk.to_standard_coordinates(gk.apply_generator(spec, gk.matrix_unit(i, j, N)))
        assert np.max(np.abs(S[:, q] - col)) < 1e-12


def test_superoperator_agrees_with_apply_on_random_inputs():
    rng = np.random.default_rng(18)
    for N in (2, 4):
        spec = random_valid_spec(rng, N)
        S = gk.superoperator(spec)
        for _ in range(5):
            rho = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            via_matrix = gk.from_standard_coordinates(S @ gk.to_standard_coordinates(rho), N)
            direct = gk.apply_generator(spec, rho)
            assert np.max(np.abs(via_matrix - direct)) < 1e-11


def test_trace_preservation_any_coefficients():
    rng = np.random.default_rng(19)
    for N in (2, 3, 5):
        gamma = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
        spec = gk.GeneratorSpec(H=random_hermitian(rng, N), gamma=gamma)
        for _ in range(3):
            rho = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            assert abs(np.trace(gk.apply_generator(spec, rho))) < 1e-11


def test_hermiticity_preservation_for_valid_specs():
    rng = np.random.default_rng(20)
    for N in (2, 4):
        spec = random_valid_spec(rng, N)
        for _ in range(5):
            rho = random_hermitian(rng, N)
            out = gk.apply_generator(spec, rho)
            assert np.max(np.abs(out - out.conj().T)) < 1e-11


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_psd_coefficients():
    rng = np.random.default_rng(21)
    for N in (2, 3, 4):
        report = gk.validate(random_valid_spec(rng, N))
        assert report.verdict
        assert report.psd_on_traceless and report.trace_condition
        assert report.offending_eigenvalue is None


def test_validate_flags_indefinite_block():
    # pair block [[0, 1], [1, 0]] has traceless-sector eigenvalues +1, -1
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    report = gk.validate(spec)
    assert not report.psd_on_traceless
    assert not report.verdict
    assert report.offending_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_validate_flags_trace_condition():
    # build a coefficient matrix directly in the orthonormal basis with a
    # real mismatch between the identity row and column
    N = 2
    C = np.zeros((4, 4), dtype=complex)
    C[0, 0] = 1.0          # PSD traceless part
    C[3, 0] = 1.0          # identity row entry, no matching column entry
    gamma = gk.operator_basis_change(C, "gellmann", "standard")
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=gamma)
    report = gk.validate(spec)
    assert report.psd_on_traceless
    assert not report.trace_condition
    assert not report.verdict
    assert report.trace_witness is not None


def test_validate_tolerates_imaginary_identity_mismatch():
    # purely imaginary mismatch belongs to the Hamiltonian correction and
    # must not fail validation
    N = 2
    C = np.zeros((4, 4), dtype=complex)
    C[0, 0] = 1.0
    C[3, 0] = -1.0j
    C[0, 3] = 1.0j
    gamma = gk.operator_basis_change(C, "gellmann", "standard")
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=gamma)
    assert gk.validate(spec).verdict


def test_validate_scales_with_magnitude():
    rng = np.random.default_rng(22)
    spec = random_valid_spec(rng, 3)
    big = gk.GeneratorSpec(H=spec.H, gamma=1e12 * spec.gamma)
    assert gk.validate(big).verdict


def _validation_cases(rng, N):
    """Valid, invalid and pair-block specs of dimension N, by name."""
    n = N * N
    R = n - N
    C = np.zeros((n, n), dtype=complex)
    C[:-1, :-1] = random_psd(rng, n - 1)
    C[-1, : n - 1] = rng.normal(size=n - 1)  # real identity-row mismatch
    coupled = np.array(random_pbd_spec(rng, N).gamma)
    coupled[:R, R:] = 1e-3  # pair sector to diagonal sector
    return {
        "dense valid": random_valid_spec(rng, N),
        "dense indefinite": gk.GeneratorSpec(
            H=random_hermitian(rng, N), gamma=random_hermitian(rng, n)
        ),
        "pair-block": random_pbd_spec(rng, N),
        "pair-block indefinite": pair_block_spec(
            N,
            np.zeros((N, N)),
            {(1, 2): np.array([[0.0, 1.5], [1.5, 0.2]])},
            diag=random_hermitian(rng, N),
        ),
        "identity-preserving": random_identity_preserving_spec(rng, N),
        "trace mismatch": gk.GeneratorSpec(
            H=np.zeros((N, N)),
            gamma=gk.operator_basis_change(C, "gellmann", "standard"),
        ),
        "pair-block sector coupling": gk.GeneratorSpec(H=np.zeros((N, N)), gamma=coupled),
    }


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_validate_matches_dense_reference(N):
    rng = np.random.default_rng(90 + N)
    for _ in range(4):
        for name, spec in _validation_cases(rng, N).items():
            got = gk.validate(spec)
            ref = reference_validate(spec)
            assert got.psd_on_traceless == ref.psd_on_traceless, name
            assert got.trace_condition == ref.trace_condition, name
            assert got.trace_witness == ref.trace_witness, name
            if ref.offending_eigenvalue is None:
                assert got.offending_eigenvalue is None, name
            else:
                assert got.offending_eigenvalue == pytest.approx(
                    ref.offending_eigenvalue, rel=1e-12
                ), name


def _recorded_eigvalsh_shapes(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


def test_validate_takes_the_spectrum_block_by_block(monkeypatch):
    shapes = _recorded_eigvalsh_shapes(monkeypatch)
    rng = np.random.default_rng(95)
    spec = random_pbd_spec(rng, 4)
    gk.validate(spec)
    assert shapes == [(6, 2, 2), (1, 3, 3)]
    shapes.clear()
    gk.validate(random_valid_spec(rng, 4))
    assert shapes == [(1, 15, 15)]


def test_validate_off_block_entry_forces_the_dense_spectrum(monkeypatch):
    # One off-block entry of B, however small, leaves the pair-block zero
    # pattern: the spectrum is then the dense one.
    shapes = _recorded_eigvalsh_shapes(monkeypatch)
    N = 3
    R = N * N - N
    C = np.zeros((N * N - 1, N * N - 1), dtype=complex)
    for t in range(0, R, 2):
        C[t : t + 2, t : t + 2] = random_psd(np.random.default_rng(96 + t), 2)
    C[R:, R:] = np.diag([0.5, 0.25])
    C[0, R] = 1e-300
    spec = gk.gellmann_to_standard(gk.GellMannSpec(H=np.zeros((N, N)), C=C))
    report = gk.validate(spec)
    assert shapes == [(1, 8, 8)]
    assert report == reference_validate(spec)
    assert report.verdict


def test_classify_max_block_violation_matches_full_copy_scan():
    rng = np.random.default_rng(97)
    for N in (2, 3, 5, 9):
        for spec in (random_pbd_spec(rng, N), random_valid_spec(rng, N)):
            cls = gk.classify_pair_block_diagonal(spec)
            assert cls.max_block_violation == reference_max_off_block(spec.gamma, N)
            assert cls.block_threshold == 1e-9 * max(1.0, float(np.abs(spec.gamma).max()))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def test_canonicalize_ladder_pinned():
    spec = dephasing_ladder_spec()
    canon = gk.canonicalize(spec)
    dpos = [gk.standard_position(n, n, 3) for n in range(1, 4)]
    block = canon.gamma[np.ix_(dpos, dpos)]
    expected = np.array([[12.0, 0.0, -12.0], [0.0, 6.0, -6.0], [-12.0, -6.0, 18.0]]) / 18.0
    assert np.max(np.abs(block - expected)) < 1e-12
    # the off-diagonal sector stays empty and H stays zero
    assert np.max(np.abs(canon.H)) < 1e-12
    opos = [q for q in range(9) if q not in dpos]
    assert np.max(np.abs(canon.gamma[np.ix_(opos, opos)])) < 1e-15
    # pinned posterior facts: identity annihilated, range traceless
    assert gk.identity_preserving(canon)
    rng = np.random.default_rng(1)
    rho = random_hermitian(rng, 3)
    assert abs(np.trace(gk.apply_generator(canon, rho))) < 1e-12


def test_canonicalize_hamiltonian_shift_sign_pinned():
    # an anti-Hermitian identity row/column pair turns into a Hamiltonian
    # correction with a definite sign: C[q0, last]=i, C[last, q0]=-i for
    # q0 the first traceless diagonal label gives H_eff = -lam_11 / sqrt(2)
    N = 2
    q0 = gk.gellmann_position(1, 1, N)
    last = N * N - 1
    C = np.zeros((4, 4), dtype=complex)
    C[q0, last] = 1.0j
    C[last, q0] = -1.0j
    gamma = gk.operator_basis_change(C, "gellmann", "standard")
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=gamma)
    canon = gk.canonicalize(spec)
    expected_H = -gk.gellmann(1, 1, N) / RT2
    assert np.max(np.abs(canon.H - expected_H)) < 1e-12


def test_canonicalize_preserves_superoperator():
    rng = np.random.default_rng(23)
    for N in (2, 3, 4):
        spec = random_valid_spec(rng, N)
        canon = gk.canonicalize(spec)
        S0 = gk.superoperator(spec)
        S1 = gk.superoperator(canon)
        assert np.max(np.abs(S1 - S0)) < 1e-9 * max(1.0, np.max(np.abs(S0)))


def test_canonicalize_idempotent():
    rng = np.random.default_rng(24)
    for N in (2, 3):
        canon = gk.canonicalize(random_valid_spec(rng, N))
        again = gk.canonicalize(canon)
        assert np.max(np.abs(again.H - canon.H)) < 1e-10
        assert np.max(np.abs(again.gamma - canon.gamma)) < 1e-10


def test_canonical_coefficients_annihilate_identity_direction():
    rng = np.random.default_rng(25)
    N = 3
    canon = gk.canonicalize(random_valid_spec(rng, N))
    C = gk.operator_basis_change(canon.gamma, "standard", "gellmann")
    assert np.max(np.abs(C[-1, :])) < 1e-12
    assert np.max(np.abs(C[:, -1])) < 1e-12
    # still a valid generator afterwards
    assert gk.validate(canon).verdict


def test_canonicalize_rejects_invalid_spec():
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.raises(ValueError):
        gk.canonicalize(spec)


def test_invalid_generator_error_carries_the_report():
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    report = gk.validate(spec)
    assert not report.verdict
    for call in (
        lambda: gk.canonicalize(spec),
        lambda: gk.verify_invariant(spec, np.eye(2) / 2.0, [1.0]),
        lambda: gk.consistency_and_bound(spec),
    ):
        with pytest.raises(gk.InvalidGeneratorError) as info:
            call()
        assert str(info.value) == f"generator failed validation ({report.summary})"
        assert info.value.report == report


@pytest.mark.parametrize("N", range(1, 7))
def test_canonicalize_matches_gellmann_round_trip(N):
    rng = np.random.default_rng(40 + N)
    R = N * N - N
    for make in (random_valid_spec, random_pbd_spec, random_identity_preserving_spec):
        for _ in range(3):
            spec = make(rng, N)
            canon = gk.canonicalize(spec)
            ref = reference_canonicalize(spec)
            g_max = float(np.abs(spec.gamma).max())
            h_max = max(g_max, float(np.abs(spec.H).max()))
            assert np.abs(canon.gamma - ref.gamma).max() <= 1e-13 * g_max
            assert np.abs(canon.H - ref.H).max() <= 1e-13 * h_max
            # the pair sector passes through bit for bit
            assert canon.gamma[:R, :R].tobytes() == spec.gamma[:R, :R].tobytes()


# ---------------------------------------------------------------------------
# structural classification
# ---------------------------------------------------------------------------


def test_classify_pair_block_diagonal_positive():
    cls = gk.classify_pair_block_diagonal(superposition_decay_spec())
    assert cls.is_pair_block_diagonal
    assert cls.h_diagonal
    assert cls.max_block_violation == pytest.approx(0.0, abs=1e-15)


def test_classify_rejects_cross_pair_coupling():
    N = 3
    g = np.zeros((9, 9), dtype=complex)
    p1 = gk.standard_position(1, 2, N)
    p2 = gk.standard_position(1, 3, N)
    g[p1, p1] = g[p2, p2] = 1.0
    g[p1, p2] = g[p2, p1] = 0.5  # couples the (1,2) and (1,3) sectors
    spec = gk.GeneratorSpec(H=np.zeros((3, 3)), gamma=g)
    cls = gk.classify_pair_block_diagonal(spec)
    assert not cls.is_pair_block_diagonal
    assert cls.max_block_violation == pytest.approx(0.5, abs=1e-15)


def test_classify_flags_offdiagonal_hamiltonian():
    rng = np.random.default_rng(26)
    H = random_hermitian(rng, 3)
    spec = gk.GeneratorSpec(H=H, gamma=np.zeros((9, 9)))
    cls = gk.classify_pair_block_diagonal(spec)
    assert cls.is_pair_block_diagonal  # no coefficient coupling at all
    assert not cls.h_diagonal
    assert cls.max_h_violation > 0.1


# ---------------------------------------------------------------------------
# superposition decay blocks
# ---------------------------------------------------------------------------


def test_superposition_block_pinned_fixture_value():
    blk = gk.superposition_block(1 / RT2, 1 / RT2, 1 / RT2, 1 / RT2, rate=1.0)
    assert np.max(np.abs(blk - np.ones((2, 2)))) < 1e-12


def test_superposition_block_matches_jump_operator_route():
    # independent route: the block must reproduce the dissipator of the
    # jump operator sqrt(rate) * (u0 E_12 + u1 E_21) explicitly
    rng = np.random.default_rng(27)
    for _ in range(10):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        a, b = v[:2] / np.linalg.norm(v[:2])
        c, d = v[2:] / np.linalg.norm(v[2:])
        rate = float(rng.uniform(0.2, 3.0))
        blk = gk.superposition_block(a, b, c, d, rate)
        spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): blk})
        J = np.sqrt(rate) * ((c / b) * gk.matrix_unit(1, 2, 2) + (d / a) * gk.matrix_unit(2, 1, 2))
        rho = random_hermitian(rng, 2)
        expected = J @ rho @ J.conj().T - 0.5 * (
            J.conj().T @ J @ rho + rho @ J.conj().T @ J
        )
        got = gk.apply_generator(spec, rho)
        assert np.max(np.abs(got - expected)) < 1e-11 * max(1.0, np.max(np.abs(expected)))


def test_superposition_block_maps_source_to_target():
    # the induced jump sends the source superposition to the target one
    a, b = 0.6, 0.8
    c, d = 1 / RT2, -1j / RT2
    blk = gk.superposition_block(a, b, c, d, rate=2.0)
    u = np.array([c / b, d / a])
    J = u[0] * gk.matrix_unit(1, 2, 2) + u[1] * gk.matrix_unit(2, 1, 2)
    out = J @ np.array([a, b])
    assert np.max(np.abs(out - np.array([c, d]))) < 1e-12
    assert np.linalg.matrix_rank(blk) == 1
    assert gk.is_psd(blk)


def test_superposition_block_preconditions():
    with pytest.raises(ValueError):
        gk.superposition_block(0.0, 1.0, 1.0, 0.0, rate=1.0)
    with pytest.raises(ValueError):
        gk.superposition_block(0.6, 0.8, 2.0, 0.0, rate=1.0)
    with pytest.raises(ValueError):
        gk.superposition_block(0.5, 0.5, 1.0, 0.0, rate=1.0)


# ---------------------------------------------------------------------------
# identity preservation and the orthonormal-basis representation
# ---------------------------------------------------------------------------


def test_identity_preserving_examples():
    # amplitude damping pumps population: not identity preserving
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = 1.0
    assert not gk.identity_preserving(gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=g))
    # symmetric hopping is
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.diag([1.0, 1.0])})
    assert gk.identity_preserving(spec)
    # pure dephasing is
    assert gk.identity_preserving(dephasing_ladder_spec())
    # the superposition fixture is not
    assert not gk.identity_preserving(superposition_decay_spec())


def test_gellmann_round_trip_preserves_superoperator():
    rng = np.random.default_rng(28)
    for N in (2, 3):
        spec = random_valid_spec(rng, N)
        gm = gk.standard_to_gellmann(spec)
        back = gk.gellmann_to_standard(gm)
        S0 = gk.superoperator(spec)
        S1 = gk.superoperator(back)
        assert np.max(np.abs(S1 - S0)) < 1e-9 * max(1.0, np.max(np.abs(S0)))


def test_gellmann_coefficients_match_conjugation():
    rng = np.random.default_rng(29)
    N = 3
    spec = random_valid_spec(rng, N)
    canon = gk.canonicalize(spec)
    gm = gk.standard_to_gellmann(spec)
    C_direct = gk.operator_basis_change(canon.gamma, "standard", "gellmann")
    assert np.max(np.abs(gm.C - C_direct[:-1, :-1])) < 1e-12
    assert np.max(np.abs(gm.H - canon.H)) < 1e-12


def test_standard_to_gellmann_rejects_invalid():
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]])})
    with pytest.raises(ValueError):
        gk.standard_to_gellmann(spec)


# ---------------------------------------------------------------------------
# diagonal-sector dissipator coefficients
# ---------------------------------------------------------------------------


def test_gm_diag_coeff_pinned_values():
    # N=3, A = lam_11 acting on lam_23: n=1=lo-1 -> -1/2
    assert gk.gm_diag_dissipator_coeff(1, 2, 3, 3) == pytest.approx(-0.5)
    # interior zero-vs-one case: N=4, n=2, (k,l)=(1,4) -> -1/6
    assert gk.gm_diag_dissipator_coeff(2, 1, 4, 4) == pytest.approx(-1.0 / 6.0)
    # n = hi-1 case: N=4, n=3, (k,l)=(1,4) -> -4/3
    assert gk.gm_diag_dissipator_coeff(3, 1, 4, 4) == pytest.approx(-4.0 / 3.0)
    # disjoint support: zero
    assert gk.gm_diag_dissipator_coeff(3, 1, 2, 4) == 0.0
    assert gk.gm_diag_dissipator_coeff(1, 3, 4, 5) == 0.0


def test_gm_diag_coeff_symmetry_and_errors():
    assert gk.gm_diag_dissipator_coeff(2, 1, 4, 5) == gk.gm_diag_dissipator_coeff(2, 4, 1, 5)
    with pytest.raises(ValueError):
        gk.gm_diag_dissipator_coeff(0, 1, 2, 3)
    with pytest.raises(ValueError):
        gk.gm_diag_dissipator_coeff(3, 1, 2, 3)  # n must stay below N
    with pytest.raises(ValueError):
        gk.gm_diag_dissipator_coeff(1, 2, 2, 3)  # k == ell


def test_gm_diag_coeff_never_positive():
    for N in (2, 3, 4, 5):
        for n in range(1, N):
            for k in range(1, N + 1):
                for ell in range(1, N + 1):
                    if k != ell:
                        assert gk.gm_diag_dissipator_coeff(n, k, ell, N) <= 0.0
