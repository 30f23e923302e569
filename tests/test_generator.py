"""Generator-layer tests: action, superoperator, validation, canonical form."""

import dataclasses
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph.basis import _max_off_block
from gkslgraph.generator import _pair_block_table
from gkslgraph.kernel import PreconditionError, full_kernel
from helpers import (
    ORACLE_FAMILIES,
    blocks_document,
    dephasing_ladder_spec,
    identity_coupled_spec,
    lindblad_dissipator,
    pair_block_families,
    pair_block_spec,
    random_hermitian,
    random_identity_preserving_spec,
    random_consistent_spec,
    random_pbd_spec,
    random_psd,
    random_valid_spec,
    reference_max_off_block,
    reference_superoperator,
    reference_canonicalize,
    reference_validate,
    sink_menagerie_spec,
    superposition_decay_spec,
    to_gellmann,
    to_standard,
)

RT2 = np.sqrt(2.0)
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# spec containers
# ---------------------------------------------------------------------------


def test_generator_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gk.GeneratorSpec(H=np.zeros((2, 3)), gamma=np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"^gamma must have shape \(4, 4\) for N=2, got \(3, 3\)"):
        gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"^H must be at least 1x1$"):
        gk.GeneratorSpec(H=np.zeros((0, 0)), gamma=np.zeros((0, 0)))
    with pytest.raises(ValueError):
        gk.GeneratorSpec(H=np.array([[0.0, 1.0], [0.0, 0.0]]), gamma=np.zeros((4, 4)))
    pattern = gk.generator._PairPattern
    with pytest.raises(ValueError, match=r"shapes \(1, 2, 2\) and \(2, 2\) for N=2"):
        gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=pattern(np.zeros((2, 2, 2)), np.eye(2)))
    with pytest.raises(ValueError, match="H must be Hermitian"):
        gk.GeneratorSpec(H=np.array([[0.0, 1.0], [0.0, 0.0]]), gamma=pattern(
            np.zeros((1, 2, 2)), np.eye(2)
        ))


def test_generator_spec_is_frozen():
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.H = np.eye(2)
    assert not spec.H.flags.writeable
    assert not spec.gamma.flags.writeable
    with pytest.raises(ValueError):
        spec.gamma[0, 0] = 1.0


def test_repr_of_a_block_native_spec_builds_no_gamma():
    # repr shows H alone: reading gamma would build all 16 N^4 bytes of it.
    N = 64
    pattern = gk.generator._PairPattern(np.zeros((N * (N - 1) // 2, 2, 2)), np.zeros((N, N)))
    spec = gk.GeneratorSpec(H=np.zeros((N, N)), gamma=pattern)
    tracemalloc.start()
    try:
        text = repr(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.startswith("GeneratorSpec(H=") and "gamma" not in text
    assert "gamma" not in spec.__dict__
    assert peak < 16 * N**4 / 1000


def test_specs_compare_and_hash_by_identity():
    a, b = (gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=np.zeros((4, 4))) for _ in range(2))
    assert a == a and a != b
    assert len({a, b, a}) == 2


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
        gk.gellmann_to_standard(*gk.standard_to_gellmann(superposition_decay_spec())),
    ):
        assert spec.gamma.flags.owndata and not spec.gamma.flags.writeable
        assert gk.GeneratorSpec(H=spec.H, gamma=spec.gamma).gamma is spec.gamma


def test_canonical_form_of_a_dense_spec_keeps_no_view_of_its_gamma():
    spec = random_pbd_spec(np.random.default_rng(3), 4)
    canon = gk.canonicalize(spec)
    assert "gamma" not in canon.__dict__
    assert not np.shares_memory(canon._pattern.pairs, spec.gamma)


def test_gellmann_to_standard_shape_checks():
    with pytest.raises(ValueError, match=r"^C must have shape \(3, 3\) for N=2, got \(4, 4\)$"):
        gk.gellmann_to_standard(np.zeros((2, 2)), np.zeros((4, 4)))  # needs 3x3
    with pytest.raises(ValueError, match="^H must be square"):
        gk.gellmann_to_standard(np.zeros((2, 3)), np.zeros((3, 3)))
    assert gk.gellmann_to_standard(np.zeros((2, 2)), np.zeros((3, 3))).N == 2


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
                    got = lindblad_dissipator(i, j, i, j, gk.matrix_unit(a, b, N))
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


def _complex_gamma_spec(rng: np.random.Generator, N: int) -> gk.GeneratorSpec:
    """An arbitrary complex coefficient matrix, not even valid."""
    gamma = rng.normal(size=(N * N, N * N)) + 1j * rng.normal(size=(N * N, N * N))
    return gk.GeneratorSpec(H=random_hermitian(rng, N), gamma=gamma)


#: Every random spec family, each ``(rng, N) -> GeneratorSpec``.
SPEC_FAMILIES = {
    "complex_gamma": _complex_gamma_spec,
    **ORACLE_FAMILIES,
    "identity_preserving": random_identity_preserving_spec,
}


@pytest.mark.parametrize(
    ("family", "N"),
    [(family, N) for family in SPEC_FAMILIES for N in range(2, 7)]
    + [(name, spec.N) for name, spec in sorted(pair_block_families().items()) if spec.N <= 6],
)
def test_superoperator_matches_reference_route(family, N):
    # The gather and the in-place diagonal terms against the sum of
    # elementary dissipators, column by column; the matrix representation
    # must agree whether or not gamma is valid.
    if family in SPEC_FAMILIES:
        rng = np.random.default_rng(100 + N)
        # Five draws where the dense reference is cheap, one at N >= 4.
        specs = [SPEC_FAMILIES[family](rng, N) for _ in range(5 if N <= 3 else 1)]
    else:
        specs = [pair_block_families()[family]]
    for spec in specs:
        S_ref = reference_superoperator(spec)
        assert np.abs(gk.superoperator(spec) - S_ref).max() <= 1e-14 * max(1.0, np.abs(S_ref).max())


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


def _traceful_pair_block_spec(rng, N):
    """Pair-block spec that is not canonical: its diagonal-sector rows do not sum to 0."""
    blocks = {(i, j): random_psd(rng, 2) for i in range(1, N + 1) for j in range(i + 1, N + 1)}
    diag = random_psd(rng, N) + 0.5 * np.ones((N, N))
    return pair_block_spec(N, np.diag(rng.uniform(-2.0, 2.0, size=N)), blocks, diag=diag)


def _block_superoperator_cases():
    rng = np.random.default_rng(190)
    for N in range(1, 8):
        yield f"random_pbd_N{N}", random_pbd_spec(rng, N)
        yield f"traceful_N{N}", _traceful_pair_block_spec(rng, N)
    yield "superposition", superposition_decay_spec()
    yield "menagerie", sink_menagerie_spec()
    yield "menagerie_equal_h", sink_menagerie_spec(equal_h=True)
    yield "ladder", dephasing_ladder_spec()


@pytest.mark.parametrize("name, spec", list(_block_superoperator_cases()))
def test_block_superoperator_is_the_block_diagonal_of_the_superoperator(name, spec):
    N = spec.N
    R = N * N - N
    P = R // 2
    t = np.arange(P)
    laplacian, pairs = _pair_block_table(spec)
    exact = gk.classify_pair_block_diagonal(spec, 0.0)
    assert exact.is_pair_block_diagonal and exact.h_diagonal
    assert laplacian.shape == (N, N) and pairs.shape == (P, 2, 2)
    for S in (gk.superoperator(spec), reference_superoperator(spec)):
        scale = 1e-14 * np.abs(S).max()
        assert np.abs(laplacian - S[R:, R:]).max() <= scale
        dense_pairs = S[:R, :R].reshape(P, 2, P, 2)[t, :, t, :]
        assert np.abs(pairs - dense_pairs).max(initial=0.0) <= scale
        # Every other entry is 0: L leaves both sectors and every pair invariant.
        rest = S.copy()
        rest[R:, R:] = 0.0
        rest[:R, :R].reshape(P, 2, P, 2)[t, :, t, :] = 0.0
        assert not rest.any()


@pytest.mark.parametrize(
    "name, spec",
    [*_block_superoperator_cases(), ("dense", random_valid_spec(np.random.default_rng(194), 4))],
)
def test_pair_table_reads_the_entries_of_gamma_and_h(name, spec):
    # Entry by entry, by label, on any spec; both arrays are read-only.
    N = spec.N
    laplacian, blocks = _pair_block_table(spec)
    assert not (laplacian.flags.writeable or blocks.flags.writeable)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                p = gk.standard_position(i, j, N)
                assert laplacian[i - 1, j - 1] == spec.gamma[p, p]


def test_traceful_pair_block_spec_is_not_canonical():
    spec = _traceful_pair_block_spec(np.random.default_rng(191), 4)
    assert np.abs(spec.gamma[-4:, -4:].sum(axis=1)).min() > 0.1
    assert np.abs(gk.canonicalize(spec).gamma - spec.gamma).max() > 0.1


@pytest.mark.parametrize(
    "spec",
    [
        identity_coupled_spec(np.random.default_rng(192), 3, 0.3),
        random_valid_spec(np.random.default_rng(193), 3),
        pair_block_spec(2, np.array([[0.0, 1e-300], [1e-300, 0.0]]), {}, diag=np.eye(2)),
    ],
    ids=["identity_coupled", "dense", "tiny_h_coupling"],
)
def test_pair_block_pattern_is_exact(spec):
    exact = gk.classify_pair_block_diagonal(spec, 0.0)
    assert not (exact.is_pair_block_diagonal and exact.h_diagonal)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_rejects_a_non_finite_coefficient_without_a_spectrum(bad):
    # A NaN or inf in gamma fails both checks before the basis change, which
    # would turn an inf into NaNs with numpy's warning; eigvalsh would raise.
    gamma = np.zeros((9, 9), dtype=complex)
    gamma[8, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gk.validate(gk.GeneratorSpec(H=np.eye(3), gamma=gamma))
    assert report == gk.ValidationReport(psd_on_traceless=False, trace_condition=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["pair_block", "diagonal_block"])
def test_validate_rejects_a_non_finite_entry_on_the_pattern_with_no_warning(bad, where):
    # Both a dense gamma on the pattern and a spec that stores the blocks alone.
    pairs = np.zeros((3, 2, 2), dtype=complex)
    G = np.eye(3, dtype=complex)
    if where == "pair_block":
        pairs[1, 0, 1] = bad
    else:
        G[2, 2] = bad
    native = gk.GeneratorSpec(H=np.eye(3), gamma=gk.generator._PairPattern(pairs, G))
    dense = gk.GeneratorSpec(H=np.eye(3), gamma=native.gamma)
    failed = gk.ValidationReport(psd_on_traceless=False, trace_condition=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dense._on_pair_pattern
        assert gk.validate(native) == gk.validate(dense) == failed


def test_validate_flags_trace_condition():
    # build a coefficient matrix directly in the orthonormal basis with a
    # real mismatch between the identity row and column
    N = 2
    C = np.zeros((4, 4), dtype=complex)
    C[0, 0] = 1.0          # PSD traceless part
    C[3, 0] = 1.0          # identity row entry, no matching column entry
    gamma = to_standard(C)
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
    gamma = to_standard(C)
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=gamma)
    assert gk.validate(spec).verdict


def test_validate_scales_with_magnitude():
    rng = np.random.default_rng(22)
    spec = random_valid_spec(rng, 3)
    big = gk.GeneratorSpec(H=spec.H, gamma=1e12 * spec.gamma)
    assert gk.validate(big).verdict


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3 (one tolerance rule): W's butterfly overflows before it scales",
)
def test_validate_accepts_rates_of_1e308():
    # gamma = 1e308 * I is PSD, but the conjugation by W forms -2e308, which
    # overflows; a unit-scale analysis would accept it.
    doc = gk.spec_to_document(gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=1e308 * np.eye(4)))
    assert doc["gamma"]["format"] == "dense"
    with np.errstate(over="ignore", invalid="ignore"):
        report = gk.validate(gk.parse_spec_document(doc))
    assert report.psd_on_traceless is True


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
            gamma=to_standard(C),
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


def test_validate_takes_the_spectrum_block_by_block(psd_calls):
    # A valid spec is certified PSD by one shifted Cholesky per block
    # array, with no spectrum: block by block on the pattern, else dense.
    rng = np.random.default_rng(95)
    spec = random_pbd_spec(rng, 4)
    gk.validate(spec)
    assert psd_calls == [("cholesky", (6, 2, 2)), ("cholesky", (1, 3, 3))]
    psd_calls.clear()
    gk.validate(random_valid_spec(rng, 4))
    assert psd_calls == [("cholesky", (1, 15, 15))]


def test_validate_off_block_entry_forces_the_dense_spectrum(psd_calls):
    # One off-block entry of B, however small, leaves the pair-block zero
    # pattern: B is then factored whole.
    N = 3
    R = N * N - N
    C = np.zeros((N * N - 1, N * N - 1), dtype=complex)
    for t in range(0, R, 2):
        C[t : t + 2, t : t + 2] = random_psd(np.random.default_rng(96 + t), 2)
    C[R:, R:] = np.diag([0.5, 0.25])
    C[0, R] = 1e-300
    spec = gk.gellmann_to_standard(np.zeros((N, N)), C)
    report = gk.validate(spec)
    assert psd_calls == [("cholesky", (1, 8, 8))]
    assert report == reference_validate(spec)
    assert report.verdict


def test_validate_takes_the_block_route_when_rounding_leaves_gamma_off_the_pattern(psd_calls):
    # The canonical form carries a 1.4e-17 residue off the pattern in gamma,
    # while B = W gamma W* is exactly on it: validate scans B and stays on
    # the block route.
    spec = gk.canonicalize(identity_coupled_spec(np.random.default_rng(1), 3, 0.3))
    assert not spec._on_pair_pattern and 0.0 < spec._off_block_max < 1e-16
    psd_calls.clear()
    report = gk.validate(spec)
    assert psd_calls == [("cholesky", (3, 2, 2)), ("cholesky", (1, 2, 2))]
    assert report == reference_validate(spec)


def _off_pattern_route(spec):
    """A fresh spec from spec's arrays that validate reads as off the pattern."""
    fresh = gk.GeneratorSpec(H=spec.H, gamma=spec.gamma)
    fresh.__dict__["_on_pair_pattern"] = False
    return fresh


def _given_and_canonical(specs):
    for name, spec in specs.items():
        yield name, spec
        if gk.validate(spec).verdict:
            yield f"{name}_canonical", gk.canonicalize(spec)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
def test_pattern_route_validates_as_the_full_basis_change(tol):
    # On the pattern, validate conjugates gamma's blocks only; its report is
    # the one the whole conjugation by W gives.  Above tolerance 0 it agrees
    # with the dense reference; at 0 the verdict of either route can hinge on
    # the rounding of its own products with W (a -1e-33 eigenvalue).
    specs = dict(_given_and_canonical(pair_block_families()))
    assert specs["diagonal_trace_mismatch"]._on_pair_pattern
    assert gk.validate(specs["diagonal_trace_mismatch"], tol).trace_witness == (2, 2)
    assert not gk.validate(specs["non_hermitian_pair"], tol).psd_on_traceless
    verdicts = set()
    for name, spec in specs.items():
        assert spec._on_pair_pattern, name
        got = gk.validate(spec, tol)
        assert got == gk.validate(_off_pattern_route(spec), tol), name
        verdicts.add(got.verdict)
        if not tol:
            continue
        ref = reference_validate(spec, tol)
        assert got.verdict == ref.verdict, name
        assert got.trace_witness == ref.trace_witness, name
        if ref.offending_eigenvalue is None:
            assert got.offending_eigenvalue is None, name
        else:
            assert got.offending_eigenvalue == pytest.approx(
                ref.offending_eigenvalue, rel=1e-12
            ), name
    assert verdicts == {False, True}


def test_canonical_spec_inherits_the_pattern_scan():
    # canonicalize keeps gamma's pattern exactly, so the canonical spec takes
    # _off_block_max from its source with no scan; off the pattern it scans.
    for name, spec in _given_and_canonical(pair_block_families()):
        if name.endswith("_canonical"):
            assert "_off_block_max" in vars(spec), name
            assert spec._off_block_max == 0.0, name
            assert reference_max_off_block(spec.gamma, spec.N) == 0.0, name
    canon = gk.canonicalize(identity_coupled_spec(np.random.default_rng(1), 3, 0.3))
    assert "_off_block_max" not in vars(canon)
    assert 0.0 < canon._off_block_max < 1e-16


def _three_routes(spec):
    """The numbers of ``spec``'s blocks document, stored three ways.

    As the parser reads the document (the pattern data alone); dense, on
    the pattern; and dense but read as off the pattern, so that validate
    and canonicalize take their N^4 routes.  The dense gamma equals
    ``spec.gamma``, but for the sign of a zero in a block the document
    leaves out (the negated families).
    """
    doc = json.loads(gk.dump_json(blocks_document(spec)))
    dense = gk.GeneratorSpec(H=spec.H, gamma=gk.parse_spec_document(doc).gamma)
    assert np.array_equal(dense.gamma, spec.gamma)
    return {
        "blocks": gk.parse_spec_document(doc),
        "dense": dense,
        "off_pattern": _off_pattern_route(dense),
    }


def _bit_identity_specs():
    rng = np.random.default_rng(7)
    specs = dict(pair_block_families())
    specs.update((f"random_pbd_{N}", random_pbd_spec(rng, N)) for N in range(1, 13))
    return specs


def _kernel_outcome(spec):
    """full_kernel's elements and diagnostics, or the message it raises."""
    try:
        basis = full_kernel(spec)
    except PreconditionError as exc:
        return str(exc)
    elements = [(el.tag, el.support, el.matrix.tobytes()) for el in basis.elements]
    return elements, basis.diagnostics


def _assert_same_tables(spec, reference):
    expected = _pair_block_table(reference)
    for field, array, other in zip(("laplacian", "blocks"), _pair_block_table(spec), expected):
        assert array.tobytes() == other.tobytes(), field


@pytest.mark.parametrize("name", sorted(_bit_identity_specs()))
def test_block_native_and_dense_routes_agree_bit_for_bit(name):
    # The spec that stores only its blocks, the dense spec on the pattern
    # and the dense N^4 routes give the same report, canonical form,
    # pair-block table and kernel, to the last bit.
    spec = _bit_identity_specs()[name]
    routes = _three_routes(spec)
    native = routes["blocks"]
    assert routes["dense"]._on_pair_pattern and native._on_pair_pattern
    for route, other in routes.items():
        assert gk.validate(other) == gk.validate(native), route
        assert _kernel_outcome(other) == _kernel_outcome(native), route
        _assert_same_tables(other, native)
    assert gk.validate(spec) == gk.validate(native)
    assert _kernel_outcome(spec) == _kernel_outcome(native)
    if not gk.validate(native).verdict:
        return
    canon = {route: gk.canonicalize(other) for route, other in routes.items()}
    for other in canon.values():
        _assert_same_tables(other, canon["blocks"])
    # Nothing so far read a dense gamma of a spec that stores the blocks alone.
    assert "gamma" not in vars(native) and "gamma" not in vars(canon["blocks"])
    assert "gamma" not in vars(canon["dense"]) and "gamma" in vars(canon["off_pattern"])
    for route, other in canon.items():
        assert other.H.tobytes() == canon["blocks"].H.tobytes(), route
        assert other.gamma.tobytes() == canon["blocks"].gamma.tobytes(), route


def test_block_native_spec_builds_its_dense_gamma_once_on_first_read():
    spec = random_pbd_spec(np.random.default_rng(3), 5)
    native = gk.parse_spec_document(blocks_document(spec))
    assert "gamma" not in vars(native)
    gamma = native.gamma
    assert native.gamma is gamma and not gamma.flags.writeable
    assert gamma.tobytes() == spec.gamma.tobytes()
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        native.missing


def test_validate_keeps_its_report_on_the_spec():
    # The report is made once per spec and tolerance and handed back after.
    spec = sink_menagerie_spec()
    report = gk.validate(spec)
    assert gk.validate(spec) is report
    assert gk.validate(spec, 1e-9) is report
    assert gk.validate(spec, 1e-3) is not report
    assert gk.validate(spec, 1e-3) == gk.validate(sink_menagerie_spec(), 1e-3)


def test_kept_report_is_keyed_by_tolerance(monkeypatch, tmp_path):
    # The first spec of the benchmark's kernel_blocks workload (seed 41,
    # s000_N08) validates at the default tolerance, and at tolerance 0 is
    # rejected on the rounding skew of W's 1/sqrt(2) scaling: a kept report
    # that ignored tol would accept it.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import bench_specs

    workload = dataclasses.replace(bench_specs.WORKLOADS["kernel_blocks"], mix={8: 1})
    (case,) = bench_specs.generate(workload, 41, tmp_path)
    assert case.spec_path.name == "s000_N08.json"
    spec = gk.load_spec(case.spec_path)
    assert gk.validate(spec, 1e-9).verdict
    report = gk.validate(spec, 0.0)
    assert report == gk.ValidationReport(psd_on_traceless=False, trace_condition=True)
    assert report == gk.validate(gk.load_spec(case.spec_path), 0.0)


def _spec_families():
    rng = np.random.default_rng(98)
    for N in (1, 2, 3, 5):
        yield random_valid_spec(rng, N)
        yield random_pbd_spec(rng, N)
    for N in (2, 3, 6):
        yield random_identity_preserving_spec(rng, N)
        yield identity_coupled_spec(rng, N, 0.3)
        yield random_consistent_spec(rng, N)[0]
    yield superposition_decay_spec()
    yield dephasing_ladder_spec()
    yield sink_menagerie_spec()
    yield sink_menagerie_spec(equal_h=True)
    yield pair_block_spec(2, np.array([[0.0, 1e-300], [1e-300, 0.0]]), {}, diag=np.eye(2))
    # Off the pattern with both cross blocks zero: only the scan can tell.
    g = np.zeros((9, 9), dtype=complex)
    p1, p2 = gk.standard_position(1, 2, 3), gk.standard_position(1, 3, 3)
    g[p1, p1] = g[p2, p2] = 1.0
    g[p1, p2] = g[p2, p1] = 0.5
    yield gk.GeneratorSpec(H=np.zeros((3, 3)), gamma=g)


@pytest.mark.parametrize("canonical", [False, True])
def test_pattern_flag_matches_a_fresh_scan(canonical):
    seen = set()
    for spec in _spec_families():
        if canonical:
            spec = gk.canonicalize(spec)
        fresh = _max_off_block(np.array(spec.gamma), spec.N)
        assert spec._on_pair_pattern == (fresh == 0.0)
        assert spec._off_block_max == fresh == reference_max_off_block(spec.gamma, spec.N)
        seen.add(spec._on_pair_pattern)
    assert seen == {False, True}


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
    q0 = gk.standard_position(1, 1, N)
    last = N * N - 1
    C = np.zeros((4, 4), dtype=complex)
    C[q0, last] = 1.0j
    C[last, q0] = -1.0j
    gamma = to_standard(C)
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
    C = to_gellmann(canon.gamma)
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


@pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
def test_superposition_block_rejects_a_negative_or_non_finite_rate(rate):
    # A negative rate would give a negative semidefinite block, a NaN one all NaN.
    with pytest.raises(ValueError, match="rate must be finite and non-negative"):
        gk.superposition_block(1 / RT2, 1 / RT2, 1.0, 0.0, rate)


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
        back = gk.gellmann_to_standard(*gk.standard_to_gellmann(spec))
        S0 = gk.superoperator(spec)
        S1 = gk.superoperator(back)
        assert np.max(np.abs(S1 - S0)) < 1e-9 * max(1.0, np.max(np.abs(S0)))


def test_gellmann_coefficients_match_conjugation():
    rng = np.random.default_rng(29)
    N = 3
    spec = random_valid_spec(rng, N)
    canon = gk.canonicalize(spec)
    H, C = gk.standard_to_gellmann(spec)
    C_direct = to_gellmann(canon.gamma)
    assert np.max(np.abs(C - C_direct[:-1, :-1])) < 1e-12
    assert np.max(np.abs(H - canon.H)) < 1e-12


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
