"""End-to-end acceptance criteria.

Each test prints exactly one ``ACCEPTANCE n: PASS`` / ``ACCEPTANCE n: FAIL``
line (with its wall-clock time) directly to the terminal, independent of
pytest's capture settings, and fails loudly if any sub-check misses its
pinned tolerance.  Random sweeps use fixed seeds so results are
reproducible run to run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

import gkslgraph as gk
from helpers import (
    dephasing_ladder_spec,
    direct_diag_dissipator_matrix,
    enumerate_in_tree_weight,
    laplacian,
    max_principal_angle,
    random_consistent_spec,
    random_digraph,
    random_hermitian,
    random_identity_preserving_spec,
    random_pbd_spec,
    random_valid_spec,
    sink_menagerie_spec,
    superposition_decay_spec,
    to_gellmann,
)

RT2 = np.sqrt(2.0)


@contextmanager
def criterion(capsys, n, budget=None):
    """Time a criterion and always print its PASS/FAIL line."""
    t0 = time.perf_counter()
    clock = lambda: time.perf_counter() - t0  # noqa: E731
    failure = None
    try:
        yield clock
        if budget is not None:
            elapsed = clock()
            assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"
    except BaseException as exc:  # re-raised after reporting
        failure = exc
    with capsys.disabled():
        verdict = "FAIL" if failure is not None else "PASS"
        print(f"\nACCEPTANCE {n}: {verdict} ({clock():.2f}s)")
    if failure is not None:
        raise failure


def kernel_mats(basis):
    return [el.matrix for el in basis.elements]


def pbd_sweep(count=500, seed=777):
    rng = np.random.default_rng(seed)
    return [random_pbd_spec(rng, int(rng.integers(2, 7))) for _ in range(count)]


def test_acceptance_1_superposition_kernel(capsys):
    with criterion(capsys, 1, budget=1.0):
        spec = superposition_decay_spec(a=1.0, b=0.75, c=0.5)
        basis = gk.full_kernel(spec)
        assert basis.dimension == 2
        expected = [
            np.diag([0.5, 0.5, 0.0]),
            (gk.matrix_unit(1, 2, 3) + gk.matrix_unit(2, 1, 3)) / RT2,
        ]
        assert max_principal_angle(kernel_mats(basis), expected) <= 1e-8
        oracle = gk.brute_force_kernel(spec)
        assert oracle.dimension == 2
        assert max_principal_angle(kernel_mats(basis), kernel_mats(oracle)) <= 1e-8
        psi = np.array([1.0, 1.0, 0.0]) / RT2
        rho = np.outer(psi, psi)
        assert gk.verify_invariant(spec, rho, times=(0.5, 1.0, 5.0))


def test_acceptance_2_menagerie_structure(capsys):
    with criterion(capsys, 2, budget=5.0):
        spec = sink_menagerie_spec()
        graph = gk.induced_digraph(spec)
        dec = gk.scc_decompose(graph)
        assert dec.components == ((1,), (2,), (3,), (4, 5), (6, 7, 8))
        assert all(dec.terminal)

        vecs = {v.component: v for v in gk.tscc_stationary_vectors(graph)}
        rho = vecs[(6, 7, 8)].rho[5:8]
        tilde = rho * math.exp(vecs[(6, 7, 8)].log_normalization)
        assert np.allclose(tilde, [10.0, 26.0, 8.0], rtol=1e-9, atol=0.0)
        assert np.allclose(rho, np.array([5.0, 13.0, 4.0]) / 22.0, rtol=1e-9)

        basis = gk.full_kernel(spec)
        oracle = gk.brute_force_kernel(spec)
        assert basis.dimension == oracle.dimension == 8
        assert max_principal_angle(kernel_mats(basis), kernel_mats(oracle)) <= 1e-7

        singular = [el for el in basis.elements if el.tag == "singular-2-sink"]
        assert len(singular) == 1 and singular[0].support == (4, 5)
        ref = (1 + 1j) * gk.matrix_unit(4, 5, 8) + (1 - 1j) * gk.matrix_unit(5, 4, 8)
        ref = ref / np.linalg.norm(ref)
        assert abs(np.vdot(ref, singular[0].matrix)) == pytest.approx(1.0, abs=1e-10)

        spec_eq = sink_menagerie_spec(equal_h=True)
        basis_eq = gk.full_kernel(spec_eq)
        oracle_eq = gk.brute_force_kernel(spec_eq)
        assert basis_eq.dimension == oracle_eq.dimension == 12
        assert max_principal_angle(kernel_mats(basis_eq), kernel_mats(oracle_eq)) <= 1e-7


def test_acceptance_3_ladder_canonical_form(capsys):
    with criterion(capsys, 3, budget=1.0):
        spec = dephasing_ladder_spec()
        assert gk.validate(spec).verdict
        canon = gk.canonicalize(spec)
        dpos = [gk.standard_position(n, n, 3) for n in range(1, 4)]
        block = canon.gamma[np.ix_(dpos, dpos)]
        expected = np.array(
            [[12.0, 0.0, -12.0], [0.0, 6.0, -6.0], [-12.0, -6.0, 18.0]]
        ) / 18.0
        assert np.max(np.abs(block - expected)) <= 1e-10
        S0 = gk.superoperator(spec)
        S1 = gk.superoperator(canon)
        assert np.max(np.abs(S1 - S0)) <= 1e-9 * max(1.0, np.max(np.abs(S0)))
        assert np.max(np.abs(gk.apply_generator(canon, np.eye(3)))) <= 1e-12
        rng = np.random.default_rng(3)
        for _ in range(5):
            rho = random_hermitian(rng, 3)
            assert abs(np.trace(gk.apply_generator(canon, rho))) <= 1e-12


def test_acceptance_4_pair_block_kernel_sweep(capsys):
    with criterion(capsys, 4, budget=60.0):
        specs = pbd_sweep()
        assert len(specs) == 500
        for spec in specs:
            basis = gk.full_kernel(spec)
            oracle = gk.brute_force_kernel(spec)
            assert basis.dimension == oracle.dimension, (
                f"dimension mismatch: analytic {basis.dimension} vs "
                f"oracle {oracle.dimension} (N={spec.N})"
            )
            angle = max_principal_angle(kernel_mats(basis), kernel_mats(oracle))
            assert angle <= 1e-7, f"principal angle {angle:.3e} (N={spec.N})"


def test_acceptance_5_pair_block_eigen_sweep(capsys):
    with criterion(capsys, 5, budget=60.0):
        specs = pbd_sweep()  # the same sweep as criterion 4
        for spec in specs:
            N = spec.N
            for k in range(1, N + 1):
                for ell in range(k + 1, N + 1):
                    plus, minus = gk.block_eigenpairs(spec, (k, ell))
                    for pair in (plus, minus):
                        resid = gk.apply_generator(spec, pair.matrix)
                        resid = resid - pair.mu * pair.matrix
                        bound = 1e-8 * float(np.abs(pair.matrix).max())
                        assert float(np.abs(resid).max()) <= bound


def test_acceptance_6_valid_generator_sweep(capsys):
    with criterion(capsys, 6, budget=120.0):
        rng = np.random.default_rng(778)
        times = (0.5, 1.0, 5.0)
        n_specs = 200
        n_unital = 0
        for idx in range(n_specs):
            N = int(rng.integers(2, 6))
            u = rng.random()
            if u < 0.4:
                spec = random_valid_spec(rng, N)
            elif u < 0.7:
                spec = random_identity_preserving_spec(rng, N)
            else:
                spec = random_pbd_spec(rng, N)
            assert gk.validate(spec).verdict

            # trace preservation and Hermiticity preservation
            rho = random_hermitian(rng, N)
            out = gk.apply_generator(spec, rho)
            assert abs(np.trace(out)) <= 1e-9
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10 * max(
                1.0, float(np.abs(out).max())
            )

            S = gk.superoperator(spec)
            R = N * N - N

            # population sector == digraph Laplacian, entrywise
            L = laplacian(gk.induced_digraph(spec, tol=0.0))
            assert np.max(np.abs(S[R:, R:] - L)) <= 1e-10 * max(1.0, np.max(np.abs(L)))

            # nullity of the population compression exceeds the traceless
            # diagonal compression by exactly one
            S_gm = to_gellmann(S)
            B = S_gm[R : R + N - 1, R : R + N - 1]
            sv_L = np.linalg.svd(S[R:, R:], compute_uv=False)
            sv_B = np.linalg.svd(B, compute_uv=False) if B.size else np.array([])
            thr_L = 1e-9 * max(1.0, float(sv_L.max()))
            nullity_L = int(np.sum(sv_L <= thr_L))
            thr_B = 1e-9 * max(1.0, float(sv_B.max()) if sv_B.size else 0.0)
            nullity_B = int(np.sum(sv_B <= thr_B))
            assert nullity_L == nullity_B + 1

            # spectrum sits in the closed left half plane
            evals = np.linalg.eigvals(S)
            assert float(evals.real.max()) <= 1e-8

            # unitality <=> Hilbert-Schmidt contraction of the semigroup
            unital = gk.identity_preserving(spec)
            contracting = True
            for t in times:
                nrm = float(
                    np.linalg.norm(scipy.linalg.expm(t * S), ord=2)
                )
                contracting = contracting and (nrm <= 1.0 + 1e-7)
            assert contracting == unital, (
                f"unital={unital} but contracting={contracting} (spec {idx}, N={N})"
            )
            n_unital += int(unital)
        assert n_unital >= 20  # both branches of the equivalence are exercised
        assert n_specs - n_unital >= 20


def test_acceptance_7_containment_sweep(capsys):
    with criterion(capsys, 7, budget=60.0):
        rng = np.random.default_rng(779)
        for _ in range(200):
            N = int(rng.integers(2, 6))
            spec = random_identity_preserving_spec(rng, N)
            assert gk.kernel_containment_check(spec)
            res = gk.k_operator(spec)
            _, C = gk.standard_to_gellmann(spec)
            if float(np.abs(C).max()) > 1e-9:
                assert res.epsilon > 0.0


def test_acceptance_8_consistency_bound_sweep(capsys):
    with criterion(capsys, 8, budget=60.0):
        rng = np.random.default_rng(780)
        for _ in range(200):
            N = int(rng.integers(3, 7))
            spec, parts = random_consistent_spec(rng, N)
            report = gk.consistency_and_bound(spec)  # RuntimeError on violation
            assert report.consistent
            assert report.lower_bound == len(parts)
            assert report.lower_bound <= report.nullity
            assert report.projection_check


def test_acceptance_9_matrix_tree_enumeration(capsys):
    with criterion(capsys, 9, budget=60.0):
        rng = np.random.default_rng(781)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            g = random_digraph(rng, n, p=float(rng.uniform(0.2, 0.8)))
            for sv in gk.tscc_stationary_vectors(g):
                scale = math.exp(sv.log_normalization)
                for root in sv.component:
                    got = sv.rho[root - 1] * scale
                    want = enumerate_in_tree_weight(g.rates, sv.component, root)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_acceptance_10_diagonal_dissipator_coefficients(capsys):
    with criterion(capsys, 10, budget=60.0):
        for N in range(2, 7):
            for n in range(1, N):
                for k in range(1, N + 1):
                    for ell in range(1, N + 1):
                        if k == ell:
                            continue
                        coeff = gk.gm_diag_dissipator_coeff(n, k, ell, N)
                        direct = direct_diag_dissipator_matrix(n, k, ell, N)
                        want = coeff * gk.gellmann(k, ell, N)
                        assert np.max(np.abs(direct - want)) <= 1e-12
