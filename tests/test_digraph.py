"""Digraph-layer tests: construction, SCCs, matrix-tree weights, DOT output."""

import json
import math

import networkx as nx
import numpy as np
import pytest

import gkslgraph as gk
from gkslgraph import cli
from helpers import (
    enumerate_in_tree_weight,
    gellmann_document,
    laplacian,
    pair_block_spec,
    random_digraph,
    random_valid_spec,
    rooted_spanning_weight,
    sink_menagerie_spec,
    superposition_decay_spec,
)


def as_networkx(graph: gk.InducedDigraph) -> nx.DiGraph:
    G = nx.DiGraph()
    G.add_nodes_from(range(1, graph.n + 1))
    for src, dst, w in graph.edges():
        G.add_edge(src, dst, weight=w)
    return G


def digraph_of(n: int, weights: dict[tuple[int, int], float]) -> gk.InducedDigraph:
    """The digraph on 1..n with the edge src -> dst of weight ``weights[(src, dst)]``."""
    rates = np.zeros((n, n))
    for (src, dst), w in weights.items():
        rates[src - 1, dst - 1] = w
    return gk.InducedDigraph(rates)


# ---------------------------------------------------------------------------
# container validation and construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rates, message",
    [
        (np.zeros((0, 0)), "non-empty square"),
        (np.zeros((2, 3)), "non-empty square"),
        (np.zeros(3), "non-empty square"),
        (np.array([[0.0, -1.0], [0.0, 0.0]]), "non-negative"),
        (np.array([[0.0, np.nan], [0.0, 0.0]]), "finite"),
        (np.array([[0.0, np.inf], [0.0, 0.0]]), "finite"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), "self-loops"),
    ],
)
def test_induced_digraph_rejects_bad_rates(rates, message):
    with pytest.raises(ValueError, match=message):
        gk.InducedDigraph(rates)


def test_induced_digraph_holds_a_read_only_copy():
    rates = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    g = gk.InducedDigraph(rates)
    rates[1, 0] = 5.0  # the caller's array is copied
    assert g.n == 3
    assert g.edges() == [(1, 2, 1.0), (1, 3, 2.0)]
    with pytest.raises(ValueError):
        g.rates[1, 0] = 5.0


def test_induced_digraph_from_fixture():
    g = gk.induced_digraph(superposition_decay_spec(a=1.0, b=0.75, c=0.5))
    assert g.n == 3
    assert g.edges() == [
        (1, 2, pytest.approx(1.0)),
        (2, 1, pytest.approx(1.0)),
        (3, 1, pytest.approx(0.75)),
        (3, 2, pytest.approx(0.5)),
    ]


def test_induced_digraph_threshold_and_clamping():
    # rates at or below the threshold are dropped; tiny negative diagonal
    # entries (roundoff) never become edges
    N = 2
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = 5e-10   # below default tol
    g[1, 1] = -1e-12  # negative roundoff
    spec = gk.GeneratorSpec(H=np.zeros((2, 2)), gamma=g)
    assert gk.induced_digraph(spec).edges() == []
    assert gk.induced_digraph(spec, tol=1e-10).edges() == [(2, 1, pytest.approx(5e-10))]


def test_induced_digraph_ignores_offdiagonal_block_entries():
    # coherence couplings inside a pair block do not create edges
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.array([[0.0, 0.9], [0.9, 0.0]])})
    assert gk.induced_digraph(spec).edges() == []


def test_induced_digraph_gellmann_route_agrees():
    # A Gell-Mann document is converted to the standard basis as it is
    # parsed, so its digraph is that of the converted spec, exactly.
    rng = np.random.default_rng(31)
    spec = random_valid_spec(rng, 3)
    gm = gk.standard_to_gellmann(spec)
    g_gm = gk.induced_digraph(gk.parse_spec_document(gellmann_document(*gm)))
    g_conv = gk.induced_digraph(gk.gellmann_to_standard(*gm))
    assert g_gm.n == g_conv.n == 3
    assert np.array_equal(g_gm.rates, g_conv.rates)
    g_std = gk.induced_digraph(gk.canonicalize(spec))
    assert np.array_equal(g_std.rates > 0, g_gm.rates > 0)
    assert np.allclose(g_gm.rates, g_std.rates, rtol=1e-9, atol=0.0)


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_menagerie_pinned():
    spec = sink_menagerie_spec()
    g = gk.induced_digraph(spec)
    L = laplacian(g)
    # the {6,7,8} block, 0-based rows/cols 5..7
    expected = np.array([[-5.0, 1.0, 3.0], [2.0, -2.0, 4.0], [3.0, 1.0, -7.0]])
    assert np.array_equal(L[5:8, 5:8], expected)
    assert np.max(np.abs(L.sum(axis=0))) == 0.0  # exact zero column sums


def test_laplacian_matches_population_sector_of_superoperator():
    # cross-route: restricted to diagonal labels, the full superoperator IS
    # the Laplacian of the induced digraph
    rng = np.random.default_rng(32)
    for N in (2, 3, 4):
        spec = random_valid_spec(rng, N)
        S = gk.superoperator(spec)
        R = N * N - N
        L = laplacian(gk.induced_digraph(spec, tol=0.0))
        assert np.max(np.abs(S[R:, R:] - L)) < 1e-10 * max(1.0, np.max(np.abs(L)))


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def test_scc_menagerie_pinned():
    g = gk.induced_digraph(sink_menagerie_spec())
    dec = gk.scc_decompose(g)
    assert dec.components == ((1,), (2,), (3,), (4, 5), (6, 7, 8))
    assert dec.terminal == (True, True, True, True, True)
    assert dec.terminal_components() == dec.components


def test_scc_with_transient_part():
    g = digraph_of(4, {(1, 2): 1.0, (2, 1): 1.0, (2, 3): 0.5, (3, 4): 1.0, (4, 3): 2.0})
    dec = gk.scc_decompose(g)
    assert dec.components == ((1, 2), (3, 4))
    assert dec.terminal == (False, True)
    # the graph decomposes itself once
    assert g.scc == dec and g.scc is g.scc


def test_scc_against_networkx_oracle():
    rng = np.random.default_rng(33)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.7)))
        dec = gk.scc_decompose(g)
        G = as_networkx(g)
        expected = sorted(
            (tuple(sorted(c)) for c in nx.strongly_connected_components(G)),
            key=min,
        )
        assert list(dec.components) == expected
        cond = nx.condensation(G)
        for k, comp in enumerate(dec.components):
            assert dec.terminal[k] == (cond.out_degree(cond.graph["mapping"][comp[0]]) == 0)
        weak = sorted(tuple(sorted(c)) for c in nx.weakly_connected_components(G))
        assert gk.undirected_components(g) == tuple(weak)


def test_undirected_components():
    g = digraph_of(5, {(1, 2): 1.0, (3, 2): 1.0, (4, 5): 1.0})
    assert gk.undirected_components(g) == ((1, 2, 3), (4, 5))
    lone = gk.InducedDigraph(np.zeros((2, 2)))
    assert gk.undirected_components(lone) == ((1,), (2,))


# ---------------------------------------------------------------------------
# matrix-tree weights and stationary vectors
# ---------------------------------------------------------------------------


def tree_weights(sv: gk.StationaryVector) -> np.ndarray:
    """The matrix-tree weights of ``sv``'s component, one per root, in vertex order."""
    return sv.rho[[v - 1 for v in sv.component]] * math.exp(sv.log_normalization)


def test_stationary_vectors_menagerie_pinned():
    g = gk.induced_digraph(sink_menagerie_spec())
    vecs = gk.tscc_stationary_vectors(g)
    by_comp = {v.component: v for v in vecs}
    assert set(by_comp) == {(1,), (2,), (3,), (4, 5), (6, 7, 8)}
    big = by_comp[(6, 7, 8)]
    assert big.log_normalization == pytest.approx(math.log(44.0), rel=1e-15)
    assert np.allclose(tree_weights(big), [10.0, 26.0, 8.0], rtol=1e-14, atol=0.0)
    expected = np.zeros(8)
    expected[5:8] = np.array([10.0, 26.0, 8.0]) / 44.0
    assert np.allclose(big.rho, expected, atol=1e-12)
    pair = by_comp[(4, 5)]
    assert pair.rho[3] == pytest.approx(0.5)
    assert pair.rho[4] == pytest.approx(0.5)
    assert by_comp[(1,)].log_normalization == 0.0  # a lone vertex: one empty tree


def test_stationary_vector_of_rates_spanning_310_decades():
    # 1 -> 2 -> 3 -> 1 at rates 1, 1e300 and 1e-10: the populations are
    # proportional to the inverse rates, and rate(2 -> 3) / rate(3 -> 1)
    # is beyond float range.
    [sv] = gk.tscc_stationary_vectors(digraph_of(3, {(1, 2): 1.0, (2, 3): 1e300, (3, 1): 1e-10}))
    assert np.allclose(sv.rho, np.array([1e-10, 1e-310, 1.0]) / (1.0 + 1e-10), rtol=1e-12, atol=0.0)
    assert sv.log_normalization == pytest.approx(math.log(1e300 + 1e290), rel=1e-12)


#: Graphs whose stationary ratios leave the float range: edges, then the
#: exact stationary distribution (rounded) and log of the total in-tree weight.
FAR_RATIO_GRAPHS = {
    # pi_{k+1} / pi_k = 1e30, so pi_12 / pi_1 = 1e330; pi_1 underflows to 0.
    "birth_death_N12": (
        {**{(k, k + 1): 1e22 for k in range(1, 12)}, **{(k + 1, k): 1e-8 for k in range(1, 12)}},
        [10.0 ** (-30 * (12 - v)) for v in range(1, 13)],
        242.0 * math.log(10.0),
    ),
    # pi_2 / pi_1 = 1e309.
    "two_cycle": ({(1, 2): 1e301, (2, 1): 1e-8}, [1e-309, 1.0], 301.0 * math.log(10.0)),
    # Each of pi_2 and pi_3 is finite, 1e308, but their sum is not.
    "finite_terms_infinite_sum": (
        {(1, 2): 1e300, (2, 1): 1e-8, (2, 3): 1.0, (3, 2): 1.0},
        [5e-309, 0.5, 0.5],
        math.log(2e300),
    ),
}


@pytest.mark.parametrize("name", sorted(FAR_RATIO_GRAPHS))
def test_stationary_vector_whose_ratios_leave_the_float_range(name):
    # GTH scales what it has built down by a power of two where the next
    # population, or the total, would overflow, and adds the shift to the
    # log: no inf, NaN or warning, and the state sits on the top level.
    weights, rho, log_weight = FAR_RATIO_GRAPHS[name]
    n = len(rho)
    [sv] = gk.tscc_stationary_vectors(digraph_of(n, weights))
    assert sv.component == tuple(range(1, n + 1))
    assert np.allclose(sv.rho, rho, rtol=1e-9, atol=0.0)
    assert sv.log_normalization == pytest.approx(log_weight, rel=1e-14)


def test_stationary_vectors_of_a_two_cycle():
    [sv] = gk.tscc_stationary_vectors(digraph_of(2, {(1, 2): 2.0, (2, 1): 3.0}))
    assert np.allclose(tree_weights(sv), [3.0, 2.0], rtol=1e-15, atol=0.0)


def test_matrix_tree_weights_against_oracles():
    # rho * exp(log_normalization) is, root by root, the determinant of the
    # rooted Laplacian minor and the brute-force sum over in-trees.
    rng = np.random.default_rng(36)
    for trial in range(500):
        n = int(rng.integers(1, 7))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.8)))
        for sv in gk.tscc_stationary_vectors(g):
            got = tree_weights(sv)
            minors = [rooted_spanning_weight(g, sv.component, r) for r in sv.component]
            trees = [enumerate_in_tree_weight(g.rates, sv.component, r) for r in sv.component]
            assert np.allclose(got, minors, rtol=1e-12, atol=0.0)
            assert np.allclose(got, trees, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rate", [0.1, 10.0])
def test_stationary_vector_of_a_long_cycle_stays_finite(rate):
    # Its one in-tree per root weighs rate**399: 1e-399 and 1e399 overflow a
    # float, but their log does not.
    n = 400
    rates = np.zeros((n, n))
    rates[np.arange(n), (np.arange(n) + 1) % n] = rate
    [sv] = gk.tscc_stationary_vectors(gk.InducedDigraph(rates))
    assert sv.component == tuple(range(1, n + 1))
    assert np.all(sv.rho == 1.0 / n)
    expected = math.log(n) + (n - 1) * math.log(rate)
    assert sv.log_normalization == pytest.approx(expected, rel=1e-12)


def test_stationary_vectors_annihilated_by_laplacian():
    # the headline digraph property: every returned vector is stationary,
    # and there are exactly as many as the Laplacian nullity
    rng = np.random.default_rng(35)
    for trial in range(500):
        n = int(rng.integers(1, 9))
        g = random_digraph(rng, n, p=float(rng.uniform(0.1, 0.8)))
        L = laplacian(g)
        vecs = gk.tscc_stationary_vectors(g)
        for v in vecs:
            assert np.max(np.abs(L @ v.rho)) < 1e-9
            assert v.rho.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(v.rho >= 0.0)
        svals = np.linalg.svd(L, compute_uv=False)
        nullity = int(np.sum(svals < 1e-9 * max(1.0, svals.max() if svals.size else 1.0)))
        assert len(vecs) == nullity


# ---------------------------------------------------------------------------
# sink classification
# ---------------------------------------------------------------------------


def digraph_command(spec, tmp_path, capsys) -> tuple[dict, str]:
    """The ``digraph`` command's JSON document and DOT text for ``spec``."""
    path, dot = tmp_path / "spec.json", tmp_path / "g.dot"
    path.write_text(gk.dump_json(gk.spec_to_document(spec)))
    assert cli.main(["digraph", str(path), "--out", str(dot)]) == 0
    return json.loads(capsys.readouterr().out), dot.read_text()


def test_sinks_of_the_menagerie(tmp_path, capsys):
    doc, _ = digraph_command(sink_menagerie_spec(), tmp_path, capsys)
    assert doc["sinks"] == [1, 2, 3]
    assert doc["two_sinks"] == [[4, 5]]
    assert doc["singular_two_sinks"] == [[4, 5]]


def test_sinks_of_the_superposition(tmp_path, capsys):
    # vertex 3 drains into the pair, so the only terminal component is {1,2}
    doc, _ = digraph_command(superposition_decay_spec(), tmp_path, capsys)
    assert doc["sinks"] == []
    assert doc["two_sinks"] == [[1, 2]]
    assert doc["singular_two_sinks"] == [[1, 2]]


def test_sinks_of_a_nonsingular_two_cycle(tmp_path, capsys):
    # symmetric hopping with a full-rank block: a two-sink, but not singular
    spec = pair_block_spec(2, np.zeros((2, 2)), {(1, 2): np.diag([1.0, 1.0])})
    doc, dot = digraph_command(spec, tmp_path, capsys)
    assert doc["two_sinks"] == [[1, 2]]
    assert doc["singular_two_sinks"] == []
    assert "singular2sink" not in dot


# ---------------------------------------------------------------------------
# DOT rendering
# ---------------------------------------------------------------------------


def test_to_dot_structure(tmp_path, capsys):
    _, dot = digraph_command(sink_menagerie_spec(), tmp_path, capsys)
    assert dot.startswith("digraph")
    assert dot.endswith("\n")
    # terminal multi-vertex classes are clustered
    assert "subgraph cluster_" in dot
    assert "TSCC" in dot
    # sinks are marked (the '[' prefix keeps edge attributes out of the count)
    assert dot.count('[sink="true"') == 3
    assert "doublecircle" in dot
    # the singular pair's edges are dashed and tagged
    assert 'singular2sink="true"' in dot
    assert "style=dashed" in dot


def test_to_dot_weight_labels_round_trip():
    g = digraph_of(2, {(1, 2): 1.0 / 3.0})
    dot = gk.to_dot(g, ())
    # the sink is read off the graph
    assert '  2 [sink="true", shape=doublecircle];' in dot
    # weights are printed with enough digits to round-trip
    assert f"{1.0 / 3.0:.17g}" in dot
