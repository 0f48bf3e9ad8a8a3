"""Full truss decomposition against the naive re-scanning oracle."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from trusskit import (
    ValidationError,
    clique_chain,
    from_edges,
    gnp_random,
    is_k_truss,
    induced_by_edges,
    k_truss_components,
    max_k_truss,
    oracle_truss_decomposition,
    truss_decomposition,
)
from trusskit.graphs import degeneracy
from trusskit.peel import instrumented_truss_decomposition

from .strategies import small_graphs


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def bowtie():
    return from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_k5_all_three():
    assert truss_decomposition(complete(5)).tau == [3] * 10


def test_clique_chain_all_two():
    assert truss_decomposition(clique_chain(2, 2)).tau == [2] * 12


def test_bowtie_and_star():
    assert truss_decomposition(bowtie()).tau == [1] * 6
    star = from_edges(6, [(1, i) for i in range(2, 7)])
    assert truss_decomposition(star).tau == [0] * 5


def test_full_labels_are_exact():
    labels = truss_decomposition(complete(4))
    assert labels.all_exact and labels.truncated_at is None


def test_oracle_equivalence_random():
    for seed in range(30):
        g = gnp_random(25, 0.35, seed=seed)
        assert truss_decomposition(g).tau == oracle_truss_decomposition(g).tau


@given(small_graphs())
def test_oracle_equivalence_hypothesis(G):
    assert truss_decomposition(G).tau == oracle_truss_decomposition(G).tau


@given(small_graphs())
def test_internal_invariants_hold(G):
    labels = truss_decomposition(G, check_invariants=True)
    assert labels.tau == oracle_truss_decomposition(G).tau


def test_max_k_truss_k5():
    assert len(max_k_truss(complete(5), 3)) == 10
    assert max_k_truss(complete(5), 4) == ()


def test_max_k_truss_pendant():
    g = from_edges(5, list(combinations(range(1, 5), 2)) + [(4, 5)])
    kept = max_k_truss(g, 2)
    assert len(kept) == 6
    assert g.edge_id(4, 5) not in kept


def test_max_k_truss_zero_keeps_all():
    assert max_k_truss(bowtie(), 0) == tuple(range(6))


@given(small_graphs())
def test_fixed_point_characterization(G):
    labels = truss_decomposition(G)
    top = max(labels.tau, default=0)
    for k in range(1, top + 2):
        kept = set(max_k_truss(G, k))
        assert kept == {e for e in range(G.m) if labels.tau[e] >= k}


def test_components_bowtie():
    g = bowtie()
    comps = k_truss_components(g, 1, truss_decomposition(g))
    assert len(comps) == 1 and len(comps[0]) == 6


def test_components_two_k4():
    pairs = list(combinations(range(1, 5), 2)) + list(combinations(range(5, 9), 2))
    g = from_edges(8, pairs)
    comps = k_truss_components(g, 2, truss_decomposition(g))
    assert [len(c) for c in comps] == [6, 6]


def test_components_chain_connected():
    g = clique_chain(2, 2)
    comps = k_truss_components(g, 2, truss_decomposition(g))
    assert len(comps) == 1 and len(comps[0]) == 12


def test_components_each_is_k_truss():
    g = gnp_random(25, 0.4, seed=3)
    labels = truss_decomposition(g)
    for k in range(1, max(labels.tau) + 1):
        for comp in k_truss_components(g, k, labels):
            assert is_k_truss(induced_by_edges(g, comp), k)


def test_components_above_truncation_rejected():
    from trusskit.peel import TrussLabels

    g = complete(4)
    labels = TrussLabels([2] * 6, [False] * 6, truncated_at=2)
    with pytest.raises(ValidationError):
        k_truss_components(g, 3, labels)
    assert len(k_truss_components(g, 2, labels)) == 1


@given(small_graphs(min_m=1), st.randoms(use_true_random=False))
def test_isomorphism_invariance(G, rnd):
    perm = list(G.vertices)
    rnd.shuffle(perm)
    mapping = {v: perm[v - 1] for v in G.vertices}
    H = from_edges(G.n, [(mapping[u], mapping[v]) for u, v in G.edges])
    assert sorted(truss_decomposition(G).tau) == sorted(truss_decomposition(H).tau)


@given(small_graphs())
def test_work_accounting(G):
    labels, stats = instrumented_truss_decomposition(G)
    assert stats.stack_pushes <= G.m
    assert stats.scan_steps <= sum(t + 1 for t in labels.tau) + G.m
    assert stats.removal_steps <= sum(min(G.degree(u), G.degree(v)) for u, v in G.edges)


def test_scan_bound_against_average_degeneracy():
    for seed in range(10):
        g = gnp_random(30, 0.3, seed=seed)
        _, stats = instrumented_truss_decomposition(g)
        m_dbar = sum(min(g.degree(u), g.degree(v)) for u, v in g.edges)
        assert stats.scan_steps <= 2 * (g.m + m_dbar)


@given(small_graphs(min_m=1))
def test_tau_upper_bounds(G):
    labels = truss_decomposition(G)
    dg = degeneracy(G).degeneracy
    for t in labels.tau:
        assert (2 * t + 3) ** 2 <= 8 * G.m + 1
        assert t <= dg - 1


def test_empty_graph():
    labels = truss_decomposition(from_edges(0, []))
    assert labels.tau == []
