"""Scaling behavior of the instrumented decompositions."""

from itertools import combinations

from trusskit import WitnessConfig, from_edges, init_witness
from trusskit.peel import instrumented_truss_decomposition
from trusskit.witness import run_rounds

from .oracles import min_degree_sum
from .strategies import gnp_random


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def test_complete_family_scan_ratio_stays_flat():
    # the scan counter tracks m * avg-min-degree within a factor of two
    # across a family that grows by 4x per step
    ratios = []
    for n in (50, 100, 200):
        g = complete(n)
        _, stats = instrumented_truss_decomposition(g)
        m_dbar = min_degree_sum(g)
        ratios.append(stats.scan_steps / m_dbar)
    assert max(ratios) <= 2 * min(ratios)


def test_triangle_free_family_single_round():
    for g in (
        from_edges(9, [(1, i) for i in range(2, 10)]),
        from_edges(8, [(i, i % 8 + 1) for i in range(1, 9)]),
    ):
        _, stats = instrumented_truss_decomposition(g)
        assert stats.rounds == 1


def test_fallback_rate_sparse_graph():
    g = gnp_random(200, 0.1, seed=424242)
    state = init_witness(g, WitnessConfig(k_trunc=12))
    run_rounds(state)
    assert state.enumeration_calls >= 1000
    assert state.fallback_calls / state.enumeration_calls < 0.01
