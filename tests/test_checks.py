"""Truss deciders and bound reporting, and the brute-force oracles they
are checked against."""

import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trusskit import (
    bound_report,
    clique_chain,
    critical_2truss,
    critical_truss,
    from_edges,
    gnp_random,
    is_critical_k_truss,
    is_k_truss,
    parse_edge_list,
    triangle_counts,
    truss_decomposition,
)
from trusskit.graphs import ValidationError
from trusskit.peel import TrussLabels, _critical_trials

from .oracles import (
    adjacency,
    edge_pairs,
    CapExceeded,
    brute_force_triangles,
    dense_is_k_truss,
    is_critical_k_truss_exhaustive,
    level_bound_checks,
    oracle_truss_decomposition,
    peel_to_fixed_point,
    single_edge_peels_critical,
    vertex_counts,
)
from .strategies import small_graphs


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def test_brute_force_k6():
    assert brute_force_triangles(complete(6)).total == 20


def test_brute_force_c5():
    c5 = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert brute_force_triangles(c5).total == 0


def test_brute_force_matches_fast_counts():
    for seed in range(40):
        g = gnp_random(15, 0.5, seed=seed)
        slow = brute_force_triangles(g)
        fast = triangle_counts(g)
        assert slow.per_edge == fast.per_edge
        assert slow.per_vertex == vertex_counts(g)
        assert slow.total == fast.total


def test_brute_force_cap():
    with pytest.raises(CapExceeded):
        brute_force_triangles(gnp_random(30, 0.1, seed=0), cap=20)


def test_oracle_k5():
    assert oracle_truss_decomposition(complete(5)).tau == [3] * 10


def test_oracle_clique_chain():
    assert oracle_truss_decomposition(clique_chain(2, 2)).tau == [2] * 12


def test_is_k_truss_cliques():
    for k in range(1, 6):
        assert is_k_truss(complete(k + 2), k)
        # dropping any edge loses the property
        g = complete(k + 2)
        smaller = from_edges(k + 2, edge_pairs(g)[1:])
        assert not is_k_truss(smaller, k)


def test_is_k_truss_critical_2truss_levels():
    g = critical_2truss(8)
    assert is_k_truss(g, 2)
    assert not is_k_truss(g, 3)


def test_is_k_truss_isolated_vertex():
    g = from_edges(4, [(1, 2), (1, 3), (2, 3)])  # vertex 4 isolated
    assert not is_k_truss(g, 1)


@given(small_graphs())
def test_is_k_truss_matches_dense_oracle(G):
    for k in (0, 1, 2, 3):
        assert is_k_truss(G, k) == dense_is_k_truss(G, k)


def test_is_critical_examples():
    assert is_critical_k_truss(complete(4), 2)
    assert not is_critical_k_truss(clique_chain(2, 2), 2)
    assert is_critical_k_truss(complete(3), 1)
    c4 = from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not is_critical_k_truss(c4, 1)  # not even a 1-truss


def test_exhaustive_agrees_with_peel_based():
    cases = [
        (complete(3), 1),
        (complete(4), 1),
        (complete(4), 2),
        (from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]), 1),
        (clique_chain(1, 2), 1),
    ]
    for seed in range(8):
        g = gnp_random(6, 0.5, seed=seed)
        if g.m and g.m <= 12:
            cases.append((g, 1))
    for g, k in cases:
        if g.m > 12:
            continue
        assert is_critical_k_truss(g, k) == is_critical_k_truss_exhaustive(g, k)


def test_exhaustive_cap():
    with pytest.raises(CapExceeded):
        is_critical_k_truss_exhaustive(complete(8), 2)


def cycle_join(c, k, seed):
    """A c-cycle joined to K_k minus a perfect matching (k even), its edge
    ids in a seeded shuffled order: a critical k-truss for c >= 4."""
    hubs = range(c + 1, c + k + 1)
    pairs = [(i, i % c + 1) for i in range(1, c + 1)]
    pairs += [(a, b) for a, b in combinations(hubs, 2) if b - a != k // 2]
    pairs += [(v, h) for v in range(1, c + 1) for h in hubs]
    random.Random(seed).shuffle(pairs)
    return from_edges(c + k, pairs)


def with_chord(g):
    """g plus the missing edge with the most common neighbours."""
    nbrs = adjacency(g)
    _, u, v = max(
        (len(nbrs[u] & nbrs[v]), u, v)
        for u, v in combinations(g.vertices, 2)
        if v not in nbrs[u]
    )
    return from_edges(g.n, [*edge_pairs(g), (u, v)])


def two_copies(g):
    pairs = edge_pairs(g)
    return from_edges(2 * g.n, [*pairs, *((u + g.n, v + g.n) for u, v in pairs)])


def diamond():
    return parse_edge_list("b c\na b\na c\nb d\nc d\n")


@given(small_graphs())
def test_critical_matches_single_edge_peels_hypothesis(G):
    for k in range(-1, 6):
        assert is_critical_k_truss(G, k) == single_edge_peels_critical(G, k)


def test_critical_matches_single_edge_peels_structured():
    cases = [diamond(), complete(2), complete(6)]
    for k in range(2, 7):
        for n in sorted({k + 4, 2 * k + 4, 3 * k + 2}):
            g = critical_truss(k, n)
            cases += [g, with_chord(g), two_copies(g)]
    for c, k in [(5, 2), (9, 4), (20, 4), (7, 6)]:
        for seed in range(3):
            g = cycle_join(c, k, seed)
            cases += [g, with_chord(g)]
    cases += [clique_chain(k, s) for k in range(1, 5) for s in (1, 2, 3)]
    for g in cases:
        for k in range(-1, 6):
            assert is_critical_k_truss(g, k) == single_edge_peels_critical(g, k), (g, k)


def test_critical_diamond_first_trial_empties_a_later_one_does_not():
    # deleting b-c (edge 0) empties the 1-truss, deleting any other edge
    # leaves one of its two triangles
    g = diamond()
    pairs = edge_pairs(g)
    for e in range(g.m):
        kept = peel_to_fixed_point(from_edges(4, pairs[:e] + pairs[e + 1 :]), 1)
        assert len(kept) == (0 if e == 0 else 3)
    assert not is_critical_k_truss(g, 1)


@pytest.mark.parametrize(
    "name, make, k",
    [
        ("cycle_join(150, 4)", lambda: cycle_join(150, 4, seed=1), 4),
        ("critical_2truss(1000)", lambda: critical_2truss(1000), 2),
        ("critical_truss(4, 400)", lambda: critical_truss(4, 400), 4),
    ],
)
def test_critical_trials_kill_at_most_four_per_triangle(name, make, k):
    # m independent peels would kill every triangle m times over
    counts = triangle_counts(make())
    critical, kills = _critical_trials(counts, k)
    assert critical
    assert kills <= 4 * counts.total, f"{name}: {kills / counts.total:.2f} kills per triangle"


# -- bound report ---------------------------------------------------------------


def test_bound_report_k5_tight_edge_bound():
    g = complete(5)
    labels = truss_decomposition(g)
    report = bound_report(g, labels)
    assert report.passed
    # tau = 3 attains sqrt(2m + 1/4) - 3/2 exactly at m = 10
    by_name = {c.name: c for c in report.checks}
    assert by_name["trussness_vs_edge_count"].margin == 0
    assert (2 * max(labels.tau) + 3) ** 2 == 8 * g.m + 1


def test_bound_report_chain_tight_component_edges():
    g = clique_chain(2, 4)
    report = bound_report(g, truss_decomposition(g))
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["component_edge_count"].margin == 0


def test_bound_report_random_exact_labels_pass():
    for seed in range(25):
        g = gnp_random(25, 0.4, seed=seed)
        report = bound_report(g, truss_decomposition(g))
        assert report.passed, report.failures()


def test_bound_report_triangle_free():
    star = from_edges(5, [(1, i) for i in range(2, 6)])
    report = bound_report(star, truss_decomposition(star))
    assert report.passed


def test_bound_report_flags_corrupted_labels_with_witness():
    g = complete(5)
    labels = truss_decomposition(g)
    fake = TrussLabels([t + 5 for t in labels.tau], None)
    report = bound_report(g, fake)
    assert not report.passed
    assert all(c.witness for c in report.failures())


def test_bound_report_rejects_truncated_labels():
    g = complete(4)
    labels = TrussLabels([1] * 6, truncated_at=1)
    with pytest.raises(ValidationError):
        bound_report(g, labels)


GLOBAL_CHECKS = ("trussness_vs_edge_count", "trussness_vs_degeneracy")


def _level_checks(report):
    return [c for c in report.checks if c.name not in GLOBAL_CHECKS]


@given(small_graphs(max_n=9, min_m=1), st.data())
def test_bound_report_matches_level_by_level_reference(G, data):
    labels = truss_decomposition(G)
    bumps = data.draw(st.lists(st.integers(0, 2), min_size=G.m, max_size=G.m))
    for tau in (labels.tau, [t + b for t, b in zip(labels.tau, bumps)]):
        report = bound_report(G, TrussLabels(tau, None))
        assert _level_checks(report) == level_bound_checks(G, tau)


def test_bound_report_matches_reference_on_chains_and_cliques():
    for g in (clique_chain(2, 4), clique_chain(3, 3), complete(7), critical_2truss(9)):
        tau = truss_decomposition(g).tau
        for bumped in (tau, [t + (e % 3) for e, t in enumerate(tau)]):
            report = bound_report(g, TrussLabels(bumped, None))
            assert _level_checks(report) == level_bound_checks(g, bumped)
