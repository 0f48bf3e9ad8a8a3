"""Full truss decomposition against the naive re-scanning oracle."""

import re
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from trusskit import (
    ValidationError,
    clique_chain,
    from_edges,
    gnp_random,
    is_k_truss,
    k_truss_components,
    triangle_counts,
    truss_decomposition,
)
from trusskit import peel
from trusskit.graphs import degeneracy
from trusskit.peel import _truncation_cap, instrumented_truss_decomposition

from .oracles import (
    edge_components,
    edge_pairs,
    min_degree_sum,
    assert_invariants,
    induced_by_edges,
    oracle_truss_decomposition,
    peel_to_fixed_point,
)
from .strategies import small_graphs
from .test_checks import cycle_join


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
    assert all(labels.exact) and labels.truncated_at is None


def test_oracle_equivalence_random():
    for seed in range(30):
        g = gnp_random(25, 0.35, seed=seed)
        assert truss_decomposition(g).tau == oracle_truss_decomposition(g).tau


@given(small_graphs())
def test_oracle_equivalence_hypothesis(G):
    assert truss_decomposition(G).tau == oracle_truss_decomposition(G).tau


@given(small_graphs(), st.sampled_from([1, peel._SWITCH]))
# edge 1-2 loses two triangles in one bulk step and survives it; then a
# survivor whose two kills are not adjacent in the listing, and a triangle
# that only the last incidence id of a gather reaches
@example(from_edges(6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5), (1, 6), (2, 6), (5, 6)]), 1)
@example(from_edges(5, [(1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (3, 5), (4, 5)]), 1)
@example(from_edges(8, [(1, 5), (1, 8), (2, 4), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8), (4, 5),
                        (4, 6), (4, 7), (5, 6), (5, 8), (6, 7), (6, 8)]), 1)
def test_internal_invariants_hold(G, switch):
    # the production entry point, with the kernel's check hook set to the
    # reference invariants after every scan, bulk step and drained stack;
    # a switch of 1 sends every frontier through bulk steps
    kernel, runs = peel._peel, []

    def checked(delta, *args):
        runs.append(args)
        return kernel(delta, *args, check=partial(assert_invariants, G, delta))

    with mock.patch.object(peel, "_peel", checked), mock.patch.object(peel, "_SWITCH", switch):
        labels = truss_decomposition(G)
    assert len(runs) == (G.m > 0)
    assert labels.tau == oracle_truss_decomposition(G).tau


@given(small_graphs(), st.sampled_from(["bulk", "mixed", "stack"]), st.sampled_from([1, 7]))
# edge 1-2 falls below k in one gather chunk and again in the next
@example(from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]), "mixed", 1)
def test_bulk_and_stack_steps_agree(G, kind, gather):
    # bulk steps only (switch 1), both (switch 3) or stack steps only
    # (switch above m), with gathers cut after 1 or 7 incidence ids: the
    # same labels, and each triangle killed once, by the first of its
    # edges to go
    full = oracle_truss_decomposition(G).tau
    counts = triangle_counts(G)
    first = [min(full[e] for e in counts.listing[3 * t : 3 * t + 3]) for t in range(counts.total)]
    switch = {"bulk": 1, "mixed": 3, "stack": G.m + 1}[kind]
    with mock.patch.multiple(peel, _SWITCH=switch, _GATHER=gather):
        for k_trunc in [None, *range(1, _truncation_cap(G.m) + 1)]:
            labels, stats = instrumented_truss_decomposition(G, k_trunc=k_trunc)
            assert labels.tau == [min(t, k_trunc or t) for t in full]
            assert stats.removal_steps == sum(t < (k_trunc or t + 1) for t in first)
            stacked = sum(1 <= t < (k_trunc or t + 1) for t in full)  # after round 1
            if kind != "mixed":
                assert stats.stack_pushes == (0 if kind == "bulk" else stacked)


def test_long_cascade_drains_through_the_stack():
    # a critical 4-truss (a c-cycle joined to a 4-cycle of hubs) minus one
    # cycle edge: every edge keeps at least 3 triangles, so round 4 removes
    # all of it in one cascade round the cycle whose frontiers stay far
    # below the switch size. Every tau is 3, as the reference finds for c = 12
    for c in (12, 20_000):
        G = from_edges(c + 4, [p for p in edge_pairs(cycle_join(c, 4, seed=1)) if p != (1, 2)])
        labels, stats = instrumented_truss_decomposition(G)
        assert labels.tau == [3] * G.m
        if c == 12:
            assert labels.tau == oracle_truss_decomposition(G).tau
        assert stats.removal_steps == triangle_counts(G).total
        assert stats.stack_pushes == G.m


# the maximal k-truss: the edges the reference peel keeps


def test_max_k_truss_k5():
    assert len(peel_to_fixed_point(complete(5), 3)) == 10
    assert peel_to_fixed_point(complete(5), 4) == []


def test_max_k_truss_pendant():
    g = from_edges(5, list(combinations(range(1, 5), 2)) + [(4, 5)])
    kept = peel_to_fixed_point(g, 2)
    assert len(kept) == 6
    assert g.edge_id(4, 5) not in kept


@given(small_graphs())
def test_fixed_point_characterization(G):
    labels = truss_decomposition(G)
    top = max(labels.tau, default=0)
    for k in range(1, top + 2):
        kept = set(peel_to_fixed_point(G, k))
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


@given(small_graphs(min_m=1), st.data())
@example(from_edges(6, [(4, 5), (5, 6), (4, 6), (1, 2), (2, 3), (1, 3)]), None)
def test_components_match_the_breadth_first_oracle(G, data):
    # ordered by smallest edge id, not by smallest vertex: the example's
    # first component holds vertices 4..6
    taus = st.lists(st.integers(0, 3), min_size=G.m, max_size=G.m)
    tau = [3] * G.m if data is None else data.draw(taus)
    labels = peel.TrussLabels(tau)
    for k in (1, 2, 3):
        comps = edge_components(G, [e for e in range(G.m) if tau[e] >= k])
        assert k_truss_components(G, k, labels) == comps
        ids = [-1] * G.m
        for i, comp in enumerate(comps):
            for e in comp:
                ids[e] = i
        assert peel.component_ids(G, k, labels).tolist() == ids


def test_components_above_truncation_rejected():
    from trusskit.peel import TrussLabels

    g = complete(4)
    labels = TrussLabels([2] * 6, truncated_at=2)
    with pytest.raises(ValidationError):
        k_truss_components(g, 3, labels)
    assert len(k_truss_components(g, 2, labels)) == 1


@given(small_graphs(min_m=1), st.randoms(use_true_random=False))
def test_isomorphism_invariance(G, rnd):
    perm = list(G.vertices)
    rnd.shuffle(perm)
    mapping = {v: perm[v - 1] for v in G.vertices}
    H = from_edges(G.n, [(mapping[u], mapping[v]) for u, v in edge_pairs(G)])
    assert sorted(truss_decomposition(G).tau) == sorted(truss_decomposition(H).tau)


@given(small_graphs())
def test_work_accounting(G):
    labels, stats = instrumented_truss_decomposition(G)
    assert stats.stack_pushes <= G.m
    assert stats.scan_steps <= sum(t + 1 for t in labels.tau) + G.m
    # each triangle dies once, with the first of its edges to go
    assert stats.removal_steps == triangle_counts(G).total
    assert stats.removal_steps <= min_degree_sum(G)


def test_scan_bound_against_average_degeneracy():
    for seed in range(10):
        g = gnp_random(30, 0.3, seed=seed)
        _, stats = instrumented_truss_decomposition(g)
        m_dbar = min_degree_sum(g)
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


@given(small_graphs())
def test_stopped_peel_equals_clamped_labels(G):
    full = truss_decomposition(G).tau
    total = triangle_counts(G).total
    for k_trunc in range(1, _truncation_cap(G.m) + 1):
        labels, stats = instrumented_truss_decomposition(G, k_trunc=k_trunc)
        assert labels.tau == [min(t, k_trunc) for t in full]
        assert labels.exact == [t < k_trunc for t in full]
        assert labels.truncated_at == k_trunc
        assert stats.removal_steps <= total


def test_stopped_peel_k_trunc_checks():
    g = bowtie()  # m = 6, cap = ceil(sqrt(12)) = 4
    truss_decomposition(g, k_trunc=4)
    for k_trunc, message in ((0, "k_trunc must be positive"),
                             (5, "k_trunc=5 exceeds ceil(sqrt(2m))=4 for m=6")):
        with pytest.raises(ValidationError, match=re.escape(message)):
            truss_decomposition(g, k_trunc=k_trunc)
    empty = truss_decomposition(from_edges(0, []), k_trunc=3)
    assert (empty.tau, empty.exact, empty.truncated_at) == ([], [], 3)
    with pytest.raises(ValidationError, match="k_trunc must be positive"):
        truss_decomposition(from_edges(0, []), k_trunc=0)
