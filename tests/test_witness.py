"""Witness-table structure: initialization, enumeration, dynamic updates."""

import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from trusskit import (
    ResourceLimitError,
    ValidationError,
    WitnessConfig,
    enumerate_residual,
    from_edges,
    gnp_random,
    init_witness,
    remove_edge,
    truncated_decomposition,
    truss_decomposition,
)
from trusskit import witness
from trusskit.triangles import triangle_vertices
from trusskit.peel import REMOVED, _truncation_cap
from trusskit.witness import _DRAW_BLOCK, run_rounds

from .oracles import residual_common_neighbors, scratch_witness_table


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def bowtie():
    return from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def skewed(n, m, seed):
    """Chung-Lu-style graph: endpoints drawn with weight rank^-0.6, so a
    few hubs carry most triangles."""
    rng = np.random.default_rng(seed)
    w = np.arange(1, n + 1) ** -0.6
    ends = rng.choice(n, size=(4 * m, 2), p=w / w.sum()) + 1
    pairs = {}
    for u, v in ends.tolist():
        if u != v:
            pairs.setdefault((min(u, v), max(u, v)), None)
    return from_edges(n, list(pairs)[:m])


# -- configuration ------------------------------------------------------------


def test_k_trunc_above_cap_rejected():
    g = bowtie()  # m = 6, cap = ceil(sqrt(12)) = 4
    assert _truncation_cap(6) == 4
    with pytest.raises(ValidationError):
        init_witness(g, WitnessConfig(k_trunc=5))
    init_witness(g, WitnessConfig(k_trunc=4))


def test_memory_cap_refusal_mentions_sizes():
    g = complete(6)
    with pytest.raises(ResourceLimitError, match="cap"):
        init_witness(g, WitnessConfig(k_trunc=2, mem_cap_bytes=100))


@pytest.mark.parametrize("mode", ["direct", "matrix"])
@pytest.mark.parametrize(
    "g",
    [
        skewed(400, 3000, seed=4),
        complete(40),
        from_edges(300, [(1, i) for i in range(2, 301)]),
        gnp_random(80, 0.2, seed=6),
    ],
    ids=["skewed", "K40", "star", "gnp"],
)
def test_init_peak_within_mem_estimate(g, mode):
    for prob in (None, 1.0):  # q = 1 puts every vertex in every set
        tracemalloc.start()
        try:
            state = init_witness(
                g, WitnessConfig(k_trunc=3, seed=2, prob=prob, init_mode=mode)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.mem_estimate, prob
        with pytest.raises(ResourceLimitError):
            init_witness(
                g,
                WitnessConfig(
                    k_trunc=3, prob=prob, init_mode=mode,
                    mem_cap_bytes=state.mem_estimate - 1,
                ),
            )


def test_bad_probability_rejected():
    with pytest.raises(ValidationError):
        init_witness(complete(4), WitnessConfig(k_trunc=2, prob=0.0))


def test_b_outside_range_rejected():
    g = gnp_random(20, 0.5, seed=1)
    with pytest.raises(ValidationError):
        init_witness(g, WitnessConfig(k_trunc=4, b=0.05))


# -- initialization -----------------------------------------------------------


def test_triangle_free_tables_are_zero():
    star = from_edges(6, [(1, i) for i in range(2, 7)])
    state = init_witness(star, WitnessConfig(k_trunc=1, seed=9))
    assert not state.S.any()
    assert not state.delta.any()


def test_single_witness_row_is_the_id():
    g = complete(4)
    xmat = np.zeros((5, 1), dtype=bool)
    xmat[3, 0] = True  # X_1 = {3}
    state = init_witness(g, WitnessConfig(k_trunc=2, sets=1), _xmat=xmat)
    e = g.edge_id(1, 2)
    assert state.S[e, 0] == 3
    assert state.delta[e] == 2


def assert_modes_agree(g, seed, b):
    direct = init_witness(g, WitnessConfig(k_trunc=3, seed=seed, b=b))
    matrix = init_witness(g, WitnessConfig(k_trunc=3, seed=seed, b=b, init_mode="matrix"))
    assert np.array_equal(direct.S, matrix.S)
    assert np.array_equal(direct.delta, matrix.delta)


def heavy_per_triangle(g, b):
    """The numbers of heavy vertices (degree over m^(1-b)) that g's
    triangles have."""
    heavy = {v for v in g.vertices if g.degrees[v] > g.m ** (1.0 - b)}
    return {len(heavy.intersection(t)) for t in triangle_vertices(g).tolist()}


def test_matrix_init_muladd_ceiling(monkeypatch):
    # h^3 (L + 1) for h heavy vertices: refused one under it, run at it
    g = gnp_random(30, 0.4, seed=1)
    cfg = WitnessConfig(k_trunc=3, b=0.9, init_mode="matrix")
    L = init_witness(g, cfg).L
    h = sum(1 for v in g.vertices if g.degrees[v] > g.m ** (1.0 - 0.9))
    assert h > 0
    monkeypatch.setattr(witness, "_MATRIX_MULADDS", h**3 * (L + 1) - 1)
    with pytest.raises(ResourceLimitError, match=f"~{h**3 * (L + 1)} multiply-adds"):
        init_witness(g, cfg)
    monkeypatch.setattr(witness, "_MATRIX_MULADDS", h**3 * (L + 1))
    assert init_witness(g, cfg).L == L


def test_init_refusals_name_config_fields(monkeypatch):
    # the witness engine has no command-line flags, so its refusals name
    # WitnessConfig fields
    g = gnp_random(30, 0.4, seed=1)
    monkeypatch.setattr(witness, "_MATRIX_MULADDS", 0)
    messages = []
    for cfg in (
        WitnessConfig(k_trunc=3, b=0.9, init_mode="matrix"),
        WitnessConfig(k_trunc=3, mem_cap_bytes=100),
    ):
        with pytest.raises(ResourceLimitError) as exc:
            init_witness(g, cfg)
        messages.append(str(exc.value))
    assert "multiply-adds" in messages[0] and "100-byte cap" in messages[1]
    assert not any("--" in message for message in messages), messages


@pytest.mark.parametrize("b", [0.5, 2 / 3, 0.9])
def test_matrix_init_equals_direct(b):
    # on G(30, 0.4) these b make almost every vertex heavy
    for seed in range(20):
        assert_modes_agree(gnp_random(30, 0.4, seed=seed), seed, b)
    # the folded listing and the products each take their own triangles:
    # below b = 0.9 the skewed graph has triangles with 0, 1, 2 and 3 heavy
    # vertices, and at the lowest b (= a) no vertex is heavy at all
    g = skewed(400, 3000, seed=4)
    a = math.log(3) / math.log(g.m)
    assert heavy_per_triangle(g, b) == ({3} if b == 0.9 else {0, 1, 2, 3})
    assert heavy_per_triangle(g, a) == {0}
    assert_modes_agree(g, 4, b)
    assert_modes_agree(g, 4, a)


def test_blocked_draw_matches_one_shot_draw():
    star = from_edges(900, [(1, i) for i in range(2, 901)])
    state = init_witness(star, WitnessConfig(k_trunc=3, seed=11))
    assert star.n + 1 > _DRAW_BLOCK // state.L  # spans several row blocks
    ref = np.random.default_rng(11).random((star.n + 1, state.L)) < state.q
    ref[0] = False
    assert np.array_equal(state.xmat, ref)


def test_delta_matches_common_neighbor_count():
    g = gnp_random(25, 0.4, seed=5)
    state = init_witness(g, WitnessConfig(k_trunc=3, seed=5))
    for e in range(g.m):
        assert state.delta[e] == len(residual_common_neighbors(state, e))


def test_zero_row_iff_no_witness_in_set():
    g = gnp_random(15, 0.5, seed=2)
    state = init_witness(g, WitnessConfig(k_trunc=2, seed=2))
    for e in range(g.m):
        common = residual_common_neighbors(state, e)
        for ell in range(state.L):
            has_member = any(state.xmat[w, ell] for w in common)
            assert (state.S[e, ell] == 0) == (not has_member)


# -- enumeration --------------------------------------------------------------


def test_enumerate_k5_finds_all():
    g = complete(5)
    state = init_witness(g, WitnessConfig(k_trunc=3, seed=4))
    e = g.edge_id(1, 2)
    out = enumerate_residual(state, e)
    assert sorted(out.witnesses) == [3, 4, 5]


def test_enumerate_zero_delta_no_fallback():
    star = from_edges(4, [(1, 2), (1, 3), (1, 4)])
    state = init_witness(star, WitnessConfig(k_trunc=1, seed=1))
    out = enumerate_residual(state, 0)
    assert out.witnesses == [] and state.fallback_calls == 0


def test_enumerate_soundness_random():
    g = gnp_random(20, 0.5, seed=8)
    state = init_witness(g, WitnessConfig(k_trunc=4, seed=8))
    for e in range(g.m):
        out = enumerate_residual(state, e)
        assert sorted(out.witnesses) == residual_common_neighbors(state, e)


def test_adversarial_sum_rejected_then_fallback():
    # common neighbors {1, 2} of edge (4, 5); their id sum is 3, a real
    # vertex that is not a common neighbor, so the candidate must fail the
    # residual-edge test and trigger the fallback
    g = from_edges(5, [(1, 4), (1, 5), (2, 4), (2, 5), (4, 5), (3, 4)])
    xmat = np.zeros((6, 1), dtype=bool)
    xmat[1, 0] = xmat[2, 0] = True
    state = init_witness(g, WitnessConfig(k_trunc=2, sets=1), _xmat=xmat)
    e = g.edge_id(4, 5)
    assert state.S[e, 0] == 3
    out = enumerate_residual(state, e)
    assert (state.enumeration_calls, state.fallback_calls) == (1, 1)
    assert sorted(out.witnesses) == [1, 2]
    assert 3 not in out.witnesses


def test_fallback_scan_alone_gives_clamped_labels():
    # with every set empty each row is all zeros, so every enumeration that
    # has residual triangles to find must get them from the fallback scan
    for g in (gnp_random(40, 0.3, seed=3), skewed(150, 900, seed=1)):
        full = truss_decomposition(g).tau
        for k_trunc in (2, 3, 5):
            empty = np.zeros((g.n + 1, 2), dtype=bool)
            state = init_witness(g, WitnessConfig(k_trunc=k_trunc, sets=2), _xmat=empty)
            labels = run_rounds(state)
            assert labels.tau == [min(t, k_trunc) for t in full]
            assert labels.exact == [t < k_trunc for t in full]
            assert state.fallback_calls > 0


def test_enumerate_removed_edge_rejected():
    g = complete(3)
    state = init_witness(g, WitnessConfig(k_trunc=1, seed=1))
    out = enumerate_residual(state, 0)
    remove_edge(state, 0, out)
    with pytest.raises(ValidationError):
        enumerate_residual(state, 0)


# -- removal ------------------------------------------------------------------


def test_remove_in_triangle_zeroes_others():
    g = complete(3)
    state = init_witness(g, WitnessConfig(k_trunc=1, seed=3))
    out = enumerate_residual(state, 0)
    remove_edge(state, 0, out)
    for e in (1, 2):
        assert state.delta[e] == 0
        assert not state.S[e].any()


def test_remove_in_k4_count_drops():
    g = complete(4)
    state = init_witness(g, WitnessConfig(k_trunc=2, seed=3))
    e = g.edge_id(1, 2)
    opposite = g.edge_id(3, 4)
    remove_edge(state, e, enumerate_residual(state, e))
    for f in range(g.m):
        if f == e:
            continue
        assert state.delta[f] == (2 if f == opposite else 1)


def test_double_removal_rejected():
    g = complete(3)
    state = init_witness(g, WitnessConfig(k_trunc=1, seed=1))
    out = enumerate_residual(state, 0)
    remove_edge(state, 0, out)
    with pytest.raises(ValidationError):
        remove_edge(state, 0, out)


def test_incremental_table_matches_scratch():
    for seed in range(20):
        g = gnp_random(20, 0.5, seed=seed)
        state = init_witness(g, WitnessConfig(k_trunc=3, seed=seed))
        order = list(range(g.m))
        random.Random(seed).shuffle(order)
        for step, e in enumerate(order):
            if state.delta[e] < 0:
                continue
            remove_edge(state, e, enumerate_residual(state, e))
            if step % 7 == 0:  # prefix checks, amortized
                ref = scratch_witness_table(state)
                resid = np.flatnonzero(state.delta != REMOVED)
                assert np.array_equal(state.S[resid], ref[resid])
        ref = scratch_witness_table(state)
        resid = np.flatnonzero(state.delta != REMOVED)
        assert np.array_equal(state.S[resid], ref[resid])


# -- truncated decomposition ---------------------------------------------------


def test_k5_truncated_all_lower_bound():
    labels = truncated_decomposition(complete(5), WitnessConfig(k_trunc=2))
    assert labels.tau == [2] * 10
    assert labels.exact == [False] * 10
    assert labels.truncated_at == 2


def test_bowtie_truncated_exact():
    labels = truncated_decomposition(bowtie(), WitnessConfig(k_trunc=3))
    assert labels.tau == [1] * 6
    assert labels.exact == [True] * 6


def test_truncated_matches_clamped_peeler():
    for seed in range(12):
        g = gnp_random(40, 0.3, seed=seed)
        full = truss_decomposition(g).tau
        for k_trunc in (1, 2, 3, 5):
            labels = truncated_decomposition(g, WitnessConfig(k_trunc=k_trunc, seed=seed))
            assert labels.tau == [min(t, k_trunc) for t in full]
            assert labels.exact == [t < k_trunc for t in full]


def test_labels_independent_of_seed_and_mode():
    g = gnp_random(30, 0.4, seed=99)
    base = truncated_decomposition(g, WitnessConfig(k_trunc=3, seed=0))
    for seed in (1, 2, 3):
        for mode in ("direct", "matrix"):
            lab = truncated_decomposition(
                g, WitnessConfig(k_trunc=3, seed=seed, init_mode=mode)
            )
            assert lab.tau == base.tau and lab.exact == base.exact


def test_instrumented_counts_calls():
    g = gnp_random(30, 0.4, seed=13)
    state = init_witness(g, WitnessConfig(k_trunc=3, seed=13))
    labels = run_rounds(state)
    removed = sum(labels.exact)
    zero_tau = sum(1 for t, ex in zip(labels.tau, labels.exact) if ex and t == 0)
    # every non-shortcut removal goes through one enumeration call
    assert state.enumeration_calls == removed - zero_tau
