"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The shared corpus is
100 seeded G(n, p) graphs per setting, n in {20, 40, 60} and p in
{0.1, 0.3, 0.6}.
"""

import random
import sys
import time
from itertools import combinations

import numpy as np

from trusskit import (
    WitnessConfig,
    bound_report,
    clique_chain,
    critical_2truss,
    critical_truss,
    enumerate_residual,
    from_edges,
    init_witness,
    is_critical_k_truss,
    is_k_truss,
    remove_edge,
    truncated_decomposition,
)
from trusskit.peel import REMOVED, _truncation_cap
from trusskit.triangles import triangle_counts, triangle_vertices
from trusskit.witness import run_rounds

from .oracles import (
    brute_force_triangles,
    edge_index,
    exact,
    failures,
    min_degree_sum,
    oracle_truss_decomposition,
    scratch_witness_table,
)
from .strategies import gnp_random


def report(name, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({extra})" if extra else "")
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_exact_oracle_equivalence(corpus, peel_cache):
    t0 = time.perf_counter()
    mismatches = 0
    for key, g in corpus:
        labels, _ = peel_cache.get(key, g)
        oracle = oracle_truss_decomposition(g)
        if labels.tau.tolist() != oracle.tau:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1: peeler equals naive oracle on 900 random graphs",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_truncated_equivalence(corpus, peel_cache):
    mismatches = 0
    seed_dependent = 0
    skipped = 0
    runs = 0
    for key, g in corpus:
        full = peel_cache.get(key, g)[0].tau.tolist()
        for k_trunc in (1, 2, 3, 5):
            if k_trunc > _truncation_cap(g.m):
                skipped += 1  # config invalid for very sparse draws
                continue
            want_tau = [min(t, k_trunc) for t in full]
            want_exact = [t < k_trunc for t in full]
            first = None
            for seed in range(10):
                labels = truncated_decomposition(
                    g, WitnessConfig(k_trunc=k_trunc, seed=seed)
                )
                runs += 1
                if labels.tau.tolist() != want_tau or exact(labels) != want_exact:
                    mismatches += 1
                if first is None:
                    first = (labels.tau.tolist(), exact(labels))
                elif (labels.tau.tolist(), exact(labels)) != first:
                    seed_dependent += 1
    report(
        "criterion 2: truncated labels equal clamped peeler, seed-independent",
        mismatches == 0 and seed_dependent == 0,
        f"{runs} runs, {mismatches} mismatches, {seed_dependent} seed-dependent, "
        f"{skipped} skipped (k_trunc over cap)",
    )


def _named_graphs():
    out = []
    for n in (3, 4, 5, 6, 8):
        out.append((f"K{n}", from_edges(n, combinations(range(1, n + 1), 2))))
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    out.append(("petersen", from_edges(10, outer + spokes + inner)))
    for n in (3, 4, 5, 8):
        out.append((f"C{n}", from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])))
    for leaves in (3, 5, 8):
        out.append(
            (f"star{leaves}", from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)]))
        )
    return out


def test_criterion_3_triangle_correctness(corpus):
    bad = 0
    graphs = list(corpus) + [((name,), g) for name, g in _named_graphs()]
    for _, g in graphs:
        ref = brute_force_triangles(g)
        fast = triangle_counts(g)
        emitted = [tuple(t) for t in triangle_vertices(g).tolist()]
        total = len(emitted)
        from_stream = [0] * g.m
        eid = edge_index(g)
        for a, b, c in emitted:
            from_stream[eid[a, b]] += 1
            from_stream[eid[b, c]] += 1
            from_stream[eid[a, c]] += 1
        ok = (
            fast.total == ref.total
            and fast.per_edge.tolist() == ref.per_edge
            and total == ref.total
            and from_stream == ref.per_edge
            and len(emitted) == len(set(emitted))
        )
        if not ok:
            bad += 1
    report(
        "criterion 3: triangle enumeration matches all-triples oracle, no duplicates",
        bad == 0,
        f"{len(graphs)} graphs",
    )


def test_criterion_4_clique_chain_equality_case():
    bad = []
    for k in range(1, 7):
        for s in range(1, 9):
            g = clique_chain(k, s)
            if 2 * g.m != (g.n - 1) * (2 + k) or not is_k_truss(g, k):
                bad.append((k, s))
    report(
        "criterion 4: clique chains attain m = (n-1)(1 + k/2) and are k-trusses",
        not bad,
        f"grid k<=6, s<=8; failures: {bad}",
    )


def test_criterion_5_minimum_critical_2truss():
    bad = []
    for n in range(6, 31):
        g = critical_2truss(n)
        if g.m != 3 * n - 6 or not is_critical_k_truss(g, 2):
            bad.append(n)
    report(
        "criterion 5: two-apex cycle has 3n-6 edges and is a critical 2-truss",
        not bad,
        "n in [6, 30]",
    )


def test_criterion_6_critical_truss_grid():
    bad = []
    torus_cells = 0
    ladder_cells = 0
    for k in (3, 4, 5):
        for n in range(k + 4, 41):
            g, receipt = critical_truss(k, n, return_receipt=True)
            used_torus = any("strategy=torus" in note for note in receipt.notes)
            torus_cells += used_torus
            ladder_cells += not used_torus
            if g.n != n or not is_critical_k_truss(g, k):
                bad.append((k, n))
            if 2 * k * g.m > n * (k * k + 5 * k - 2) + 20 * k**3:
                bad.append((k, n, "edge bound"))
    report(
        "criterion 6: critical constructions pass criticality and the edge bound",
        not bad,
        f"{torus_cells} embedding cells, {ladder_cells} reported fallback cells; "
        f"failures: {bad}",
    )


def test_criterion_7_bound_soundness(corpus, peel_cache):
    violations = []
    for key, g in corpus:
        labels, _ = peel_cache.get(key, g)
        rep = bound_report(g, labels)
        if not rep.passed:
            violations.append((key, [c.name for c in failures(rep)]))
    report(
        "criterion 7: bound report passes on exact labels for every corpus graph",
        not violations,
        f"{len(corpus)} graphs; violations: {violations[:3]}",
    )


def test_criterion_8_witness_consistency():
    bad_sequences = 0
    for seed in range(20):
        g = gnp_random(20, 0.5, seed=1000 + seed)
        state = init_witness(g, WitnessConfig(k_trunc=3, seed=seed))
        order = list(range(g.m))
        random.Random(seed).shuffle(order)
        for e in order:
            if state.delta[e] < 0:
                continue
            remove_edge(state, e, enumerate_residual(state, e))
        ref = scratch_witness_table(state)
        resid = np.flatnonzero(state.delta != REMOVED)
        if not np.array_equal(state.S[resid], ref[resid]):
            bad_sequences += 1
    mode_mismatch = 0
    for seed in range(20):
        g = gnp_random(24, 0.4, seed=2000 + seed)
        d = init_witness(g, WitnessConfig(k_trunc=3, seed=seed))
        m = init_witness(g, WitnessConfig(k_trunc=3, seed=seed, init_mode="matrix"))
        if not (np.array_equal(d.S, m.S) and np.array_equal(d.delta, m.delta)):
            mode_mismatch += 1
    report(
        "criterion 8: incremental witness table equals from-scratch; matrix init equals direct",
        bad_sequences == 0 and mode_mismatch == 0,
        f"20 removal sequences, 20 seeded init comparisons",
    )


def test_criterion_9_performance_properties(corpus, peel_cache):
    over_budget = []
    for key, g in corpus:
        if g.m == 0:
            continue
        _, stats = peel_cache.get(key, g)
        m_dbar = min_degree_sum(g)
        if stats.scan_steps > 2 * (g.m + m_dbar):
            over_budget.append(key)
    calls = 0
    fallbacks = 0
    seed = 0
    while calls < 10_000:
        g = gnp_random(50, 0.4, seed=3000 + seed)
        cfg = WitnessConfig(k_trunc=_truncation_cap(g.m), seed=seed)
        state = init_witness(g, cfg)
        run_rounds(state)
        calls += state.enumeration_calls
        fallbacks += state.fallback_calls
        seed += 1
    rate = fallbacks / calls
    report(
        "criterion 9: scan work within 2(m + m*avg_degeneracy); fallback rate < 1%",
        not over_budget and rate < 0.01,
        f"{len(over_budget)} scan violations; fallback {fallbacks}/{calls} = {rate:.4%}",
    )
