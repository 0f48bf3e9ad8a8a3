"""Tests of the benchmark's own checks: each accepts a right output and
rejects a corrupted one. Run with ``python3 -m pytest perfbench -q`` from
the repository root."""

import io
import sys
from contextlib import redirect_stderr
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracle
from oracle import CheckFailed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def complete(n):
    return np.array(list(combinations(range(1, n + 1), 2)), dtype=np.int64)


def two_apex_cycle(n):
    """Cycle on 1..n-2 plus two apexes joined to every cycle vertex: the
    critical 2-truss with 3n - 6 edges."""
    c = n - 2
    cycle = [(i, i % c + 1) for i in range(1, c + 1)]
    apex = [(a, i) for a in (n - 1, n) for i in range(1, c + 1)]
    return np.array(cycle + apex, dtype=np.int64)


def truss_rows(edges, tau):
    return "".join(f"{u}\t{v}\t{t}\n" for (u, v), t in zip(edges.tolist(), tau.tolist())).encode()


K4_PLUS_PENDANT = np.array([[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4], [4, 5]])


def test_level_peel_small_graphs():
    assert oracle.level_peel(complete(5)).tolist() == [3] * 10
    assert oracle.level_peel(K4_PLUS_PENDANT).tolist() == [2] * 6 + [0]
    cycle = np.array([[i, i % 6 + 1] for i in range(1, 7)])
    assert oracle.level_peel(cycle).tolist() == [0] * 6
    # two K5 sharing a vertex, plus a triangle hanging off it
    k5b = complete(5) + 4
    tri = np.array([[5, 10], [10, 11], [5, 11]])
    g = np.concatenate([complete(5), k5b, tri])
    assert oracle.level_peel(g).tolist() == [3] * 20 + [1] * 3
    assert oracle.level_peel(g, k_stop=2).tolist() == [-1] * 20 + [1] * 3


def test_check_truss_accepts_and_rejects():
    edges = K4_PLUS_PENDANT
    tau = oracle.level_peel(edges)
    good = truss_rows(edges, tau)
    oracle.check_truss(edges, tau, good)
    oracle.check_truss(edges, tau, truss_rows(edges[::-1, ::-1], tau[::-1]))
    lines = good.splitlines(keepends=True)
    corrupt = {
        "wrong tau": truss_rows(edges, tau + (np.arange(7) == 3)),
        "missing row": b"".join(lines[:-1]),
        "duplicate row": b"".join(lines[:-1] + lines[:1]),
        "foreign edge": b"".join(lines[:-1]) + b"1\t5\t0\n",
        "ragged": good + b"9\n",
    }
    for name, out in corrupt.items():
        with pytest.raises(CheckFailed):
            oracle.check_truss(edges, tau, out)
            pytest.fail(name)


def test_check_truncated_accepts_and_rejects():
    g = np.concatenate([complete(5), K4_PLUS_PENDANT + 5])
    tau = oracle.level_peel(g, k_stop=3)
    rows = []
    for (u, v), t in zip(g.tolist(), tau.tolist()):
        rows.append(f"{u}\t{v}\t{t}\texact\n" if t >= 0 else f"{u}\t{v}\t3\tlower_bound\n")
    good = "".join(rows).encode()
    oracle.check_truncated(g, tau, 3, good)
    corrupt = [
        good.replace(b"3\tlower_bound", b"3\texact", 1),
        good.replace(b"3\tlower_bound", b"4\tlower_bound", 1),
        good.replace(b"2\texact", b"3\tlower_bound", 1),
        good.replace(b"\texact", b"\tmaybe", 1),
    ]
    for out in corrupt:
        assert out != good
        with pytest.raises(CheckFailed):
            oracle.check_truncated(g, tau, 3, out)


def edge_text(edges):
    return inputs.edge_list_text(np.asarray(edges))


def test_check_critical_output_accepts_and_rejects():
    g = two_apex_cycle(12)
    oracle.check_critical_output(2, 12, edge_text(g))
    corrupt = {
        "dropped edge": edge_text(g[1:]),
        "duplicate edge": edge_text(np.concatenate([g, g[:1, ::-1]])),
        "missing vertex": edge_text(np.where(g == 12, 13, g)),
        "wrong n": edge_text(g[: -1]),
    }
    for name, out in corrupt.items():
        with pytest.raises(CheckFailed):
            oracle.check_critical_output(2, 12, out)
            pytest.fail(name)
    with pytest.raises(CheckFailed):  # 2-truss, but far over the edge budget
        oracle.check_critical_output(2, 20, edge_text(complete(20)))
    with pytest.raises(CheckFailed):  # a 2-truss is not a 5-truss
        oracle.check_critical_output(5, 12, edge_text(g))


def test_cycle_join_is_a_critical_truss():
    for c, k in ((8, 2), (9, 4), (10, 6)):
        g = inputs.cycle_join(c, k, seed=3)
        assert np.unique(g).tolist() == list(range(1, c + k + 1))
        assert g.shape[0] == c + k * (k - 2) // 2 + c * k
        oracle.check_k_truss(g, k)
        assert oracle.deletion_survivors(g, k) == 0
    g = inputs.cycle_join(9, 4, seed=3)
    assert np.array_equal(g, inputs.cycle_join(9, 4, seed=3))
    assert not np.array_equal(g, inputs.cycle_join(9, 4, seed=4))


def test_check_verify_critical_accepts_and_rejects():
    g = inputs.cycle_join(9, 4, seed=1)
    good = b"is_critical_4_truss  PASS  n=13 m=49\n"
    oracle.check_verify_critical(g, 4, good)
    for out in (good.replace(b"PASS", b"FAIL"), good.replace(b"m=49", b"m=48"), b"", good * 2):
        with pytest.raises(CheckFailed):
            oracle.check_verify_critical(g, 4, out)
    # K5 is a 2-truss, but K5 minus an edge still holds one
    assert oracle.deletion_survivors(complete(5), 2) == 10
    with pytest.raises(CheckFailed):
        oracle.check_verify_critical(complete(5), 2, b"is_critical_2_truss PASS n=5 m=10")


def test_skewed_edges_are_seeded_simple_and_exact():
    a = inputs.skewed_edges(300, 2000, seed=5)
    assert np.array_equal(a, inputs.skewed_edges(300, 2000, seed=5))
    assert not np.array_equal(a, inputs.skewed_edges(300, 2000, seed=6))
    assert a.shape == (2000, 2) and a.min() >= 1 and a.max() <= 300
    assert not np.any(a[:, 0] == a[:, 1])
    assert np.unique(oracle.edge_keys(a, 301)).size == 2000
    deg = np.bincount(a.ravel())
    assert deg.max() > 4 * deg[deg > 0].mean()  # heavy-tailed


def test_tracer_records_layers_and_restores():
    sys.path.insert(0, str(SRC))
    try:
        import trusskit.cli as cli
        import trusskit.peel as peel
        from layers import Tracer
    finally:
        sys.path.remove(str(SRC))
    work = BENCH / "results"
    work.mkdir(exist_ok=True)
    graph = work / "test-graph.txt"
    graph.write_bytes(edge_text(K4_PLUS_PENDANT))
    original = peel.instrumented_truss_decomposition
    tracer = Tracer()
    tracer.install()
    try:
        with redirect_stderr(io.StringIO()):
            rc = cli.main(["-i", str(graph), "-o", str(work / "test-out.txt"), "truss"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert peel.instrumented_truss_decomposition is original
    for name in ("cli.main", "graphs.parse_edge_list", "triangles.triangle_counts",
                 "peel.truss_decomposition", "peel.instrumented_truss_decomposition"):
        assert tracer.calls[name] == 1, name
    under = tracer.under[("peel.instrumented_truss_decomposition", "triangles.triangle_counts")]
    assert 0 < under <= tracer.inclusive["peel.instrumented_truss_decomposition"]
    stats = tracer.first["peel.instrumented_truss_decomposition"][1][1]
    assert stats.removal_steps > 0
    assert sum(tracer.module_self.values()) <= tracer.inclusive["cli.main"] * 1.01


def test_entry_point_lists_every_workload():
    import bench
    import run

    assert run.WORKLOADS == tuple(bench.WORKLOADS)
