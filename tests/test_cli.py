"""Command-line surface: formats, exit codes, determinism, pipelines."""

import argparse
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations

import pytest

from trusskit import (
    ParseError,
    ResourceLimitError,
    ValidationError,
    WitnessConfig,
    clique_chain,
    from_edges,
    gnp_random,
    init_witness,
    parse_edge_list,
    triangle_counts,
    truncated_decomposition,
    witness,
)
from trusskit.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    EXIT_VERIFY_FAILED,
    build_parser,
    main,
)
from trusskit.peel import _truncation_cap
from trusskit.witness import DEFAULT_SEED

from .oracles import adjacency, edge_pairs, triple_scan_triangles
from .test_graphs import PARSE_ERRORS
from .test_witness import skewed


def k5_text():
    pairs = combinations(range(1, 6), 2)
    return "".join(f"{u} {v}\n" for u, v in pairs)


def run_cli(args, tmp_path, stdin_text=None, name="in.txt"):
    """Invoke main() with file-based io; returns (exit_code, stdout_text)."""
    out_file = tmp_path / "out.txt"
    argv = ["-o", str(out_file)]
    if stdin_text is not None:
        in_file = tmp_path / name
        in_file.write_text(stdin_text)
        argv += ["-i", str(in_file)]
    code = main(argv + args)
    return code, out_file.read_text() if out_file.exists() else ""


def test_truss_on_k5(tmp_path):
    code, out = run_cli(["truss"], tmp_path, k5_text())
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 10
    assert all(line.split("\t")[2] == "3" for line in lines)


def test_truss_histogram(tmp_path):
    code, out = run_cli(["truss", "--histogram"], tmp_path, k5_text())
    assert code == EXIT_OK
    assert out == "3\t10\n"


def test_stats(tmp_path):
    code, out = run_cli(["stats"], tmp_path, k5_text())
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert code == EXIT_OK
    assert rows["n"] == "5" and rows["m"] == "10"
    assert rows["degeneracy"] == "4"
    assert rows["average_degeneracy"] == "4/1"
    assert rows["triangles"] == "10"


def test_triangle_list_sorted(tmp_path):
    code, out = run_cli(["triangles"], tmp_path, "2 1\n3 2\n1 3\n")
    assert code == EXIT_OK
    assert out == "2 1 3\n"  # single triangle in label order of internal ids


def test_triangle_rows_sort_as_strings(tmp_path):
    # "b" is a prefix of "b\x01", yet "b\x01 ..." sorts before "b ..."
    labels = ["b", "b\x01", "b0", "a", "ab", "~"]
    text = "".join(f"{u} {v}\n" for u, v in combinations(labels, 2))
    code, out = run_cli(["triangles"], tmp_path, text)
    g = parse_edge_list(text)
    rows = sorted(" ".join(g.labels[v] for v in t) for t in triple_scan_triangles(g))
    assert code == EXIT_OK
    assert out == "".join(row + "\n" for row in rows)


def test_triangle_counts_tsv(tmp_path):
    code, out = run_cli(["triangles", "--counts"], tmp_path, k5_text())
    assert code == EXIT_OK
    assert all(line.endswith("\t3") for line in out.strip().splitlines())


def test_truncated_lower_bound_marker(tmp_path):
    # every edge of the two-clique chain has tau = 2, so at k_trunc = 2
    # the whole output carries the lower-bound marker
    text = clique_chain(2, 2).serialize()
    code, out = run_cli(["truncated-truss", "--k-trunc", "2"], tmp_path, text)
    lines = out.strip().splitlines()
    assert code == EXIT_OK
    assert len(lines) == 12
    assert all(line.split("\t")[2:] == ["2", "lower_bound"] for line in lines)


def test_truncated_exact_marker(tmp_path):
    code, out = run_cli(["truncated-truss", "--k-trunc", "4"], tmp_path, k5_text())
    assert code == EXIT_OK
    assert all(l.split("\t")[2:] == ["3", "exact"] for l in out.strip().splitlines())


TRUNC_GRAPHS = {
    "k5": lambda: parse_edge_list(k5_text()),
    "bowtie": lambda: from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]),
    "clique_chain": lambda: clique_chain(2, 3),
    "skewed": lambda: skewed(400, 3000, seed=4),
    "empty": lambda: from_edges(0, []),
}


def truncated_rows(g, labels):
    """The rows ``truncated-truss`` writes for ``labels``."""
    mark = ("lower_bound", "exact")
    lab, edges = g.labels, edge_pairs(g)
    order = sorted(range(g.m), key=edges.__getitem__)
    return "".join(
        f"{lab[edges[e][0]]}\t{lab[edges[e][1]]}\t{labels.tau[e]}\t{mark[labels.exact[e]]}\n"
        for e in order
    )


@pytest.mark.parametrize("name", sorted(TRUNC_GRAPHS))
def test_truncated_matches_the_witness_engine(tmp_path, capsys, name):
    # the command runs the stopped peel; the witness engine, at two seeds,
    # gives the same rows or refuses k_trunc with the same message
    text = TRUNC_GRAPHS[name]().serialize()
    g = parse_edge_list(text)  # the graph the command reads, with its edge ids
    cap = _truncation_cap(g.m)
    for k_trunc in (-1, 0, 1, 2, 3, 4, 5, cap, cap + 1):
        (tmp_path / "out.txt").unlink(missing_ok=True)
        args = ["truncated-truss", "--k-trunc", str(k_trunc)]
        code, out = run_cli(args, tmp_path, text)
        err = capsys.readouterr().err
        for seed in (DEFAULT_SEED, 7):
            try:
                labels = truncated_decomposition(g, WitnessConfig(k_trunc, seed=seed))
            except ValidationError as exc:
                want = (EXIT_VALIDATION, "", f"trusskit: invalid input: {exc}\n")
            else:
                want = (EXIT_OK, truncated_rows(g, labels), "")
            assert (code, out, err) == want, (k_trunc, seed)


def test_truncated_held_to_the_listing_not_the_table(tmp_path, monkeypatch, capsys):
    # a cap between the listing estimate and witness init's footprint: the
    # command runs, the witness engine is refused
    g = skewed(400, 3000, seed=4)
    k_trunc = 3
    listing = triangle_counts(g).mem_estimate
    L = witness._resolve(g, WitnessConfig(k_trunc))[0]
    table = witness._footprint(g, L, None)
    cap = (listing + table) // 2
    assert listing < cap < table
    code, truss_rows = run_cli(["truss"], tmp_path, g.serialize())
    assert code == EXIT_OK
    want = []
    for row in truss_rows.splitlines():
        u, v, tau = row.split("\t")
        mark = "exact" if int(tau) < k_trunc else "lower_bound"
        want.append(f"{u}\t{v}\t{min(int(tau), k_trunc)}\t{mark}\n")
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(cap))
    code, out = run_cli(["truncated-truss", "--k-trunc", str(k_trunc)], tmp_path, g.serialize())
    assert code == EXIT_OK and out == "".join(want)
    assert capsys.readouterr().err == ""
    with pytest.raises(ResourceLimitError, match=f"{cap}-byte cap"):
        truncated_decomposition(g, WitnessConfig(k_trunc))


def test_dense_truncated_refused_where_the_witness_fits(tmp_path, monkeypatch, capsys):
    # the other side of the trade: on K_120 the listing's ~56 B per
    # triangle (17.5 MB) outgrows the witness footprint at k_trunc 2
    # (12.4 MB), so a cap between the two refuses the command while the
    # library's witness engine still runs
    n, k_trunc = 120, 2
    g = from_edges(n, combinations(range(1, n + 1), 2))
    listing = triangle_counts(g).mem_estimate
    L = witness._resolve(g, WitnessConfig(k_trunc))[0]
    table = witness._footprint(g, L, None)
    cap = (listing + table) // 2
    assert table < cap < listing
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(cap))
    code, out = run_cli(["truncated-truss", "--k-trunc", str(k_trunc)], tmp_path, g.serialize())
    assert code == EXIT_RESOURCE and out == ""
    assert f"{cap}-byte cap" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.txt"]
    labels = truncated_decomposition(g, WitnessConfig(k_trunc))
    assert labels.tau == [k_trunc] * g.m and not any(labels.exact)


def test_components(tmp_path):
    two_triangles = "1 2\n2 3\n3 1\n4 5\n5 6\n6 4\n"
    code, out = run_cli(["components", "--k", "1"], tmp_path, two_triangles)
    assert code == EXIT_OK
    comp_ids = [line.split("\t")[2] for line in out.strip().splitlines()]
    assert comp_ids == ["0", "0", "0", "1", "1", "1"]


def test_generate_then_verify_critical(tmp_path, capsys):
    code, out = run_cli(["generate", "critical-2truss", "--n", "6"], tmp_path)
    assert code == EXIT_OK
    receipt = capsys.readouterr().err
    assert "generator\tcritical_2truss" in receipt
    code2, report = run_cli(["verify", "critical", "--k", "2"], tmp_path, out)
    assert code2 == EXIT_OK
    assert "PASS" in report


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_critical_generated_truss_and_with_chord(tmp_path, fmt):
    code, text = run_cli(["generate", "critical", "--k", "4", "--n", "400"], tmp_path)
    assert code == EXIT_OK
    args = ["verify", "critical", "--k", "4", "--format", fmt]
    code, report = run_cli(args, tmp_path, text)
    assert code == EXIT_OK and "PASS" in report and "FAIL" not in report
    # a chord on enough triangles keeps a 4-truss that is no longer critical
    g = parse_edge_list(text)
    nbrs = adjacency(g)
    u, v = next(
        (u, v) for u, v in combinations(g.vertices, 2)
        if v not in nbrs[u] and len(nbrs[u] & nbrs[v]) >= 4
    )
    code, report = run_cli(args, tmp_path, text + f"{g.labels[u]} {g.labels[v]}\n")
    assert code == EXIT_VERIFY_FAILED and "FAIL" in report and "PASS" not in report


def test_generate_pipeline_all_generators(tmp_path):
    gens = [
        ["generate", "clique-chain", "--k", "2", "--s", "3"],
        ["generate", "chain-remainder", "--k", "2", "--n", "11"],
        ["generate", "critical-2truss", "--n", "8"],
        ["generate", "torus-critical", "--i", "6", "--t", "4", "--k", "3"],
        ["generate", "critical", "--k", "3", "--n", "12"],
    ]
    for argv in gens:
        code, out = run_cli(argv, tmp_path)
        assert code == EXIT_OK and out
        code2, _ = run_cli(["truss"], tmp_path, out, name="gen.txt")
        assert code2 == EXIT_OK


def test_generate_suspend_reads_input(tmp_path):
    base = "1 2\n1 3\n2 3\n"
    code, out = run_cli(
        ["generate", "suspend", "--k", "1", "--added", "1"], tmp_path, base
    )
    assert code == EXIT_OK
    assert len(out.strip().splitlines()) == 6  # K_3 suspends to K_4


def test_verify_bounds_table_and_json(tmp_path):
    code, table = run_cli(["verify", "bounds"], tmp_path, k5_text())
    assert code == EXIT_OK and "PASS" in table
    code, js = run_cli(["verify", "bounds", "--format", "json"], tmp_path, k5_text())
    assert code == EXIT_OK and js.startswith("[")


def test_verify_failure_exit_code(tmp_path):
    path = "1 2\n2 3\n"
    code, out = run_cli(["verify", "truss", "--k", "1"], tmp_path, path)
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_parse_error_exit_code(tmp_path):
    code, _ = run_cli(["truss"], tmp_path, "1 2 3\n")
    assert code == EXIT_PARSE


def test_failed_run_leaves_output_file_untouched(tmp_path):
    bad = "1 2\n2 3 4\n"
    code, _ = run_cli(["truss"], tmp_path, bad)
    assert code == EXIT_PARSE
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]
    previous = b"earlier result\r\n\x00"
    (tmp_path / "out.txt").write_bytes(previous)
    code, _ = run_cli(["truss"], tmp_path, bad)
    assert code == EXIT_PARSE
    assert (tmp_path / "out.txt").read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "out.txt"]
    # a run that completes replaces it
    code, out = run_cli(["truss"], tmp_path, k5_text())
    assert code == EXIT_OK and len(out.splitlines()) == 10


def test_output_to_device_written_in_place(tmp_path):
    in_file = tmp_path / "k5.txt"
    in_file.write_text(k5_text())
    assert main(["-i", str(in_file), "-o", os.devnull, "truss"]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k5.txt"]


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_stderr_and_exit_code(tmp_path, capsysbinary, case):
    text, error, message = PARSE_ERRORS[case]
    code, out = run_cli(["truss"], tmp_path, text)
    if error is ParseError:
        assert code == EXIT_PARSE == 3
        assert capsysbinary.readouterr().err == f"trusskit: parse error: {message}\n".encode()
    else:
        assert code == EXIT_VALIDATION == 4
        assert capsysbinary.readouterr().err == f"trusskit: invalid input: {message}\n".encode()
    assert out == "" and sorted(os.listdir(tmp_path)) == ["in.txt"]


def test_non_utf8_input_is_a_parse_error(tmp_path, capsysbinary):
    # exit 3 with the line of the bad byte, not a traceback with exit 1;
    # the failed -o run leaves no file behind, temporary or not
    (tmp_path / "in.txt").write_bytes(b"a b\nb \xff\n")
    code = main(["-o", str(tmp_path / "out.txt"), "-i", str(tmp_path / "in.txt"), "stats"])
    assert code == EXIT_PARSE == 3
    err = b"trusskit: parse error: line 2: byte 0xff is not UTF-8\n"
    assert capsysbinary.readouterr().err == err
    assert sorted(os.listdir(tmp_path)) == ["in.txt"]
    proc = subprocess.run([sys.executable, "-m", "trusskit", "stats"], input=b"\xff a\n",
                          capture_output=True)
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert proc.stderr == b"trusskit: parse error: line 1: byte 0xff is not UTF-8\n"


def test_self_loop_exit_code(tmp_path):
    code, _ = run_cli(["truss"], tmp_path, "1 1\n")
    assert code == EXIT_VALIDATION


def test_infeasible_exit_code(tmp_path):
    code, _ = run_cli(
        ["generate", "torus-critical", "--i", "0", "--t", "4", "--k", "3"], tmp_path
    )
    assert code == EXIT_INFEASIBLE


def test_byte_identical_reruns(tmp_path):
    text = clique_chain(2, 3).serialize()
    outs = set()
    for _ in range(2):
        _, out = run_cli(["truncated-truss", "--k-trunc", "2"], tmp_path, text)
        outs.add(out)
    assert len(outs) == 1


# every subcommand's options, help left out; "" is the top-level parser
CLI_OPTIONS = {
    "": ["--input", "--output", "--verbose", "-i", "-o", "-v"],
    "stats": [],
    "triangles": ["--counts"],
    "truss": ["--histogram"],
    "truncated-truss": ["--k-trunc"],
    "components": ["--k"],
    "generate": [],
    "generate clique-chain": ["--k", "--s"],
    "generate chain-remainder": ["--k", "--n"],
    "generate critical-2truss": ["--n"],
    "generate suspend": ["--added", "--k"],
    "generate torus-critical": ["--i", "--k", "--t"],
    "generate critical": ["--k", "--n"],
    "verify": [],
    "verify truss": ["--format", "--k"],
    "verify critical": ["--format", "--k"],
    "verify bounds": ["--format"],
    "bench": ["--k-trunc", "--seed"],
}


def option_table(parser, prefix=""):
    """Subcommand path -> its sorted option strings, help left out."""
    actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
    table = {prefix: sorted(s for a in actions for s in a.option_strings)}
    for action in actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                table.update(option_table(sub, f"{prefix} {name}".strip()))
    return table


def test_cli_surface(tmp_path, capsys):
    assert option_table(build_parser()) == CLI_OPTIONS
    # truncated-truss runs the stopped peel only: the witness engine's
    # tuning is a library config, and the seed never changed a byte
    for flag in (["--seed", "7"], ["--sets", "3"], ["--prob", "0.5"],
                 ["--init", "matrix"], ["--b", "0.7"], ["--mem-cap", "100"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(["truncated-truss", "--k-trunc", "2", *flag], tmp_path, k5_text())
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err, flag
        assert sorted(os.listdir(tmp_path)) == ["in.txt"], flag
    # no parser takes an abbreviation: of another subcommand's option, or
    # of its own
    for args in (["truncated-truss", "--k", "4"], ["bench", "--k", "2"], ["truss", "--hist"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(args, tmp_path, k5_text())
        assert exc.value.code == 2, args
        assert sorted(os.listdir(tmp_path)) == ["in.txt"], args


def test_bench_reports_counters(tmp_path):
    code, out = run_cli(["bench"], tmp_path, k5_text())
    rows = dict(
        line.split("\t") for line in out.strip().splitlines() if "\t" in line
    )
    assert code == EXIT_OK
    assert "scan_steps" in rows and "m_times_avg_degeneracy" in rows


def test_bench_triangle_free_single_round(tmp_path):
    star = "".join(f"1 {i}\n" for i in range(2, 8))
    code, out = run_cli(["bench"], tmp_path, star)
    rows = dict(line.split("\t") for line in out.strip().splitlines() if "\t" in line)
    assert code == EXIT_OK
    assert rows["rounds"] == "1"


def test_mem_cap_env_override(tmp_path, monkeypatch):
    from trusskit.cli import EXIT_RESOURCE

    monkeypatch.setenv("TRUSSKIT_MEM_CAP", "64")
    code, _ = run_cli(["truncated-truss", "--k-trunc", "2"], tmp_path, k5_text())
    assert code == EXIT_RESOURCE
    # an explicit cap beats the environment
    g = parse_edge_list(k5_text())
    assert truncated_decomposition(g, WitnessConfig(k_trunc=2, mem_cap_bytes=2**30)).tau
    # the library's default cap reads the same environment
    with pytest.raises(ResourceLimitError, match="64-byte cap"):
        truncated_decomposition(g, WitnessConfig(k_trunc=2))


def test_mem_cap_covers_more_than_the_table():
    g = gnp_random(60, 0.3, seed=5)
    tracemalloc.start()
    try:
        state = init_witness(g, WitnessConfig(k_trunc=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_only = g.m * state.L * 8 + (g.n + 1) * state.L
    cap = (table_only + peak) // 2
    assert table_only < cap < peak
    with pytest.raises(ResourceLimitError, match=f"{cap}-byte cap"):
        truncated_decomposition(g, WitnessConfig(k_trunc=3, mem_cap_bytes=cap))


# commands that read only the triangle counts keep no listing, so K_30
# runs under the cap that refuses the others
COUNT_ONLY = (["stats"], ["triangles", "--counts"], ["verify", "truss", "--k", "1"])


@pytest.mark.parametrize(
    "args, free_exit",
    [
        (["truss"], EXIT_OK),
        (["verify", "critical", "--k", "4"], EXIT_VERIFY_FAILED),
        (["stats"], EXIT_OK),
        (["triangles", "--counts"], EXIT_OK),
        (["verify", "truss", "--k", "1"], EXIT_VERIFY_FAILED),
        (["triangles"], EXIT_OK),
        (["truncated-truss", "--k-trunc", "4"], EXIT_OK),
    ],
)
def test_listing_over_mem_cap_exits_6(tmp_path, monkeypatch, capsys, args, free_exit):
    k30 = from_edges(30, combinations(range(1, 31), 2))
    estimate = triangle_counts(k30).mem_estimate
    cap = estimate - 1
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(cap))
    code, out = run_cli(args, tmp_path, k30.serialize())
    err = capsys.readouterr().err
    if args in COUNT_ONLY:
        assert code == EXIT_OK and out and err == ""
    else:
        assert code == EXIT_RESOURCE and out == ""
        assert f"~{estimate} bytes" in err and f"{cap}-byte cap" in err
        assert sorted(os.listdir(tmp_path)) == ["in.txt"]  # no output, no temp file
    # more wedges than K_30 has triangles, but none closes: under the cap
    k25_25 = from_edges(50, [(a, b) for a in range(1, 26) for b in range(26, 51)])
    code, out = run_cli(args, tmp_path, k25_25.serialize())
    if args == ["triangles"]:
        assert code == free_exit and out == ""  # it has no triangle to list
    else:
        assert code == free_exit and out


def test_matrix_init_over_muladd_ceiling_exits_6():
    # b = 0.9 makes 2,492 of its 2,500 vertices heavy: 314 dense products,
    # 4.9e12 multiply-adds, refused before the random sets are drawn
    g = skewed(2500, 25000, seed=1)
    cfg = WitnessConfig(k_trunc=4, init_mode="matrix", b=0.9)
    with pytest.raises(ResourceLimitError, match="multiply-adds"):
        truncated_decomposition(g, cfg)


def test_triangle_list_peak_within_listing_estimate(tmp_path):
    # the sorted "u v w" rows are held as vertex ids, not as strings
    k80 = from_edges(80, combinations(range(1, 81), 2))
    estimate = triangle_counts(k80).mem_estimate
    tracemalloc.start()
    try:
        code, _ = run_cli(["triangles"], tmp_path, k80.serialize())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= estimate, f"peak {peak} over the listing estimate {estimate}"


def test_module_entry_point(tmp_path):
    in_file = tmp_path / "k5.txt"
    in_file.write_text(k5_text())
    proc = subprocess.run(
        [sys.executable, "-m", "trusskit", "-i", str(in_file), "truss"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 10


def test_shell_pipeline_composes():
    cmd = (
        f"{sys.executable} -m trusskit generate critical --k 3 --n 24 2>/dev/null"
        f" | {sys.executable} -m trusskit verify critical --k 3"
    )
    proc = subprocess.run(["bash", "-c", cmd], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
