"""Command-line surface: formats, exit codes, determinism, pipelines."""

import argparse
import gc
import importlib
import os
import runpy
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from trusskit import (
    ParseError,
    ResourceLimitError,
    ValidationError,
    WitnessConfig,
    clique_chain,
    critical_truss,
    from_edges,
    init_witness,
    k_truss_components,
    parse_edge_list,
    triangle_counts,
    truncated_decomposition,
    truss_decomposition,
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

from .oracles import (
    adjacency,
    brute_force_triangles,
    edge_rows_text,
    exact,
    serialized_text,
    triangle_rows_text,
    triple_scan_triangles,
)
from .strategies import gnp_random
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
    return edge_rows_text(g, [f"{t}\t{mark[x]}" for t, x in zip(labels.tau, exact(labels))])


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
    assert labels.tau.tolist() == [k_trunc] * g.m and not any(exact(labels))


WRITER_GRAPHS = {
    "non-ascii": lambda: parse_edge_list("é ü\nü 日本\n日本 é\né a\na ü\nz y\n"),
    "k20": lambda: from_edges(20, combinations(range(1, 21), 2)),  # 1,140 triangle rows
    "skewed": lambda: skewed(200, 2500, seed=5),  # 2,500 rows: two full pieces and a part
    "empty": lambda: from_edges(0, []),
}


@pytest.mark.parametrize("name", sorted(WRITER_GRAPHS))
def test_row_writers_match_the_f_string_rows(tmp_path, name):
    # every row output against one f-string per row; components at k = 3
    # and 4 skip the edges below k
    g = WRITER_GRAPHS[name]()
    text = g.serialize()
    assert text == serialized_text(g)
    g = parse_edge_list(text)  # the graph the commands read, with its edge ids
    tau = truss_decomposition(g).tau
    want = {
        ("truss",): edge_rows_text(g, tau),
        ("triangles",): triangle_rows_text(g),
        ("triangles", "--counts"): edge_rows_text(g, brute_force_triangles(g).per_edge),
    }
    for k in (2, 3):
        labels = truss_decomposition(g, k_trunc=k)
        want["truncated-truss", "--k-trunc", str(k)] = truncated_rows(g, labels)
    for k in (3, 4):
        comp_of = [None] * g.m
        for cid, edges in enumerate(k_truss_components(g, k, truss_decomposition(g))):
            for e in edges:
                comp_of[e] = cid
        want["components", "--k", str(k)] = edge_rows_text(g, comp_of)
    for args, rows in want.items():
        assert run_cli(list(args), tmp_path, text) == (EXIT_OK, rows), args


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
    assert build_parser().parse_args(["bench"]).seed == DEFAULT_SEED
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


def usage_cases():
    """argv that argparse answers itself, at every level of the tree: help,
    missing and unknown arguments, bad values and choices, abbreviations,
    and an unknown subcommand, plus argv that parse."""
    paths = [[]] + [path.split() for path in CLI_OPTIONS if path]
    cases = [
        path + tail
        for path in paths
        for tail in (["-h"], [], ["--nope"], ["bogus"], ["--k"], ["--k", "x"], ["--he"])
    ]
    return cases + [
        ["-i"], ["--inp", "x", "truss"], ["-i", "truss", "stats"], ["stats", "-i", "x"],
        ["truss", "--hist"], ["truncated-truss", "--k", "4"], ["bench", "--se", "2"],
        ["verify", "truss", "--k", "3", "--format", "xml"], ["verify", "bounds", "--form", "json"],
        ["generate", "suspend", "--k", "2", "--added", "3"], ["tru"], ["-vv", "Truss"],
        ["truss", "--histogram", "extra"], ["-v", "-o", "x", "truss", "--histogram"],
        ["generate", "critical", "--k", "4", "--n", "30"], ["verify", "critical", "--k", "3"],
        ["bench", "--k-trunc", "2"], ["components", "--k=3"], ["truncated-truss", "--k-trunc", "2"],
    ]


def parse_outcome(parser, argv, capsys):
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    return outcome, capsys.readouterr()


def test_path_only_parser_answers_as_the_whole_tree(capsys):
    # main builds only the parsers that argv passes through; what argparse
    # prints and the exit code are those of the whole tree, at every level
    cases = usage_cases()
    assert len(cases) == 145
    for argv in cases:
        want = parse_outcome(build_parser(), argv, capsys)
        assert parse_outcome(build_parser(eager=False), argv, capsys) == want, argv


@pytest.mark.parametrize(
    "argv, built",
    [(["truss"], 2), (["generate", "critical", "--k", "4", "--n", "8"], 3), (["-h"], 1),
     (["verify", "nope"], 2)],
)
def test_path_only_parser_builds_what_argv_reaches(monkeypatch, capsys, argv, built):
    from trusskit import cli

    made = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: made.append(init(self, *a, **k)))
    try:
        cli.build_parser(eager=False).parse_args(argv)
    except SystemExit:
        pass
    assert len(made) == built
    made.clear()
    cli.build_parser()
    assert len(made) == len(CLI_OPTIONS)


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
    # the library's cap reads the same environment
    g = parse_edge_list(k5_text())
    with pytest.raises(ResourceLimitError, match="64-byte cap"):
        truncated_decomposition(g, WitnessConfig(k_trunc=2))


def test_mem_cap_covers_more_than_the_table(monkeypatch):
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
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(cap))
    with pytest.raises(ResourceLimitError, match=f"{cap}-byte cap"):
        truncated_decomposition(g, WitnessConfig(k_trunc=3))


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


def test_suspend_runs_under_the_cap_that_refuses_the_listing(tmp_path, monkeypatch, capsys):
    # suspend reads the counts alone: K_30 suspends to K_31 one byte under
    # the listing estimate that stops `truss`
    k30 = from_edges(30, combinations(range(1, 31), 2))
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(triangle_counts(k30).mem_estimate - 1))
    code, out = run_cli(["truss"], tmp_path, k30.serialize())
    assert code == EXIT_RESOURCE and out == ""
    args = ["generate", "suspend", "--k", "28", "--added", "1"]
    code, out = run_cli(args, tmp_path, k30.serialize())
    assert code == EXIT_OK
    assert out == from_edges(31, combinations(range(1, 32), 2)).serialize()
    assert len(out.splitlines()) == 465 and "actual_m\t465" in capsys.readouterr().err


def test_malformed_mem_cap_is_a_validation_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", "4G")
    code, out = run_cli(["truss"], tmp_path, k5_text())
    assert code == EXIT_VALIDATION and out == ""
    err = capsys.readouterr().err
    assert err == "trusskit: invalid input: TRUSSKIT_MEM_CAP='4G' is not a byte count\n"
    assert sorted(os.listdir(tmp_path)) == ["in.txt"]  # no output, no temp file
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", "-1")
    with pytest.raises(ValidationError, match="TRUSSKIT_MEM_CAP='-1'"):
        triangle_counts(parse_edge_list(k5_text()))


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


# one command per exit code, 0 to 7: (argv, input file bytes, environment)
EXIT_CASES = [
    (["-i", "in.txt", "truss"], k5_text().encode(), {}),
    (["-i", "in.txt", "verify", "truss", "--k", "9"], k5_text().encode(), {}),
    (["-i", "in.txt", "truss", "--nope"], k5_text().encode(), {}),
    (["-i", "in.txt", "stats"], b"\xff a\n", {}),
    (["-i", "in.txt", "truss"], b"1 1\n", {}),
    (["generate", "torus-critical", "--i", "0", "--t", "4", "--k", "3"], b"", {}),
    (["-i", "in.txt", "truss"], k5_text().encode(), {"TRUSSKIT_MEM_CAP": "1000"}),
    (["-i", "missing.txt", "truss"], b"", {}),
]


@pytest.mark.parametrize("case", range(len(EXIT_CASES)))
def test_module_entry_matches_main(tmp_path, monkeypatch, capsysbinary, case):
    # the process entry adds a heap freeze after main and nothing else:
    # the same bytes on both streams and the same exit code, while main
    # itself leaves the collector as it found it
    args, text, env = EXIT_CASES[case]
    (tmp_path / "in.txt").write_bytes(text)
    args = [str(tmp_path / a) if a.endswith(".txt") else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "trusskit", *args], capture_output=True,
                          env={**os.environ, **env})
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    frozen = gc.get_freeze_count()
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert gc.get_freeze_count() == frozen
    assert proc.returncode == code == case
    assert (proc.stdout, proc.stderr) == tuple(capsysbinary.readouterr())


def test_console_script_calls_what_the_module_entry_calls(monkeypatch):
    # pyproject's [project.scripts] target is the function that
    # ``python -m trusskit`` runs, so the two entries cannot drift apart
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["trusskit"]
    module, _, name = target.partition(":")
    called = []
    monkeypatch.setattr(importlib.import_module(module), name, lambda: called.append(name) or 0)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("trusskit", run_name="__main__")
    assert (target, called, exc.value.code) == ("trusskit.cli:entry", ["entry"], 0)


# runs ``python -m trusskit`` with the arguments after -c, then names the
# package modules it loaded on stderr, and ``fractions`` (with ``decimal``
# behind it) if only the degeneracy report loaded it
LOADED_AFTER_RUN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('trusskit', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    extra = ('fractions', 'numpy.ma')\n"
    "    loaded = (m for m in sys.modules if m.startswith('trusskit.') or m in extra)\n"
    "    print(*sorted(loaded), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "args, loaded",
    [
        (["truss"], "trusskit.cli trusskit.graphs trusskit.peel trusskit.triangles"),
        (["verify", "critical", "--k", "3"],
         "trusskit.checks trusskit.cli trusskit.graphs trusskit.peel trusskit.triangles"),
        (["stats"], "fractions trusskit.cli trusskit.graphs trusskit.peel trusskit.triangles"),
    ],
    ids=["truss", "verify-critical", "stats"],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, args, loaded):
    # neither the witness engine nor the generators, truss no checks, and
    # only stats the exact fractions
    want = run_cli(args, tmp_path, k5_text())
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "-i", str(tmp_path / "in.txt"), *args],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == want
    assert proc.stderr.splitlines()[-1] == loaded


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "critical", "--k", "4", "--n", "400"],
        ["truss"],
        ["truncated-truss", "--k-trunc", "4"],
        ["verify", "critical", "--k", "4"],
    ],
    ids=["generate-critical", "truss", "truncated-truss", "verify-critical"],
)
def test_workload_commands_never_load_numpy_ma(tmp_path, args):
    # np.unique without a return_* argument imports numpy.ma on first use,
    # which costs a cold process several milliseconds
    (tmp_path / "in.txt").write_text(critical_truss(4, 400).serialize())
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_RUN, "-i", str(tmp_path / "in.txt"), *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "numpy.ma" not in proc.stderr.splitlines()[-1].split()


# every name the package exported when its __init__ imported each module
EXPORTS = {
    "graphs": "Graph GraphError ParseError ValidationError from_edges parse_edge_list",
    "triangles": "TriangleCounts triangle_counts ResourceLimitError",
    "peel": "DegeneracyReport TrussLabels degeneracy k_truss_components truss_decomposition",
    "witness": "WitnessConfig WitnessState EnumerationOutcome ResourceLimitError "
               "enumerate_residual init_witness remove_edge truncated_decomposition",
    "generators": "ConstructionReceipt FaceEmbedding InfeasibleError clique_chain "
                  "clique_chain_remainder critical_2truss critical_truss suspend "
                  "suspension_ladder torus_embedding truss_from_embedding",
    "checks": "BoundReport bound_report is_critical_k_truss is_k_truss",
}


def test_package_names_resolve_on_first_access():
    import importlib

    import trusskit

    for module, names in EXPORTS.items():
        home = importlib.import_module(f"trusskit.{module}")
        for name in names.split():
            scope = {}
            exec(f"from trusskit import {name}", scope)
            assert scope[name] is getattr(home, name), name
    assert trusskit.__version__ == "0.1.0"
    with pytest.raises(ImportError):
        exec("from trusskit import no_such_name", {})


def test_shell_pipeline_composes():
    cmd = (
        f"{sys.executable} -m trusskit generate critical --k 3 --n 24 2>/dev/null"
        f" | {sys.executable} -m trusskit verify critical --k 3"
    )
    proc = subprocess.run(["bash", "-c", cmd], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
