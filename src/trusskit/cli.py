"""Command-line front end: stats, triangles, truss, truncated-truss,
components, generate, verify, bench.

Only ``bench --k-trunc`` draws random numbers, the witness engine's sets
from ``--seed``, and they change only its fallback rate; every subcommand
except the wall-clock rows of ``bench`` writes identical bytes for
identical input and flags. Each handler reads the parsed arguments.

A ``trusskit`` process runs one command through ``entry``, which both the
console script and ``python -m trusskit`` call. Once ``main`` has
returned, ``entry`` freezes the heap (``gc.freeze``): the collections
that interpreter shutdown runs then skip numpy's and the command's
objects, and the cyclic garbage among them is left for the OS to drop
with the process, about 15 ms of a ``generate critical`` run. The exit
itself stays CPython's own, which flushes and closes the streams, runs
atexit handlers and maps the exit code. ``main`` never freezes: tests and
in-process callers run it many times in one interpreter, which would
then never collect what each run leaves behind.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

import numpy as np

from . import graphs, peel, triangles
from .graphs import ConstructionError, Graph, InfeasibleError, ParseError, ValidationError
from .triangles import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_INFEASIBLE = 5
EXIT_RESOURCE = 6
EXIT_IO = 7


_INT = {"type": int, "required": True}
_FORMAT = {"choices": ("table", "json"), "default": "table"}

# The command tree. A parser is its options, each space-separated flags
# mapped to add_argument's keywords, and, if it has subcommands, their
# dest and, per name, the help line it is listed with (None: unlisted)
# followed by its own parser.
_COMMANDS = (
    {
        "-i --input": {"help": "edge-list file (default: stdin)"},
        "-o --output": {"help": "output file (default: stdout)"},
        "-v --verbose": {"action": "count", "default": 0},
    },
    "command",
    {
        "stats": ("basic graph statistics", {}),
        "triangles": ("triangle list or per-edge counts",
                      {"--counts": {"action": "store_true", "help": "emit 'u v count' TSV"}}),
        "truss": ("full truss decomposition TSV 'u v tau'",
                  {"--histogram": {"action": "store_true", "help": "emit 'k count' TSV"}}),
        "truncated-truss": ("exact tau below --k-trunc, lower-bound marker at or above it",
                            {"--k-trunc": _INT}),
        "components": ("k-truss component per edge", {"--k": _INT}),
        "generate": ("emit an extremal construction", {}, "generator", {
            "clique-chain": (None, {"--k": _INT, "--s": _INT}),
            "chain-remainder": (None, {"--k": _INT, "--n": _INT}),
            "critical-2truss": (None, {"--n": _INT}),
            "suspend": ("suspend the input graph", {
                "--k": _INT, "--added": {"type": int, "choices": (1, 2), "required": True},
            }),
            "torus-critical": (None, {"--i": _INT, "--t": _INT, "--k": _INT}),
            "critical": (None, {"--k": _INT, "--n": _INT}),
        }),
        "verify": ("check truss properties or bounds", {}, "check", {
            "truss": (None, {"--k": _INT, "--format": _FORMAT}),
            "critical": (None, {"--k": _INT, "--format": _FORMAT}),
            "bounds": (None, {"--format": _FORMAT}),
        }),
        "bench": ("timed decomposition with work counters", {
            "--k-trunc": {"type": int, "default": None,
                          "help": "also run and measure the truncated decomposition"},
            "--seed": {"type": int, "default": 1729},  # witness.DEFAULT_SEED, not loaded here
        }),
    },
)


class _Parser(argparse.ArgumentParser):
    """Takes no abbreviated option. Built from a ``_COMMANDS`` parser: its
    subcommands' parsers are of this class too or, unless ``eager``,
    ``_Deferred`` ones."""

    def __init__(self, tree, eager=True, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        options, *sub = tree
        for flags, keywords in options.items():
            self.add_argument(*flags.split(), **keywords)
        if sub:
            dest, commands = sub
            kind = _Parser if eager else _Deferred
            action = self.add_subparsers(dest=dest, required=True, parser_class=kind)
            for name, (line, *child) in commands.items():
                listed = {} if line is None else {"help": line}
                action.add_parser(name, tree=child, eager=eager, **listed)


class _Deferred:
    """A subcommand's ``_Parser``, built only once argv selects it: an
    argparse subparsers action lists its subcommands by name and help
    line, and asks the selected parser alone to ``parse_known_args``."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        return _Parser(**self.kwargs).parse_known_args(args, namespace)


def build_parser(eager: bool = True) -> argparse.ArgumentParser:
    """The ``trusskit`` parser: the whole tree, or unless ``eager`` only the
    parsers that the parsed argv passes through, with the same help, errors
    and exit codes."""
    return _Parser(
        _COMMANDS,
        eager,
        prog="trusskit",
        description="k-truss decomposition, generators, and verification",
    )


def _read_graph(ns: argparse.Namespace) -> Graph:
    if ns.input:
        with open(ns.input, "rb") as fh:
            data = fh.read()
    else:
        data = sys.stdin.buffer.read()
    return graphs.parse_edge_list(data)


def _write_edge_rows(G: Graph, codes, out, name=str) -> None:
    """Write a "u v value" TSV row per edge e, in ``G.pair_order``, whose
    value is ``name(codes[e])`` (int64 ``codes``), skipping the edges
    whose code is -1. The values are formatted once each, for the codes
    0..max(codes)."""
    lab = [label + "\t" for label in G.labels]
    values = [f"{name(code)}\n" for code in range(codes.max(initial=-1) + 1)]
    rows = [(lab, G.ends[:, 0]), (lab, G.ends[:, 1]), (values, codes)]
    out.writelines(graphs.text_rows(rows, G.pair_order))


# -- subcommands --------------------------------------------------------------


def _cmd_stats(ns, G, out):
    report = peel.degeneracy(G)
    tc = triangles.triangle_counts(G, keep_listing=False)
    avg = report.average_degeneracy
    out.write(f"n\t{G.n}\n")
    out.write(f"m\t{G.m}\n")
    out.write(f"degeneracy\t{report.degeneracy}\n")
    out.write(f"average_degeneracy\t{avg.numerator}/{avg.denominator}\n")
    out.write(f"triangles\t{tc.total}\n")
    return EXIT_OK


def _cmd_triangles(ns, G, out):
    if ns.counts:
        tc = triangles.triangle_counts(G, keep_listing=False)
        _write_edge_rows(G, tc.per_edge, out)
        return EXIT_OK
    tris = triangles.triangle_vertices(G)
    # labels hold no spaces, so the rows "a b c" sort as the tuples
    # (a + " ", b + " ", c): one rank per vertex and column, no row strings
    lab = G.labels
    head, tail = _label_ranks(lab, " "), _label_ranks(lab, "")
    order = np.lexsort((tail[tris[:, 2]], head[tris[:, 1]], head[tris[:, 0]]))
    head, tail = [label + " " for label in lab], [label + "\n" for label in lab]
    rows = [(head, tris[:, 0]), (head, tris[:, 1]), (tail, tris[:, 2])]
    out.writelines(graphs.text_rows(rows, order))
    return EXIT_OK


def _label_ranks(labels, suffix: str) -> np.ndarray:
    """Position of each vertex when the labels, each with ``suffix``
    appended, are sorted as strings."""
    order = sorted(range(len(labels)), key=lambda v: labels[v] + suffix)
    rank = np.empty(len(labels), dtype=np.int32)
    rank[order] = np.arange(len(labels), dtype=np.int32)
    return rank


def _cmd_truss(ns, G, out):
    labels = peel.truss_decomposition(G)
    if ns.histogram:
        for k, cnt in labels.histogram().items():
            out.write(f"{k}\t{cnt}\n")
    else:
        _write_edge_rows(G, labels.tau, out)
    return EXIT_OK


def _cmd_truncated(ns, G, out):
    labels = peel.truss_decomposition(G, k_trunc=ns.k_trunc)
    mark = ("lower_bound", "exact")
    _write_edge_rows(G, labels.tau, out, lambda t: f"{t}\t{mark[t < ns.k_trunc]}")
    return EXIT_OK


def _cmd_components(ns, G, out):
    labels = peel.truss_decomposition(G)
    _write_edge_rows(G, peel.component_ids(G, ns.k, labels), out)
    return EXIT_OK


def _cmd_generate(ns, out):
    from . import generators
    name = ns.generator
    if name == "clique-chain":
        g, receipt = generators.clique_chain(ns.k, ns.s, return_receipt=True)
    elif name == "chain-remainder":
        g, receipt = generators.clique_chain_remainder(ns.k, ns.n, return_receipt=True)
    elif name == "critical-2truss":
        g, receipt = generators.critical_2truss(ns.n, return_receipt=True)
    elif name == "suspend":
        base = _read_graph(ns)
        g, receipt = generators.suspend(base, ns.k, ns.added, return_receipt=True)
    elif name == "torus-critical":
        emb = generators.torus_embedding(ns.i, ns.t)
        g, receipt = generators.truss_from_embedding(emb, ns.k, return_receipt=True)
    else:
        g, receipt = generators.critical_truss(ns.k, ns.n, return_receipt=True)
    out.write(g.serialize())
    for line in receipt.lines():
        print(line, file=sys.stderr)
    return EXIT_OK


def _verify_payload(rows, fmt, out):
    if fmt == "json":
        import json
        out.write(json.dumps(rows, sort_keys=True) + "\n")
    else:
        widths = [max(len(str(r[c])) for r in rows) for c in ("check", "status", "detail")]
        for r in rows:
            out.write(
                f"{r['check']:<{widths[0]}}  {r['status']:<{widths[1]}}  {r['detail']}\n"
            )
    return EXIT_OK if all(r["status"] == "PASS" for r in rows) else EXIT_VERIFY_FAILED


def _cmd_verify(ns, G, out):
    from . import checks
    if ns.check != "bounds":
        critical = ns.check == "critical"
        ok = (checks.is_critical_k_truss if critical else checks.is_k_truss)(G, ns.k)
        rows = [{
            "check": f"is_{'critical_' if critical else ''}{ns.k}_truss",
            "status": "PASS" if ok else "FAIL",
            "detail": f"n={G.n} m={G.m}",
        }]
        return _verify_payload(rows, ns.format, out)
    labels = peel.truss_decomposition(G)
    report = checks.bound_report(G, labels)
    rows = [
        {
            "check": c.name,
            "status": "PASS" if c.passed else "FAIL",
            "detail": c.detail + (f" [{c.witness}]" if c.witness else ""),
            "margin": c.margin,
        }
        for c in report.checks
    ]
    return _verify_payload(rows, ns.format, out)


def _cmd_bench(ns, G, out):
    t0 = time.perf_counter()
    labels, stats = peel.instrumented_truss_decomposition(G)
    dt = time.perf_counter() - t0
    m_dbar = int(np.minimum(*G.degrees[G.ends.T]).sum())
    ratio = stats.scan_steps / m_dbar if m_dbar else 0.0
    out.write("metric\tvalue\n")
    out.write(f"n\t{G.n}\n")
    out.write(f"m\t{G.m}\n")
    out.write(f"peel_seconds\t{dt:.6f}\n")
    out.write(f"rounds\t{stats.rounds}\n")
    out.write(f"stack_pushes\t{stats.stack_pushes}\n")
    out.write(f"scan_steps\t{stats.scan_steps}\n")
    out.write(f"m_times_avg_degeneracy\t{m_dbar}\n")
    out.write(f"scan_ratio\t{ratio:.4f}\n")
    out.write(f"max_tau\t{int(labels.tau.max(initial=0))}\n")
    if ns.k_trunc is not None and G.m:
        from . import witness
        wc = witness.WitnessConfig(ns.k_trunc, seed=ns.seed)
        t0 = time.perf_counter()
        state = witness.init_witness(G, wc)
        witness.run_rounds(state)
        dt = time.perf_counter() - t0
        rate = (
            state.fallback_calls / state.enumeration_calls
            if state.enumeration_calls
            else 0.0
        )
        out.write(f"witness_seconds\t{dt:.6f}\n")
        out.write(f"enumeration_calls\t{state.enumeration_calls}\n")
        out.write(f"fallback_rate\t{rate:.6f}\n")
    return EXIT_OK


def _dispatch(ns: argparse.Namespace, out) -> int:
    if ns.command == "generate":
        return _cmd_generate(ns, out)
    G = _read_graph(ns)
    handler = {
        "stats": _cmd_stats,
        "triangles": _cmd_triangles,
        "truss": _cmd_truss,
        "truncated-truss": _cmd_truncated,
        "components": _cmd_components,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
    }[ns.command]
    return handler(ns, G, out)


def run(ns: argparse.Namespace) -> int:
    """Run one subcommand, writing its result to stdout or ``-o``.

    A regular ``-o`` file is only replaced once the subcommand has
    finished: output streams into a temporary file beside it, which is
    renamed onto the target when a result was written and removed when the
    run raised, so a failed run leaves any previous file untouched.
    Targets that cannot be renamed onto (a pipe, a terminal, /dev/null)
    are written in place.
    """
    path = ns.output
    if not path:
        return _dispatch(ns, sys.stdout)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as out:
            return _dispatch(ns, out)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    out = open(tmp, "x")
    try:
        with out:
            code = _dispatch(ns, out)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return code


def main(argv=None) -> int:
    ns = build_parser(eager=False).parse_args(argv)
    try:
        return run(ns)
    except ParseError as exc:
        print(f"trusskit: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, ConstructionError) as exc:
        print(f"trusskit: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"trusskit: infeasible construction: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ResourceLimitError as exc:
        print(f"trusskit: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"trusskit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> int:
    """Run the command of ``sys.argv`` as a whole process does: ``main``,
    then ``gc.freeze()`` ahead of the interpreter's exit; the exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
