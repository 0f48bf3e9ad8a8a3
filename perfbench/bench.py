"""Workloads, checks and metrics of the trusskit benchmark; see run.py."""

import contextlib
import io
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from launch import Launcher, Sample
from oracle import CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
RESULTS = BENCH / "results"

MIB = 2**20
MIN_ROUNDS = 3
# Times are reported in units of the reference task's wall time around
# them, times REF_S: seconds on a host where reference.py takes REF_S. The
# host's speed drifted by 2.4x between runs an hour apart and by tens of
# percent within one, and the reference task slows with it; see README.md.
REF_S = 0.5

# -- workload sizes ------------------------------------------------------------
TRUSS_N, TRUSS_M = 6000, 80000
TRUNC_N, TRUNC_M, TRUNC_K = 2500, 25000, 4
GEN_K, GEN_N, GEN_STEPS = 4, 3200, 4  # n = GEN_N + GEN_K * (0 .. GEN_STEPS-1)
# one size for every seed: the check's time grows steeply with m (inputs of
# 744 and 764 edges differed by 11-15%), more than the run-to-run noise
VERIFY_K, VERIFY_C = 4, 150

SETUP_CODE = (
    "import sys\n"
    "import trusskit.cli\n"
    "if len(sys.argv) > 1:\n"
    "    with open(sys.argv[1], 'rb') as fh:\n"
    "        trusskit.graphs.parse_edge_list(fh.read())\n"
)
IMPORT_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import trusskit.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "trusskit", *args]


def write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# -- workloads -----------------------------------------------------------------


@dataclass
class Prepared:
    args: list[str]  # trusskit arguments, input included
    input_path: Path | None  # parsed by the set-up process
    edges: np.ndarray | None  # the graph the command works on, when known up front
    check: Callable[[bytes], None]  # stdout of a successful call -> raises CheckFailed


def _cached_graph(name: str, seed: int, make: Callable[[], np.ndarray]) -> tuple[Path, np.ndarray]:
    path = INPUTS / f"{name}-s{seed}.txt"
    if not path.exists():
        write_atomic(path, inputs.edge_list_text(make()))
    return path, oracle.parse_edges(path.read_bytes())


def _cached_tau(path: Path, edges: np.ndarray, k_stop: int | None) -> np.ndarray:
    ref = path.with_suffix(".tau.npy")
    if ref.exists():
        return np.load(ref)
    tau = oracle.level_peel(edges, k_stop)
    buf = io.BytesIO()
    np.save(buf, tau)
    write_atomic(ref, buf.getvalue())
    return tau


def prepare_truss(seed: int) -> Prepared:
    path, edges = _cached_graph(
        "truss-skewed", seed, lambda: inputs.skewed_edges(TRUSS_N, TRUSS_M, seed)
    )
    tau = _cached_tau(path, edges, None)

    def check(out):
        oracle.check_truss(edges, tau, out)

    return Prepared(["-i", str(path), "truss"], path, edges, check)


def prepare_truncated(seed: int) -> Prepared:
    path, edges = _cached_graph(
        "truncated-skewed", seed, lambda: inputs.skewed_edges(TRUNC_N, TRUNC_M, seed)
    )
    tau = _cached_tau(path, edges, TRUNC_K)

    def check(out):
        oracle.check_truncated(edges, tau, TRUNC_K, out)

    args = ["-i", str(path), "truncated-truss", "--k-trunc", str(TRUNC_K)]
    return Prepared(args, path, edges, check)


def prepare_generate(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    n = GEN_N + GEN_K * int(rng.integers(0, GEN_STEPS))

    def check(out):
        oracle.check_critical_output(GEN_K, n, out)

    args = ["generate", "critical", "--k", str(GEN_K), "--n", str(n)]
    return Prepared(args, None, None, check)


def prepare_verify(seed: int) -> Prepared:
    path, edges = _cached_graph(
        "verify-critical", seed, lambda: inputs.cycle_join(VERIFY_C, VERIFY_K, seed)
    )

    def check(out):
        oracle.check_verify_critical(edges, VERIFY_K, out)

    args = ["-i", str(path), "verify", "critical", "--k", str(VERIFY_K)]
    return Prepared(args, path, edges, check)


WORKLOADS = {
    "truss-skewed": prepare_truss,
    "truncated-skewed": prepare_truncated,
    "generate-critical": prepare_generate,
    "verify-critical": prepare_verify,
}


# -- checking a run's outputs ------------------------------------------------------


class OutputLog:
    """Every output of a run must be byte-identical to the first, and the
    first must pass the workload's independent check."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.first: bytes | None = None
        self.errors: list[str] = []

    def add(self, out: bytes) -> None:
        if self.first is None:
            self.first = out
            try:
                self.prep.check(out)
            except CheckFailed as exc:
                self.errors.append(f"independent check: {exc}")
        elif out != self.first:
            self.errors.append("output differs from the run's first output")


def median(values):
    return statistics.median(values) if values else 0.0


# -- untraced run: one CLI process per round -----------------------------------------


def run_untraced(prep: Prepared, seconds: float, launcher: Launcher) -> dict:
    out_path = RESULTS / "cli.out"
    err_path = RESULTS / "cli.err"
    setup = [sys.executable, "-c", SETUP_CODE]
    if prep.input_path is not None:
        setup.append(str(prep.input_path))
    reference = [sys.executable, str(BENCH / "reference.py")]
    log = OutputLog(prep)

    def invoke() -> Sample:
        sample = launcher.run(cli_argv(prep.args), str(out_path), str(err_path))
        if sample.rc == 0:
            log.add(out_path.read_bytes())
        return sample

    warm = invoke()  # bytecode compilation and page cache; not measured
    launcher.run(setup)
    refs = [launcher.run(reference).wall_s]
    runs, setups, failed = [], [], 0
    t_end = time.perf_counter() + seconds
    while len(runs) < MIN_ROUNDS or time.perf_counter() < t_end:
        s = invoke()
        u = launcher.run(setup)
        r = launcher.run(reference)
        runs.append(s)
        setups.append(u.wall_s)
        refs.append(r.wall_s)
        failed += int(s.rc != 0 or u.rc != 0 or r.rc != 0)  # a round fails if any process does
    # each round's processes ran between two reference runs
    scale = [REF_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    print(
        f"warm-up {warm.wall_s:.3f}s; walls "
        + " ".join(f"{s.wall_s:.3f}" for s in runs)
        + "; setups " + " ".join(f"{w:.3f}" for w in setups)
        + "; references " + " ".join(f"{w:.3f}" for w in refs)
        + f"; median wall {median([s.wall_s for s in runs]):.3f}s",
        file=sys.stderr,
    )
    if failed:
        print(f"{failed} failed rounds; last stderr: {err_path.read_bytes()[-300:]!r}", file=sys.stderr)
    ok = [(s, f) for s, f in zip(runs, scale) if s.rc == 0]
    return {
        "correct": not log.errors,
        "errors": log.errors,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "wall_norm_s": (median([s.wall_s * f for s, f in ok]), "s"),
            "peak_rss_mib": (median([s.rss_mib for s, _ in ok]), "MiB"),
            "setup_s": (median([u * f for u, f in zip(setups, scale)]), "s"),
        },
    }


# -- traced run: in-process, spans around each layer --------------------------------


def _traced_peak(fn, *args) -> tuple[float, float]:
    """(peak, still held after the call) in MiB of Python and numpy
    allocations made by fn(*args)."""
    tracemalloc.start()
    try:
        kept = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return peak / MIB, current / MIB


def _span_metrics(tr, wall: float) -> dict:
    """One traced invocation's layer times and counters; a layer that did
    not run reads 0."""
    inc, under = tr.inclusive, tr.under
    stats = state = None
    if "peel.instrumented_truss_decomposition" in tr.first:
        stats = tr.first["peel.instrumented_truss_decomposition"][1][1]
    if "witness.init_witness" in tr.first:
        state = tr.first["witness.init_witness"][1]
    decompose = inc["peel.instrumented_truss_decomposition"]
    gen = inc["generators.critical_truss"]
    trunc = inc["witness.truncated_decomposition"]
    return {
        "traced_main": wall,
        "graphs.parse_s": inc["graphs.parse_edge_list"],
        "triangles.counts_s": inc["triangles.triangle_counts"],
        "peel.decompose_s": decompose,
        "peel.self_s": decompose
        - under[("peel.instrumented_truss_decomposition", "triangles.triangle_counts")],
        "peel.rounds": getattr(stats, "rounds", 0),
        "peel.scan_steps": getattr(stats, "scan_steps", 0),
        "peel.removal_steps": getattr(stats, "removal_steps", 0),
        "peel.stack_pushes": getattr(stats, "stack_pushes", 0),
        "witness.init_s": inc["witness.init_witness"],
        "witness.rounds_s": trunc
        - under[("witness.truncated_decomposition", "witness.init_witness")],
        "witness.sets": getattr(state, "L", 0),
        "witness.table_mib": getattr(getattr(state, "S", None), "nbytes", 0) / MIB,
        "witness.enumeration_calls": getattr(state, "enumeration_calls", 0),
        "witness.fallback_calls": getattr(state, "fallback_calls", 0),
        "generators.critical_s": gen,
        "generators.build_s": gen - under[("generators.critical_truss", "checks.is_k_truss")],
        "checks.is_k_truss_s": inc["checks.is_k_truss"],
        "checks.critical_s": inc["checks.is_critical_k_truss"],
        "peel.fixed_point_s": inc["peel.peel_to_fixed_point"],
        "cli.self_s": tr.module_self["cli"],
    }


PER_LAYER_UNITS = {
    "graphs.parse_s": "s", "graphs.parse_peak_mib": "MiB", "graphs.retained_mib": "MiB",
    "triangles.counts_s": "s", "triangles.total": "count", "triangles.m_dbar": "count",
    "peel.decompose_s": "s", "peel.self_s": "s", "peel.rounds": "count",
    "peel.scan_steps": "count", "peel.removal_steps": "count", "peel.stack_pushes": "count",
    "peel.scan_ratio": "ratio", "peel.removal_ratio": "ratio", "peel.fixed_point_s": "s",
    "witness.init_s": "s", "witness.init_peak_mib": "MiB", "witness.table_mib": "MiB",
    "witness.mem_estimate_mib": "MiB", "witness.init_flops": "flop",
    "witness.rounds_s": "s", "witness.sets": "count", "witness.enumeration_calls": "count",
    "witness.fallback_calls": "count", "witness.fallback_rate": "ratio",
    "generators.critical_s": "s", "generators.build_s": "s",
    "checks.is_k_truss_s": "s", "checks.is_k_truss_peak_mib": "MiB", "checks.critical_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.import_s": "s",
    "package.src_lines": "lines", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
}


def import_trusskit():
    sys.path.insert(0, str(SRC))
    import trusskit.cli

    where = Path(trusskit.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"imported trusskit from {where}, not from {SRC}")
    return trusskit.cli


def run_traced(prep: Prepared, seconds: float, launcher: Launcher) -> dict:
    from layers import Tracer

    cli = import_trusskit()
    out_path = RESULTS / "inproc.out"
    argv = ["-o", str(out_path), *prep.args]
    log = OutputLog(prep)

    def invoke() -> tuple[float, int]:
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        if rc == 0:
            log.add(out_path.read_bytes())
        return wall, rc

    tracer = Tracer()
    invoke()  # warm-up, not measured
    plain, traced, reps, failed = [], [], [], 0
    t_end = time.perf_counter() + seconds
    while len(plain) < MIN_ROUNDS or time.perf_counter() < t_end:
        wall, rc = invoke()
        plain.append(wall)
        failed += int(rc != 0)
        tracer.reset()
        tracer.install()
        try:
            wall, rc = invoke()
        finally:
            tracer.uninstall()
        traced.append(wall)
        failed += int(rc != 0)
        reps.append(_span_metrics(tracer, wall))

    metrics = {name: median([r[name] for r in reps]) for name in reps[0]}
    metrics["cli.main_s"] = median(plain)
    metrics["trace.overhead_s"] = metrics.pop("traced_main") - metrics["cli.main_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / metrics["cli.main_s"]

    # graph sizes and work bases, from the benchmark's own view of the graph
    edges = prep.edges
    if edges is None and log.first is not None:
        edges = oracle.parse_edges(log.first)
    n = int(np.unique(edges).size) if edges is not None else 0
    m = int(edges.shape[0]) if edges is not None else 0
    m_dbar = oracle.min_degree_sum(edges) if m else 0
    metrics["triangles.total"] = oracle.triangle_total(edges) if m else 0
    metrics["triangles.m_dbar"] = m_dbar
    metrics["peel.scan_ratio"] = metrics["peel.scan_steps"] / m_dbar if m_dbar else 0.0
    metrics["peel.removal_ratio"] = metrics["peel.removal_steps"] / m_dbar if m_dbar else 0.0
    L = metrics["witness.sets"]
    metrics["witness.mem_estimate_mib"] = (m * L * 8 + (n + 1) * L) / MIB
    metrics["witness.init_flops"] = 2 * m * (n + 1) * L  # computed, not counted
    calls = metrics["witness.enumeration_calls"]
    metrics["witness.fallback_rate"] = metrics["witness.fallback_calls"] / calls if calls else 0.0

    # memory pass: replay the captured calls under tracemalloc, untraced otherwise
    first = tracer.first
    peaks = {"graphs.parse_peak_mib": 0.0, "graphs.retained_mib": 0.0,
             "witness.init_peak_mib": 0.0, "checks.is_k_truss_peak_mib": 0.0}
    mods = tracer.modules
    if "graphs.parse_edge_list" in first:
        peak, kept = _traced_peak(mods["graphs"].parse_edge_list, *first["graphs.parse_edge_list"][0])
        peaks["graphs.parse_peak_mib"], peaks["graphs.retained_mib"] = peak, kept
    if "witness.init_witness" in first:
        peaks["witness.init_peak_mib"] = _traced_peak(
            mods["witness"].init_witness, *first["witness.init_witness"][0])[0]
    if "checks.is_k_truss" in first:
        peaks["checks.is_k_truss_peak_mib"] = _traced_peak(
            mods["checks"].is_k_truss, *first["checks.is_k_truss"][0])[0]
    metrics.update(peaks)

    imports = []
    for _ in range(3):
        launcher.run([sys.executable, "-c", IMPORT_CODE], str(RESULTS / "import.out"))
        imports.append(float((RESULTS / "import.out").read_text()))
    metrics["cli.import_s"] = median(imports)
    metrics["package.src_lines"] = sum(
        len(p.read_bytes().splitlines()) for p in sorted((SRC / "trusskit").rglob("*.py"))
    )

    errors = list(log.errors)
    # the paper's O(m * avg degeneracy) bound on the removal half of the
    # peel: each removed edge scans its smaller-degree endpoint's adjacency
    # once, so removal_steps can never pass m_dbar
    if metrics["peel.removal_steps"] > m_dbar:
        errors.append(
            f"peel.removal_steps {metrics['peel.removal_steps']} > m*avg-degeneracy {m_dbar}"
        )
    print(
        "untraced main " + " ".join(f"{w:.3f}" for w in plain)
        + "; traced " + " ".join(f"{w:.3f}" for w in traced),
        file=sys.stderr,
    )
    return {
        "correct": not errors,
        "errors": errors,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, launcher: Launcher) -> dict:
    """Prepare the workload's input and measure it; returns correct,
    errors, attempted, failed and metrics as {name: (value, unit)}."""
    INPUTS.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    prep = WORKLOADS[workload](seed)
    return (run_traced if trace else run_untraced)(prep, seconds, launcher)
