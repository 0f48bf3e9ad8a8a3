"""Byte parity of the command line on a fixed corpus.

Sixteen subcommand forms run in-process through ``cli.main`` on inputs
built here from integer arithmetic alone (complete graphs, a skewed
graph from a linear congruential generator and its letter relabelling, a
cycle joined to four hubs, and the outputs of the ``generate``
constructions), and so do the ``generate`` commands themselves. The
sha256 of each case's exit code, stdout and stderr must equal the one in
``parity_digests.txt``, and so must the digest of each input text, so
that a changed input cannot pass for a changed output.

A change that alters output bytes on purpose rewrites the file with
``PYTHONPATH=src python tests/test_parity.py --write`` and names the
changed cases in CHANGES.md.
"""

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest

from trusskit.cli import main

DIGESTS = Path(__file__).with_name("parity_digests.txt")

FORMS = (
    ("stats",),
    ("triangles",),
    ("triangles", "--counts"),
    ("truss",),
    ("truss", "--histogram"),
    ("truncated-truss", "--k-trunc", "4"),
    ("components", "--k", "4"),
    ("components", "--k", "3"),
    ("verify", "truss", "--k", "4"),
    ("verify", "truss", "--k", "4", "--format", "json"),
    ("verify", "critical", "--k", "4"),
    ("verify", "critical", "--k", "5"),
    ("verify", "bounds"),
    ("verify", "bounds", "--format", "json"),
    ("generate", "suspend", "--k", "4", "--added", "1"),
    ("generate", "suspend", "--k", "3", "--added", "2"),
)

# the six constructions, whose outputs are inputs too
CONSTRUCTIONS = {
    "critical-k4-n60": ("critical", "--k", "4", "--n", "60"),
    "critical-k5-n40": ("critical", "--k", "5", "--n", "40"),
    "torus-critical": ("torus-critical", "--i", "4", "--t", "6", "--k", "3"),
    "critical-2truss": ("critical-2truss", "--n", "12"),
    "clique-chain": ("clique-chain", "--k", "3", "--s", "4"),
    "chain-remainder": ("chain-remainder", "--k", "3", "--n", "19"),
}

# every route of ``generate critical`` at small sizes: the two-apex cycle,
# the suspension ladder, strict torus embeddings and the ladder fallback
SWEEP = [("critical", "--k", str(k), "--n", str(n)) for k in (2, 3, 4, 5)
         for n in range(k + 4, 101)]


def _lcg(seed: int):
    """High 32 bits of a 64-bit linear congruential generator's states."""
    x = seed
    while True:
        x = (6364136223846793005 * x + 1442695040888963407) % 2**64
        yield x >> 32


def _text(pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def _complete(n: int) -> str:
    return _text((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def _skewed_pairs(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct pairs whose ends are each 1 + floor(n x y) for two uniform
    draws x and y, so low ids are far more common than high ones."""
    draws, seen, pairs = _lcg(seed), set(), []
    while len(pairs) < m:
        u, v = (1 + (next(draws) * next(draws) * n >> 64) for _ in range(2))
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            pairs.append((u, v))
    return pairs


def _letters(v: int) -> str:
    """v in base 26 with digits a..z, so distinct ids get distinct words."""
    word = ""
    while True:
        v, r = divmod(v, 26)
        word = chr(97 + r) + word
        if not v:
            return word


def _cycle_join(c: int, seed: int) -> str:
    """A c-cycle joined to four hubs that form a 4-cycle, a critical
    4-truss, with its vertices, rows and endpoint orders shuffled."""
    hubs = range(c + 1, c + 5)
    pairs = [(i, i % c + 1) for i in range(1, c + 1)]
    pairs += [(a, b) for a in hubs for b in hubs if a < b and b - a != 2]
    pairs += [(i, h) for i in range(1, c + 1) for h in hubs]
    draws = _lcg(seed)
    name = list(range(1, c + 5))
    for i in range(len(name) - 1, 0, -1):
        j = next(draws) % (i + 1)
        name[i], name[j] = name[j], name[i]
    for i in range(len(pairs) - 1, 0, -1):
        j = next(draws) % (i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    return _text((name[v - 1], name[u - 1]) if next(draws) & 1 else (name[u - 1], name[v - 1])
                 for u, v in pairs)


def run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    for part in (str(code), out, err):
        data = part.encode("utf-8", "surrogatepass")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@cache
def inputs() -> dict[str, str]:
    """Each input's edge-list text, by name."""
    texts = {f"K{n}": _complete(n) for n in range(4, 13)}
    skewed = _skewed_pairs(200, 2000, seed=2024)
    texts["skewed"] = _text(skewed)
    texts["skewed-letters"] = _text((_letters(u), _letters(v)) for u, v in skewed)
    texts["cycle-join"] = _cycle_join(30, seed=7)
    for name, form in CONSTRUCTIONS.items():
        code, out, _ = run(("generate", *form))
        assert code == 0, name
        texts[name] = out
    return texts


def cases(name: str, path: str) -> dict[str, str]:
    """Digest of each form run on input ``name``, read from ``path``."""
    return {f"{name} | {' '.join(form)}": _digest(*run(("-i", path, *form))) for form in FORMS}


def generated() -> dict[str, str]:
    """Digest of each ``generate`` command that reads no input."""
    forms = [*CONSTRUCTIONS.values(), *SWEEP]
    return {f"generate | {' '.join(form)}": _digest(*run(("generate", *form))) for form in forms}


def pinned() -> dict[str, str]:
    lines = DIGESTS.read_text().splitlines()
    return dict(line.rsplit("\t", 1) for line in lines if line)


@pytest.mark.parametrize("name", [*inputs()])
def test_forms_match_digests(name, tmp_path):
    want, text = pinned(), inputs()[name]
    assert want[f"input | {name}"] == hashlib.sha256(text.encode()).hexdigest(), "input changed"
    path = tmp_path / "input.txt"
    path.write_text(text)
    got = cases(name, str(path))
    assert [case for case in got if got[case] != want[case]] == []


def test_generate_matches_digests():
    want, got = pinned(), generated()
    assert [case for case in got if got[case] != want[case]] == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile

    texts = inputs()
    rows = {f"input | {name}": hashlib.sha256(texts[name].encode()).hexdigest() for name in texts}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts.items():
            path = Path(tmp) / "input.txt"
            path.write_text(text)
            rows.update(cases(name, str(path)))
    rows.update(generated())
    DIGESTS.write_text("".join(f"{case}\t{digest}\n" for case, digest in rows.items()))
    print(f"wrote {len(rows)} digests to {DIGESTS}")
