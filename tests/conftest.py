import pytest
from hypothesis import settings

from trusskit.peel import instrumented_truss_decomposition

from .strategies import gnp_random

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

CORPUS_SETTINGS = [(n, p) for n in (20, 40, 60) for p in (0.1, 0.3, 0.6)]
CORPUS_SEEDS = 100


def corpus_seed(n: int, p: float, i: int) -> int:
    return 1_000_000 * n + 10_000 * int(p * 10) + i


@pytest.fixture(scope="session")
def corpus():
    """100 seeded G(n, p) graphs per (n, p) setting; deterministic."""
    graphs = []
    for n, p in CORPUS_SETTINGS:
        for i in range(CORPUS_SEEDS):
            graphs.append(((n, p, i), gnp_random(n, p, seed=corpus_seed(n, p, i))))
    return graphs


class PeelCache:
    """Memoized full decompositions keyed by corpus index."""

    def __init__(self):
        self.results = {}

    def get(self, key, G):
        if key not in self.results:
            self.results[key] = instrumented_truss_decomposition(G)
        return self.results[key]


@pytest.fixture(scope="session")
def peel_cache():
    return PeelCache()
