import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polystress import corpus, exactla


@lru_cache(maxsize=None)
def instance(family, **params):
    """Session-wide cache; instances are immutable."""
    return corpus.generate(family, **params)


@pytest.fixture(scope="session")
def octahedron():
    return instance("cross", d=3)


@pytest.fixture(scope="session")
def full_corpus():
    return corpus.default_corpus()


@pytest.fixture
def no_large_bareiss(monkeypatch):
    """Fail any Bareiss elimination of a matrix at or above the modular cutoff."""
    real = exactla._bareiss_echelon

    def spy(rows):
        cells = len(rows) * len(rows[0]) if rows else 0
        assert cells < exactla._MODULAR_CELLS, f"Bareiss on {len(rows)} x {len(rows[0])}"
        return real(rows)

    monkeypatch.setattr(exactla, "_bareiss_echelon", spy)
