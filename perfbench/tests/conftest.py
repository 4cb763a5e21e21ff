import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    """The benchmark reads fixtures and writes its files relative to the checkout root."""
    monkeypatch.chdir(ROOT)
