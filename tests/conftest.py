import random

import pytest

import mafkit as mk
from mafkit import fpt


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture
def rooted_pair():
    """The conflicting rooted pair ((a,b),c) vs ((a,c),b); optimum order 2."""
    return mk.parse_instance("((a,b),c);\n((a,c),b);", rooted=True)


@pytest.fixture
def quartets():
    """Conflicting unrooted quartets; optimum order 2 (TBR distance 1)."""
    return mk.parse_instance("((a,b),(c,d));\n((a,c),(b,d));", rooted=False)


@pytest.fixture
def identical_rooted():
    return mk.parse_instance("((a,b),(c,(d,e)));\n((a,b),(c,(d,e)));", rooted=True)


@pytest.fixture
def solved_ks(monkeypatch):
    """The k of every bounded search ``fpt._solve`` runs, in order."""
    ks = []
    solve = fpt._solve

    def counting(instance, k):
        ks.append(k)
        return solve(instance, k)

    monkeypatch.setattr(fpt, "_solve", counting)
    return ks
