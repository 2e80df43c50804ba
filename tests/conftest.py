import dataclasses
import random

import pytest

from streamfec.construction import StreamParams, validate_and_derive, build_code
from streamfec.gf import Field
from streamfec.matrix import Mat


@pytest.fixture(scope="session")
def ex1():
    """The (W=10, T=9, B=5, N=3) code: k=7, n=12, M=1, delta=2, GF(7^9)."""
    return build_code(validate_and_derive(StreamParams(10, 9, 5, 3)))


@pytest.fixture(scope="session")
def ex2():
    """The (W=11, T=10, B=4, N=2) code: k=9, n=13, M=2, delta=0, GF(5^9)."""
    return build_code(validate_and_derive(StreamParams(11, 10, 4, 2)))


def random_block(g, rng: random.Random):
    ext = g.field()
    return [ext.random_element(rng) for _ in range(g.derived.k)]


def mutated(g, i, c, delta=None):
    """g with P[i, c] increased by delta, by one if delta is None."""
    rows = g.P.copy_rows()
    rows[i][c] = rows[i][c] + (g.field().one if delta is None else delta)
    return dataclasses.replace(g, P=Mat(g.field(), rows, g.P.ncols))


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list that gains one entry per Field._reduce call during the test."""
    calls = []
    generic = Field._reduce

    def counting(self, v):
        calls.append(1)
        return generic(self, v)

    monkeypatch.setattr(Field, "_reduce", counting)
    return calls
