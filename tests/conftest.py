import dataclasses
import functools
import json
import random
from itertools import product

import pytest

from streamfec.codes import MrdCode
from streamfec.construction import ParamError, StreamParams, validate_and_derive, build_code
from streamfec.gf import Field
from streamfec.matrix import Mat


SMALL_CODES = [(2, 1, 1, 1), (6, 5, 3, 3), (6, 5, 2, 2), (5, 4, 2, 1)]

# (W, T, B, N) of every code the exhaustive gates cover: ex1, ex2, the small
# codes and (6, 9, 3, 2), whose window is shorter than its delay allows.
GATE_CODES = [(10, 9, 5, 3), (11, 10, 4, 2), *SMALL_CODES, (6, 9, 3, 2)]


@functools.cache
def accepted_small_params() -> tuple:
    """Every (W, T, B, N) with W <= 13 and T <= 14 that validate_and_derive
    accepts with n <= 12, T >= W included: the codes criterion 10's
    hypothesis tests draw from."""
    out = []
    for W, T, B, N in product(range(2, 14), range(1, 15), range(1, 13), range(1, 13)):
        try:
            d = validate_and_derive(StreamParams(W, T, B, N))
        except ParamError:
            continue
        if d.n <= 12:
            out.append((W, T, B, N))
    return tuple(out)


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


def mat(field, rows, ncols=None):
    """A Mat whose entries are field(v) for the given ints or coefficient tuples."""
    return Mat(field, [[field(v) for v in r] for r in rows], ncols)


def zeros(field, nrows, ncols):
    return Mat(field, [[field.zero] * ncols for _ in range(nrows)], ncols)


def select_rows(a, idx):
    """The rows idx of a, in order."""
    return Mat(a.field, [a.rows[i] for i in idx], a.ncols)


def mat_to_json(a):
    """The JSON text of a Mat, keys sorted."""
    return json.dumps(a.to_json_obj(), sort_keys=True)


def mat_from_json(text):
    return Mat.from_json_obj(json.loads(text))


def punctured(code, idx):
    """The MRD code on the columns idx of code, its points among them."""
    return MrdCode(len(idx), code.k, code.gen_moore.select_columns(idx),
                   code.gen_sys.select_columns(idx))


def mutated(g, i, c, delta=None):
    """g with P[i, c] increased by delta, by one if delta is None."""
    rows = [list(r) for r in g.P.rows]
    rows[i][c] = rows[i][c] + (g.field().one if delta is None else delta)
    return dataclasses.replace(g, P=Mat(g.field(), rows, g.P.ncols))


@pytest.fixture
def reduce_calls(monkeypatch):
    """A list that gains one entry per Field._reduce call during the test,
    whatever the number of sums the call reduces together."""
    calls, reduce = [], Field._reduce

    def counting(self, v, count=1):
        calls.append(1)
        return reduce(self, v, count)

    monkeypatch.setattr(Field, "_reduce", counting)
    return calls
