import functools
import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from streamfec import gf
from streamfec.gf import (DOT_TERMS, GF, M_LIMIT, PRIME_LIMIT, FieldError, FieldMismatchError,
                          find_irreducible, frobenius, is_irreducible, is_prime, next_prime)
from streamfec.matrix import Mat

from conftest import mat_from_json, mat_to_json


def _monic_polys(q, m):
    """Every monic degree-m polynomial over Z_q, constant term first."""
    return [lower + (1,) for lower in itertools.product(range(q), repeat=m)]


def _product(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _list_divmod(a, f, q):
    """Quotient and remainder of a by a nonzero f, coefficient lists over
    Z_q, constant term first, both trimmed: schoolbook long division that
    cancels the leading term through the inverse of f's leading coefficient."""
    r, df = list(a), len(f) - 1
    lead_inv = pow(f[-1], q - 2, q)
    quot = [0] * max(len(r) - df, 0)
    while len(r) - 1 >= df and r:
        c = r[-1] * lead_inv % q
        shift = len(r) - 1 - df
        quot[shift] = c
        for i in range(df + 1):
            r[shift + i] = (r[shift + i] - c * f[i]) % q
        r.pop()
    return _trim(quot), _trim(r)


def _brute_irreducibles(q, m):
    """Monic degree-m irreducibles over Z_q: those that are no product of two
    monic polynomials of positive degree, found by multiplying all pairs."""
    reducible = {_product(a, b, q) for d in range(1, m // 2 + 1)
                 for a in _monic_polys(q, d) for b in _monic_polys(q, m - d)}
    return [p for p in _monic_polys(q, m) if p not in reducible]


def test_prime_helpers():
    # a sieve up to 20,000
    n = 20_000
    sieve = [False, False] + [True] * (n - 1)
    for d in range(2, n + 1):
        if sieve[d]:
            for k in range(d * d, n + 1, d):
                sieve[k] = False
    assert [p for p in range(n + 1) if is_prime(p)] == [p for p in range(n + 1) if sieve[p]]
    # strong pseudoprimes to the bases 2..7 and 2..23: Miller-Rabin needs its later bases
    assert not is_prime(3_215_031_751)
    assert not is_prime(3_825_123_056_546_413_051)
    assert is_prime(10 ** 12 + 39) and is_prime(2 ** 61 - 1)
    assert next_prime(6) == 7
    assert next_prime(7) == 7
    assert next_prime(8) == 11


def test_large_prime_field_builds_at_once():
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).q == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5
    with pytest.raises(FieldError, match="not prime"):
        GF(2 ** 61 + 1)
    # beyond the exact range of the test, q is refused rather than guessed
    with pytest.raises(FieldError, match="too large"):
        GF(PRIME_LIMIT + 2)


def test_extension_degree_above_the_limit_refused_at_once(monkeypatch):
    assert GF(2, M_LIMIT).m == M_LIMIT
    # refused before any modulus search or check starts
    monkeypatch.setattr(gf, "is_irreducible", None)
    monkeypatch.setattr(gf, "find_irreducible", None)
    for modulus in (None, (1,) + (0,) * M_LIMIT + (1,)):
        with pytest.raises(FieldError, match="M_LIMIT"):
            GF(2, M_LIMIT + 1, modulus)


class TestBaseField:
    def test_add_mod7(self):
        f = GF(7)
        assert f(3) + f(5) == f(1)

    def test_additive_identity(self):
        f = GF(7)
        x = f(4)
        assert x + f.zero == x

    def test_mul_mod7(self):
        f = GF(7)
        assert f(3) * f(5) == f(1)

    def test_inverse_mod7(self):
        f = GF(7)
        assert f(3).inverse() == f(5)
        assert f.one.inverse() == f.one

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF(7).zero.inverse()

    def test_nonprime_rejected(self):
        with pytest.raises(FieldError):
            GF(6)

    def test_only_the_modulus_x_makes_a_prime_field(self):
        """For m = 1 the modulus never enters the arithmetic, so another one
        would intern a second GF(7) that prints alike and mixes with none."""
        assert GF(7, 1, (0, 1)) is GF(7)
        for modulus in ((3, 1), (1, 1)):
            with pytest.raises(FieldError, match=r"modulus \(0, 1\)"):
                GF(7, 1, modulus)
        with pytest.raises(FieldError, match=r"modulus \(0, 1\)"):
            GF(2, 1, (1, 1))


class TestExtensionField:
    def test_gf4_alpha_squared(self):
        f = GF(2, 2)
        a = f.alpha
        assert a * a == f((1, 1))  # alpha^2 = alpha + 1 under x^2 + x + 1

    def test_gf4_alpha_inverse(self):
        f = GF(2, 2)
        assert f.alpha.inverse() == f((1, 1))

    def test_multiplicative_identity(self):
        f = GF(5, 2)
        x = f((2, 3))
        assert x * f.one == x

    def test_gf25_add_cancels(self):
        f = GF(5, 2)
        assert f((2, 1)) + f((3, 4)) == f.zero

    def test_gf49_product(self):
        # (3 + 2a)(5 + 6a) with a^2 = -1 under x^2 + 1
        f = GF(7, 2)
        assert f.modulus == (1, 0, 1)
        assert f((3, 2)) * f((5, 6)) == f((3, 0))

    def test_mismatched_fields_rejected(self):
        with pytest.raises(FieldMismatchError):
            GF(7)(1) + GF(5)(1)

    def test_operands_must_share_the_field(self):
        f = GF(5, 2)
        x, b = f((1, 1)), GF(5)(3)
        for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
            with pytest.raises(FieldMismatchError):
                op(x, b)
            with pytest.raises(FieldMismatchError):
                op(b, x)
            with pytest.raises(TypeError):
                op(x, 3)
        assert x * f.embed(b) == f((3, 3))

    def test_call_rejects_element_of_another_field(self):
        f = GF(5, 2)
        with pytest.raises(FieldMismatchError):
            f(GF(5)(3))
        assert f(f.alpha) is f.alpha

    def test_out_of_range_coefficients_rejected(self):
        f = GF(7, 9)
        zeros = (0,) * 8
        for coeffs in ((9,) + zeros, (7,) + zeros, zeros + (-1,), ("1",) + zeros,
                       (1.0,) + zeros, (True,) + zeros, zeros, zeros + (0, 0)):
            with pytest.raises(FieldError):
                f(coeffs)
        assert f((6,) + zeros) == f(6)
        assert GF(7)(9) == GF(7)(2)  # integers keep their modular meaning

    def test_bool_scalar_rejected(self):
        # a bool is refused as q, m and a coefficient, so as a scalar too
        for f in (GF(7, 9), GF(2)):
            for value in (True, False):
                with pytest.raises(FieldError):
                    f(value)
        assert GF(7, 9)(1) == GF(7, 9).one and GF(2)(0) == GF(2).zero


class TestFrobenius:
    def test_identity_power(self):
        f = GF(5, 3)
        x = f((1, 2, 3))
        assert frobenius(x, 0) == x

    def test_base_element_fixed(self):
        f = GF(7, 4)
        b = f(5)
        assert frobenius(b, 1) == b

    def test_gf4_alpha(self):
        f = GF(2, 2)
        assert frobenius(f.alpha, 1) == f((1, 1))

    def test_orbit_closes(self):
        f = GF(3, 4)
        rng = random.Random(0)
        for _ in range(20):
            x = f.random_element(rng)
            assert frobenius(x, f.m) == x

    def test_linearity(self):
        f = GF(5, 3)
        rng = random.Random(1)
        for _ in range(50):
            a, b = f.random_element(rng), f.random_element(rng)
            c = f(rng.randrange(5))
            assert frobenius(a + b, 1) == frobenius(a, 1) + frobenius(b, 1)
            assert frobenius(c * a, 1) == c * frobenius(a, 1)


class TestFindIrreducible:
    def test_degree_one_convention(self):
        assert find_irreducible(7, 1) == (0, 1)

    def test_known_small_moduli(self):
        assert find_irreducible(2, 2) == (1, 1, 1)
        assert find_irreducible(5, 2) == (1, 1, 1)
        assert find_irreducible(7, 2) == (1, 0, 1)
        assert find_irreducible(2, 3) == (1, 0, 1, 1)
        assert find_irreducible(3, 3) == (1, 0, 2, 1)
        assert find_irreducible(2, 5) == (1, 0, 0, 1, 0, 1)
        # these two need the gcd to divide by non-monic remainders
        assert find_irreducible(3, 6) == (1, 0, 0, 0, 1, 1, 1)
        assert GF(3, 5, (2, 0, 0, 2, 2, 1)).modulus == (2, 0, 0, 2, 2, 1)

    def test_moduli_match_golden(self):
        # every prime q <= 29 and 1 <= m <= 14, then eight fields up to q near
        # PRIME_LIMIT and m = M_LIMIT, one "q m c0,...,1" line each
        lines = (Path(__file__).parent / "golden" / "moduli.txt").read_text().splitlines()
        assert len(lines) == 148
        for line in lines:
            q, m, coeffs = line.split()
            want = tuple(int(c) for c in coeffs.split(","))
            assert find_irreducible(int(q), int(m)) == want, line

    def test_construction_scale_moduli(self):
        assert find_irreducible(7, 9) == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
        assert find_irreducible(5, 9) == (1, 0, 0, 0, 0, 0, 0, 2, 3, 1)

    def test_no_roots(self):
        for q, m in [(2, 4), (3, 3), (5, 2), (7, 2), (7, 9)]:
            coeffs = find_irreducible(q, m)
            for r in range(q):
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * r + c) % q
                assert acc != 0

    def test_no_small_factor_by_trial_division(self):
        # divide by every monic polynomial of degree <= m/2
        for q, m in [(2, 4), (3, 4), (5, 3)]:
            f = list(find_irreducible(q, m))
            for deg in range(1, m // 2 + 1):
                for lower in itertools.product(range(q), repeat=deg):
                    g = list(lower) + [1]
                    assert _list_divmod(f, g, q)[1] != [] or g == f

    @pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3) for m in range(2, 7)]
                             + [(q, m) for q in (5, 7) for m in range(2, 5)])
    def test_is_irreducible_matches_brute_force(self, q, m):
        irreducible = set(_brute_irreducibles(q, m))
        for cand in _monic_polys(q, m):
            assert is_irreducible(cand, q) == (cand in irreducible), cand

    @pytest.mark.parametrize("coeffs", [(1.0, 0, 1), (True, 0, 1), (4, 0, 1), (-2, 0, 1)],
                             ids=["float", "bool", "above-q", "negative"])
    def test_non_residue_coefficient_refused(self, coeffs):
        # a float, a bool, a coefficient >= q and a negative one, over Z_3,
        # alone and as GF's explicit modulus
        with pytest.raises(FieldError, match="residues"):
            is_irreducible(coeffs, 3)
        with pytest.raises(FieldError, match="residues"):
            GF(3, 2, coeffs)

    @pytest.mark.parametrize("q,m", [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 5),
                                     (3, 6), (5, 3), (7, 3)])
    def test_find_irreducible_is_brute_force_lex_smallest(self, q, m):
        assert find_irreducible(q, m) == min(_brute_irreducibles(q, m))

    @pytest.mark.parametrize("q,g,h", [
        (5, (4, 0, 3, 1), (4, 0, 2, 4, 1, 4, 2, 3, 0, 1, 3, 3, 0, 2, 3, 1)),
        (13, (9, 11, 5, 5, 1),
         (3, 5, 11, 11, 12, 0, 12, 2, 4, 9, 6, 4, 8, 1, 3, 1, 0, 2, 1, 12, 1))])
    def test_reducible_moduli_rejected(self, q, g, h):
        # x^18 + x^17 + x^16 + 1 over Z_5 and x^24 + 4x^23 + x^22 + 1 over Z_13
        # divide x^(q^m) - x and have no root; Ben-Or's test rejects them in
        # round 3 and round 4, at their factors of degree 3 and 4
        f = _product(g, h, q)
        assert not is_irreducible(f, q)
        with pytest.raises(FieldError):
            GF(q, len(f) - 1, f)

    def test_default_modulus_is_tested_only_by_the_search(self, monkeypatch):
        """A cold GF(7, 9) runs Ben-Or's test only on the search's candidates:
        GF trusts the modulus find_irreducible returns."""
        search, real = gf.find_irreducible.__wrapped__, gf.is_irreducible
        searching, calls = [], []

        def uncached_search(q, m):
            searching.append(True)
            try:
                return search(q, m)
            finally:
                searching.pop()

        monkeypatch.setattr(gf, "find_irreducible", uncached_search)
        monkeypatch.setattr(gf, "_interned_field", functools.lru_cache(maxsize=None)(gf.Field))
        monkeypatch.setattr(gf, "is_irreducible",
                            lambda f, q: calls.append(bool(searching)) or real(f, q))
        f = gf.GF(7, 9)
        assert f.modulus == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)
        assert calls and all(calls)

    def test_large_q_modulus_from_json(self):
        # x^2 + 1 is irreducible over Z_q for q = 3 mod 4
        q = 2 ** 31 - 1
        obj = {"rows": 1, "cols": 1, "q": q, "m": 2, "modulus": [1, 0, 1],
               "entries": [[[12345, 678]]]}
        a = Mat.from_json_obj(obj).rows[0][0]
        assert a * a.inverse() == a.field.one

    def test_large_q_reducible_modulus_rejected(self):
        # q = 1 mod 4: -1 is a square, so x^2 + 1 has a root
        with pytest.raises(FieldError):
            GF(10 ** 9 + 9, 2, (1, 0, 1))

    def test_large_q_search(self):
        q = 2 ** 31 - 1
        modulus = find_irreducible(q, 3)
        assert GF(q, 3, modulus).modulus == modulus

    def test_is_minimal_in_lex_order(self):
        q, m = 7, 2
        best = find_irreducible(q, m)
        for c0 in range(q):
            for c1 in range(q):
                cand = (c0, c1, 1)
                if cand == best:
                    return
                assert not is_irreducible(cand, q)
        raise AssertionError("modulus not reached in scan")


@pytest.mark.parametrize("q,m", [(7, 1), (2, 2), (5, 2), (7, 3)])
def test_field_axioms_random_triples(q, m):
    f = GF(q, m)
    rng = random.Random(q * 100 + m)
    for _ in range(1000):
        a, b, c = (f.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("q,m", [(7, 1), (2, 2), (5, 2), (7, 9)])
def test_inverse_round_trip(q, m):
    f = GF(q, m)
    rng = random.Random(17)
    for _ in range(200):
        a = f.random_element(rng)
        if a:
            assert a * a.inverse() == f.one


# (q, m, sample): every nonzero element when sample is None, else that
# many seeded random nonzero elements
INVERSE_FIELDS = [(2, 1, None), (7, 1, None), (2, 5, None), (3, 4, None), (13, 3, None),
                  (5, 9, 300), (7, 9, 300)]


def _nonzero_elements(f, sample):
    if sample is None:
        return [f(c) for c in itertools.product(range(f.q), repeat=f.m) if any(c)]
    rng = random.Random(f.q * 1000 + f.m)
    out = []
    while len(out) < sample:
        a = f.random_element(rng)
        if a:
            out.append(a)
    return out


def _unpack(f, v):
    """The trimmed coefficient list of a packed polynomial of any length."""
    out = []
    while v:
        out.append(v & f._mask)
        v >>= f._slot
    return out


@pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (2, 24), (3317044064679887385961813, 2)])
def test_divmod_matches_list_long_division(q, m):
    """Field._divmod on packed operands of up to 2m - 1 slots is schoolbook
    long division: the Barrett dividend by the modulus, dividends and
    divisors with every slot at q - 1, and seeded ones of every degree."""
    f = GF(q, m)
    top, slots = q - 1, 2 * m - 1
    cases = [([0] * (2 * m - 2) + [1], list(f.modulus)), ([], list(f.modulus))]
    cases += [([top] * da, [top] * db) for da in (1, m, m + 1, slots)
              for db in (1, 2, m + 1, slots)]
    rng = random.Random(q * 100 + m)
    for _ in range(300):
        a = _trim([rng.randrange(q) for _ in range(rng.randrange(slots + 1))])
        b = [rng.randrange(q) for _ in range(rng.randrange(slots))] + [rng.randrange(1, q)]
        cases.append((a, b))
    for a, b in cases:
        quot, rem = f._divmod(f._pack(a), f._pack(b))
        assert (_unpack(f, quot), _unpack(f, rem)) == _list_divmod(a, b, q), (a, b)


class TestInverse:
    @pytest.mark.parametrize("q,m,sample", INVERSE_FIELDS)
    def test_equals_fermat_reference(self, q, m, sample):
        f = GF(q, m)
        for a in _nonzero_elements(f, sample):
            assert a.inverse() == a ** (f.q ** f.m - 2)

    def test_extension_inverse_is_euclid_not_a_power(self, reduce_calls):
        # Euclid makes one reduction per step, at most m - 1 steps, and the
        # scale one more; the 25 squarings of a Fermat power alone make more
        f = _fresh_field(7, 9)
        reduce_calls.clear()  # a cold modulus search reduces too
        a = f((3, 1, 4, 1, 5, 0, 2, 6, 5))
        inv = a.inverse()
        assert 0 < len(reduce_calls) <= f.m
        reduce_calls.clear()
        assert a * inv == f.one and reduce_calls == [1]

    def test_euclid_finds_the_units_of_a_ring(self):
        # x^2 + 2 = (x - 1)(x + 1) over Z_3: Z_3[x]/f is a ring, not a field,
        # and Ben-Or's test runs _euclid on such rings
        ring = gf.Field(3, 2, (2, 0, 1))
        elems = _all_elements(ring)
        units = 0
        for a in elems[1:]:
            r, quotients = ring._euclid(a)
            assert bool(r) == any(a * b == ring.one for b in elems), a
            if r:
                s0, s1 = ring.zero, ring.one  # s_(i+1) = s_(i-1) - quot_i s_i
                for quot in quotients:
                    s0, s1 = s1, s0 - gf.FieldElement(ring, quot) * s1
                assert s1 * a == ring(r), a
                units += 1
        assert units == 4  # Z_3 x Z_3 has 4 units and 4 nonzero zero divisors

    @pytest.mark.parametrize("q,m", [(7, 1), (2, 5), (7, 9)])
    def test_zero_division_and_quotients(self, q, m):
        f = GF(q, m)
        with pytest.raises(ZeroDivisionError):
            f.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            f.zero ** -1
        rng = random.Random(q + m)
        for a in _nonzero_elements(f, 20 if f.q ** f.m > 50 else None):
            b = f.random_element(rng)
            assert (b * a.inverse()) * a == b
            assert a ** -1 == a.inverse()
            assert a ** -3 * (a * a * a) == f.one


def _power_by_products(a, e):
    """a^e as e products: one, times a, e times over."""
    out = a.field.one
    for _ in range(e):
        out = out * a
    return out


# fields of the power tests: a prime field and extensions of small and large q
POWER_FIELDS = [(7, 1), (2, 5), (5, 9), (7, 9), (11, 11)]


class TestPower:
    @pytest.mark.parametrize("q,m", POWER_FIELDS)
    def test_equals_repeated_multiplication(self, q, m):
        """a^e for e in 0 .. 3q, a^(q^i) as i q-fold products in turn, and
        a^-e as e products of a's inverse."""
        f = GF(q, m)
        rng = random.Random(q * m)
        for a in (f.zero, f.one, f.alpha, f.random_element(rng), f.random_element(rng)):
            for e in range(3 * q + 1):
                assert a ** e == _power_by_products(a, e), (a, e)
            frob = a
            for i in range(1, m + 1):
                frob = _power_by_products(frob, q)
                assert a ** (q ** i) == frob, (a, i)
            if a:
                for e in range(1, 3 * q + 1):
                    assert a ** -e == _power_by_products(a.inverse(), e), (a, e)
                    assert a ** -e * _power_by_products(a, e) == f.one

    @pytest.mark.parametrize("q,m", POWER_FIELDS)
    def test_squarings_stop_at_the_top_bit(self, mul_calls, q, m):
        """a^e makes e.bit_length() - 1 squarings and one multiply per set
        bit of e, and a^0 none."""
        f = GF(q, m)
        a = f.random_element(random.Random(q + m))
        for e in [*range(1, 3 * q + 1), *(q ** i for i in range(1, m + 1)), q ** m - 2]:
            mul_calls.clear()
            a ** e
            assert len(mul_calls) == e.bit_length() - 1 + bin(e).count("1"), e
        mul_calls.clear()
        assert a ** 0 == f.one and mul_calls == []


def _fresh_field(q, m):
    """GF(q, m) outside the intern cache, so its inverse table starts empty."""
    return gf.Field(q, m, find_irreducible(q, m))


class TestInverseTable:
    """Each field inverts a distinct element once, by Euclid, and keeps the
    result, both ways, in a table of at most INVERSE_CAP entries."""

    @pytest.mark.parametrize("q,m", [(2, 5), (3, 4)])
    def test_second_call_is_a_hit_equal_to_euclid_and_fermat(self, monkeypatch, q, m):
        monkeypatch.setattr(gf, "INVERSE_CAP", 0)  # no room: every call runs Euclid
        bare = _fresh_field(q, m)
        euclid = {a.pk: a.inverse().pk for a in _nonzero_elements(bare, None)}
        assert bare._inv == {}
        monkeypatch.undo()
        f = _fresh_field(q, m)
        for a in _nonzero_elements(f, None):
            first = a.inverse()
            assert f._inv[a.pk] == first.pk == euclid[a.pk]
            hit = a.inverse()
            assert hit.pk == euclid[a.pk] and hit == a ** (q ** m - 2)
        assert len(f._inv) == q ** m - 1

    def test_a_miss_stores_the_reverse_entry(self):
        f = _fresh_field(7, 9)
        a = f((3, 1, 4, 1, 5, 0, 2, 6, 5))
        inv = a.inverse()
        assert f._inv == {a.pk: inv.pk, inv.pk: a.pk}
        assert inv.inverse() == a and len(f._inv) == 2

    def test_zero_raises_and_is_never_stored(self):
        f = _fresh_field(2, 5)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                f.zero.inverse()
        assert f._inv == {}
        for a in _nonzero_elements(f, None):
            a.inverse()
        assert 0 not in f._inv and 0 not in f._inv.values()

    def test_table_stops_growing_at_the_cap(self):
        f = _fresh_field(2, 13)  # 8,191 nonzero elements, twice the cap
        for a in _nonzero_elements(f, None):
            assert a * a.inverse() == f.one
            assert len(f._inv) <= gf.INVERSE_CAP
        assert len(f._inv) >= gf.INVERSE_CAP - 1
        # past the cap a miss still inverts exactly, and stores nothing
        table = dict(f._inv)
        misses = [a for a in _nonzero_elements(f, None) if a.pk not in table]
        assert misses and all(a * a.inverse() == f.one for a in misses)
        assert f._inv == table

    def test_same_q_m_other_modulus_has_its_own_table(self):
        # x^5 + x^2 + 1 and x^5 + x^3 + 1 are both irreducible over Z_2
        f, g = GF(2, 5, (1, 0, 1, 0, 0, 1)), GF(2, 5, (1, 0, 0, 1, 0, 1))
        for filled, other in ((f, g), (g, f)):
            for a in _nonzero_elements(filled, None):
                a.inverse()
            for a in _nonzero_elements(other, None):
                assert a * a.inverse() == other.one
        assert any(f._inv[pk] != g._inv[pk] for pk in f._inv)

    def test_a_cleared_intern_cache_starts_an_empty_table(self, monkeypatch):
        monkeypatch.setattr(gf, "_interned_field", functools.lru_cache(maxsize=None)(gf.Field))
        f = GF(7, 9)
        f.alpha.inverse()
        assert len(f._inv) == 2
        gf._interned_field.cache_clear()
        g = GF(7, 9)
        assert g is not f and g._inv == {}
        assert g.alpha * g.alpha.inverse() == g.one


def _schoolbook_product(f, a, b):
    """a * b by polynomial product and long division by the monic modulus."""
    q, m = f.q, f.m
    prod = list(_product(a.coeffs, b.coeffs, q))
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d]
        for i, r in enumerate(f.modulus):
            prod[d - m + i] = (prod[d - m + i] - c * r) % q
    return f(tuple(prod[:m]))


@pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (2, 4), (3, 6)])
def test_prime_subfield_products_match_generic(q, m):
    f = GF(q, m)
    rng = random.Random(q * 10 + m)
    others = [f.zero, f.one, f.alpha] + [f.random_element(rng) for _ in range(30)]
    for s in range(q):
        scalar = f(s)
        for x in others:
            want = _schoolbook_product(f, scalar, x)
            assert scalar * x == want
            assert x * scalar == want
    for _ in range(100):
        x, y = f.random_element(rng), f.random_element(rng)
        assert x * y == _schoolbook_product(f, x, y)


@given(st.integers(min_value=0, max_value=7 ** 3 - 1),
       st.integers(min_value=0, max_value=7 ** 3 - 1))
@settings(max_examples=200, deadline=None)
def test_division_consistent_with_multiplication(ai, bi):
    f = GF(7, 3)

    def decode(i):
        return f((i % 7, (i // 7) % 7, (i // 49) % 7))

    a, b = decode(ai), decode(bi)
    if b:
        assert (a * b.inverse()) * b == a


# ---------------------------------------------------------------------------
# Packed arithmetic against a schoolbook reference on coefficient tuples
# ---------------------------------------------------------------------------

def _ref_add(f, a, b):
    return tuple((x + y) % f.q for x, y in zip(a, b))


def _ref_neg(f, a):
    return tuple(-x % f.q for x in a)


def _ref_mul(f, a, b):
    """Polynomial product of two coefficient tuples, then long division by
    the monic modulus."""
    q, m = f.q, f.m
    prod = list(_product(a, b, q))
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d]
        for i, r in enumerate(f.modulus):
            prod[d - m + i] = (prod[d - m + i] - c * r) % q
    return tuple(prod[:m])


def _check_against_reference(f, a, b):
    """Whole packed elements are compared, not .coeffs, so a result with
    stray bits above slot m - 1 fails."""
    ca, cb = a.coeffs, b.coeffs
    assert a + b == f(_ref_add(f, ca, cb))
    assert a - b == f(_ref_add(f, ca, _ref_neg(f, cb)))
    assert -a == f(_ref_neg(f, ca))
    assert a * b == f(_ref_mul(f, ca, cb))
    if b:
        inv = b.inverse()
        assert inv == f(inv.coeffs) and f(_ref_mul(f, cb, inv.coeffs)) == f.one


def _all_elements(f):
    return [f(c) for c in itertools.product(range(f.q), repeat=f.m)]


def _sum_of_products(f, pairs):
    """sum of a * b over the pairs, as one plan of steps (i, a) over the b's."""
    return f.evaluate_plans([[(i, a) for i, (a, _) in enumerate(pairs)]], [b for _, b in pairs])[0]


class TestPackedArithmetic:
    @pytest.mark.parametrize("q,m", [(2, 1), (7, 1), (2, 4), (3, 3), (5, 2)])
    def test_every_pair_matches_reference(self, q, m):
        f = GF(q, m)
        elems = _all_elements(f)
        for a in elems:
            for b in elems:
                _check_against_reference(f, a, b)

    @pytest.mark.parametrize("q,m", [(7, 9), (5, 9), (13, 14), (11, 20)])
    def test_seeded_pairs_match_reference(self, q, m):
        f = GF(q, m)
        rng = random.Random(q * 100 + m)
        top = f((q - 1,) * m)
        scalars = [f(s) for s in (0, 1, 2, q - 1)]
        randoms = [f.random_element(rng) for _ in range(40)]
        for a in scalars + [f.alpha, top] + randoms[:10]:
            for b in scalars + [f.alpha, top] + randoms[10:20]:
                _check_against_reference(f, a, b)
        for a, b in zip(randoms[20:], randoms[:20]):
            _check_against_reference(f, a, b)

    @pytest.mark.parametrize("q,m", [(2, 1), (7, 1), (2, 4), (5, 2), (7, 9), (5, 9),
                                     (13, 14), (11, 20)])
    @pytest.mark.parametrize("length", [0, 1, DOT_TERMS - 1, DOT_TERMS])
    def test_dot_of_top_elements_equals_sequential_sum(self, q, m, length):
        # every coefficient q - 1: the largest raw product each slot can hold,
        # up to the DOT_TERMS products a slot is sized for
        f = GF(q, m)
        top = f((q - 1,) * m)
        got = f.evaluate_plans([[(0, top)] * length], [top])[0]
        prod = _ref_mul(f, top.coeffs, top.coeffs)
        assert got.coeffs == tuple(length * c % q for c in prod)
        acc = f.zero
        for _ in range(length):
            acc = acc + top * top
        assert got == acc

    @pytest.mark.parametrize("q,m", [(2, 1), (7, 1), (2, 4), (5, 2), (7, 9), (5, 9),
                                     (13, 14), (11, 20)])
    def test_plan_past_dot_terms_refused(self, q, m):
        """A plan of more than DOT_TERMS steps would carry out of its slots:
        it raises FieldError, wherever it sits in its plan set, and a
        DOT_TERMS-step plan of top elements beside it still sums exactly."""
        f = GF(q, m)
        top = f((q - 1,) * m)
        full, long = [(0, top)] * DOT_TERMS, [(0, top)] * (DOT_TERMS + 1)
        for plans in ([long], [full, long], [long, full], [[(0, top)] * 1000]):
            with pytest.raises(FieldError, match="DOT_TERMS"):
                f.evaluate_plans(plans, [top])
        acc = f.zero
        for _ in range(DOT_TERMS):
            acc = acc + top * top
        assert f.evaluate_plans([full, full], [top]) == [acc, acc]

    def test_slots_hold_every_packed_sum_of_the_library(self):
        """The slot capacity gf states: plans of at most k <= M_LIMIT steps,
        and _solve's and oracle_plan's sums of at most 2 M_LIMIT + 1
        products' room, fit in the DOT_TERMS products a slot holds."""
        assert 2 * M_LIMIT + 1 <= DOT_TERMS

    @pytest.mark.parametrize("q,m", [(7, 9), (13, 14)])
    def test_dot_of_random_pairs_equals_reference_sum(self, q, m):
        f = GF(q, m)
        rng = random.Random(q + m)
        pairs = [(f.random_element(rng), f.random_element(rng)) for _ in range(DOT_TERMS)]
        want = f.zero.coeffs
        for a, b in pairs:
            want = _ref_add(f, want, _ref_mul(f, a.coeffs, b.coeffs))
        assert _sum_of_products(f, pairs).coeffs == want

    def test_check_rejects_the_first_non_element(self):
        """Field.check passes elements of its field, zero included, and raises
        for the first value that is not one, wherever it sits."""
        f = GF(7, 9)
        good = [f.zero, f.one, f.alpha]
        f.check(good)
        f.check(iter([]))
        for bad, err in ((3, TypeError), (None, TypeError), (f.one.coeffs, TypeError),
                         (GF(5, 9).one, FieldMismatchError), (GF(5, 9).zero, FieldMismatchError),
                         (GF(7).one, FieldMismatchError)):
            for at in range(len(good) + 1):
                with pytest.raises(err):
                    f.check(iter(good[:at] + [bad] + good[at:]))
        with pytest.raises(TypeError):
            f.check([f.one, 3, GF(5, 9).one])
        with pytest.raises(FieldMismatchError):
            f.check([GF(5, 9).one, 3])

    @pytest.mark.parametrize("q,m", [(2, 4), (3, 3), (5, 2)])
    def test_coeffs_and_text_are_the_stored_tuple(self, q, m):
        f = GF(q, m)
        for c in itertools.product(range(q), repeat=m):
            a = f(c)
            assert a.coeffs == c
            assert a.to_text() == ",".join(map(str, c))
            assert a.is_base() == (not any(c[1:]))

    def test_text_and_json_forms_unchanged(self):
        g = GF(7, 9)
        rng = random.Random(9)
        assert [g.random_element(rng).to_text() for _ in range(3)] == [
            "3,4,2,2,1,1,6,5,0", "2,4,3,4,0,2,4,4,5", "0,5,3,1,5,3,5,3,1"]
        f = GF(5, 2)
        a = Mat(f, [[f((1, 2)), f((0, 4))], [f((3, 0)), f((4, 4))]])
        text = mat_to_json(a)
        assert text == ('{"cols": 2, "entries": [[[1, 2], [0, 4]], [[3, 0], [4, 4]]], '
                        '"m": 2, "modulus": [1, 1, 1], "q": 5, "rows": 2}')
        assert mat_from_json(text) == a


@st.composite
def _field_and_elements(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(min_value=1, max_value=6))
    f = GF(q, m)
    coeffs = st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * m)
    elems = draw(st.lists(coeffs, min_size=2, max_size=DOT_TERMS))
    return f, [f(c) for c in elems]


@given(_field_and_elements())
@settings(max_examples=150, deadline=None)
def test_packed_arithmetic_property(fe):
    f, elems = fe
    a, b = elems[0], elems[1]
    _check_against_reference(f, a, b)
    pairs = list(zip(elems, reversed(elems)))
    want = f.zero.coeffs
    for x, y in pairs:
        want = _ref_add(f, want, _ref_mul(f, x.coeffs, y.coeffs))
    assert _sum_of_products(f, pairs).coeffs == want


def _reduce_per_slot(f, v):
    """The packed element of one raw sum, slot by slot: each slot d >= m
    folds back, mod q, through alpha^d mod the modulus, then every low slot
    is taken mod q.  Shares no step with Field._reduce's batched masks."""
    q, s, mask = f.q, f._slot, f._mask
    lo, hi = v & f._low, v >> (s * f.m)
    for d in range(f.m, 2 * f.m - 1):
        r = f._pack(_list_divmod([0] * d + [1], f.modulus, q)[1])  # alpha^d mod the modulus
        lo += (hi & mask) % q * r
        hi >>= s
    return sum(((lo >> (s * i)) & mask) % q << (s * i) for i in range(f.m))


@st.composite
def _field_and_raw_sums(draw):
    """A field of _field_and_elements or a larger one, and 1 to 8 raw sums of
    up to DOT_TERMS packed products: some of DOT_TERMS top-element products,
    some by prime-subfield elements only, which have no high slot."""
    q, m = draw(st.one_of(st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]),
                                    st.integers(min_value=1, max_value=6)),
                          st.sampled_from([(7, 9), (5, 9), (11, 11), (13, 14)])))
    f = GF(q, m)
    top = f((q - 1,) * m)
    coeffs = st.tuples(*[st.integers(min_value=0, max_value=q - 1)] * m)
    base = st.integers(min_value=0, max_value=q - 1)
    pairs = st.lists(st.tuples(st.one_of(coeffs, base), coeffs), max_size=DOT_TERMS)
    blocks = draw(st.lists(st.one_of(st.none(), pairs), min_size=1, max_size=8))
    return f, [DOT_TERMS * top.pk * top.pk if b is None
               else sum(f(x).pk * f(y).pk for x, y in b) for b in blocks]


@given(_field_and_raw_sums())
@settings(max_examples=300, deadline=None)
def test_batched_reduction_equals_per_block_reduce(fs):
    """_reduce of the sums packed as blocks of 2m - 1 slots is the per-slot
    reduction of each sum, in the same layout."""
    f, sums = fs
    w = (2 * f.m - 1) * f._slot
    packed = sum(v << (b * w) for b, v in enumerate(sums))
    assert f._reduce(packed, len(sums)) == sum(_reduce_per_slot(f, v) << (b * w)
                                               for b, v in enumerate(sums))


def test_reduction_at_its_largest_slot_values():
    """Per field with q <= 13 and m <= M_LIMIT, _reduce of blocks at the
    slot bounds the width and the Barrett quotient are sized for:
    DOT_TERMS top-element products, one such product, zero and
    DOT_TERMS top * alpha."""
    for q in (2, 3, 5, 7, 11, 13):
        for m in range(1, M_LIMIT + 1):
            f = GF(q, m)
            top = f((q - 1,) * m).pk
            sums = [DOT_TERMS * top * top, top * top, 0, DOT_TERMS * top * f.alpha.pk]
            w = (2 * m - 1) * f._slot
            packed = sum(v << (b * w) for b, v in enumerate(sums))
            assert f._reduce(packed, len(sums)) == sum(_reduce_per_slot(f, v) << (b * w)
                                                       for b, v in enumerate(sums)), (q, m)


def _masks_by_slot(f, count):
    """_reduce's masks for count blocks, set one slot at a time: the low
    and high slots of each block split by the parity of the slot's index in
    the whole, slots 0 .. m-2 and slots 0 .. m-1 of each block."""
    s, slots, mask = f._slot, 2 * f.m - 1, f._mask
    groups = [[0, 0], [0, 0]]  # [low or high slot][slot index mod 2]
    for i in range(count * slots):
        groups[i % slots >= f.m][i % 2] |= mask << (i * s)
    quot = sum(mask << ((b * slots + i) * s) for b in range(count) for i in range(f.m - 1))
    low = sum(mask << ((b * slots + i) * s) for b in range(count) for i in range(f.m))
    return (*map(tuple, groups), quot, low)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 5), (5, 9), (7, 9), (11, 11), (11, 14),
                                 (29, 13), (2, 24), (8209, 1)])
def test_masks_match_slot_by_slot_reference(q, m):
    """The closed-form masks are the slot-by-slot ones, for 0 to 40 blocks
    and 100, an odd and an even number of blocks of 2m - 1 slots alike."""
    f = GF(q, m)
    for count in [*range(41), 100]:
        assert f._masks(count) == _masks_by_slot(f, count), count
