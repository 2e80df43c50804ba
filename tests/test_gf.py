import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.gf import (GF, Field, FieldError, FieldMismatchError, alpha_power_basis,
                          find_irreducible, frobenius, is_irreducible, is_prime,
                          next_prime)


def _monic_polys(q, m):
    """Every monic degree-m polynomial over Z_q, constant term first."""
    return [lower + (1,) for lower in itertools.product(range(q), repeat=m)]


def _product(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def _brute_irreducibles(q, m):
    """Monic degree-m irreducibles over Z_q: those that are no product of two
    monic polynomials of positive degree, found by multiplying all pairs."""
    reducible = {_product(a, b, q) for d in range(1, m // 2 + 1)
                 for a in _monic_polys(q, d) for b in _monic_polys(q, m - d)}
    return [p for p in _monic_polys(q, m) if p not in reducible]


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert next_prime(6) == 7
    assert next_prime(7) == 7
    assert next_prime(8) == 11


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

    def test_text_round_trip(self):
        f = GF(7, 3)
        x = f((6, 0, 4))
        assert x.to_text() == "6,0,4"
        assert f.from_text(x.to_text()) == x

    def test_out_of_range_coefficients_rejected(self):
        f = GF(7, 9)
        for text in ("9,0,0,0,0,0,0,0,0", "7,0,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0,-1",
                     "a,0,0,0,0,0,0,0,0", "1,,0,0,0,0,0,0,0", "0_1,0,0,0,0,0,0,0,0"):
            with pytest.raises(FieldError):
                f.from_text(text)
        assert f.from_text("6,0,0,0,0,0,0,0,0") == f(6)
        assert GF(7)(9) == GF(7)(2)  # integers keep their modular meaning


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
        import itertools
        from streamfec.gf import _poly_mod

        for q, m in [(2, 4), (3, 4), (5, 3)]:
            f = list(find_irreducible(q, m))
            for deg in range(1, m // 2 + 1):
                for lower in itertools.product(range(q), repeat=deg):
                    g = list(lower) + [1]
                    assert _poly_mod(f, g, q) != [] or g == f

    @pytest.mark.parametrize("q,m", [(q, m) for q in (2, 3) for m in range(2, 7)]
                             + [(q, m) for q in (5, 7) for m in range(2, 5)])
    def test_is_irreducible_matches_brute_force(self, q, m):
        irreducible = set(_brute_irreducibles(q, m))
        for cand in _monic_polys(q, m):
            assert is_irreducible(cand, q) == (cand in irreducible), cand

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
        # divide x^(q^m) - x, so only the gcd step can reject them
        f = _product(g, h, q)
        assert not is_irreducible(f, q)
        with pytest.raises(FieldError):
            GF(q, len(f) - 1, f)

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


class TestAlphaPowerBasis:
    def test_full_basis_gf8(self):
        f = GF(2, 3)
        basis = alpha_power_basis(f, 3)
        assert basis == [f.one, f.alpha, f.alpha * f.alpha]

    def test_single(self):
        f = GF(5, 4)
        assert alpha_power_basis(f, 1) == [f.one]

    def test_coefficient_matrix_has_full_rank(self):
        f = GF(7, 9)
        basis = alpha_power_basis(f, 9)
        # powers below m never wrap, so their coefficient matrix is I_9
        for i, b in enumerate(basis):
            expected = tuple(1 if j == i else 0 for j in range(9))
            assert b.coeffs == expected

    def test_too_many_rejected(self):
        with pytest.raises(FieldError):
            alpha_power_basis(GF(2, 3), 4)


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


class TestInverse:
    @pytest.mark.parametrize("q,m,sample", INVERSE_FIELDS)
    def test_equals_fermat_reference(self, q, m, sample):
        f = GF(q, m)
        for a in _nonzero_elements(f, sample):
            assert a.inverse() == a ** (f.order - 2)

    def test_extension_inverse_makes_no_field_multiply(self, monkeypatch):
        calls = []
        generic = Field._mul_coeffs

        def counting(self, a, b):
            calls.append(1)
            return generic(self, a, b)

        monkeypatch.setattr(Field, "_mul_coeffs", counting)
        f = GF(7, 9)
        a = f((3, 1, 4, 1, 5, 0, 2, 6, 5))
        inv = a.inverse()
        assert calls == []
        assert a * inv == f.one and calls == [1]

    @pytest.mark.parametrize("q,m", [(7, 1), (2, 5), (7, 9)])
    def test_zero_division_and_quotients(self, q, m):
        f = GF(q, m)
        with pytest.raises(ZeroDivisionError):
            f.zero.inverse()
        with pytest.raises(ZeroDivisionError):
            f.one / f.zero
        with pytest.raises(ZeroDivisionError):
            f.zero ** -1
        rng = random.Random(q + m)
        for a in _nonzero_elements(f, 20 if f.order > 50 else None):
            b = f.random_element(rng)
            assert (b / a) * a == b
            assert a ** -1 == a.inverse()
            assert a ** -3 * (a * a * a) == f.one


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
        assert (a / b) * b == a
