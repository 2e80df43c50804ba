import random

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.gf import (GF, FieldError, FieldMismatchError, alpha_power_basis,
                          find_irreducible, frobenius, is_irreducible, is_prime,
                          next_prime)


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
