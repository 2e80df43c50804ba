"""Exact arithmetic in prime fields GF(q) and extension fields GF(q^m).

An element of GF(q^m) is a coefficient vector over Z_q in the power basis
1, alpha, ..., alpha^(m-1), where alpha is a root of a fixed monic
irreducible modulus.  The modulus is chosen deterministically (the
lexicographically smallest irreducible polynomial, coefficients compared
constant-term-first) so that every exported matrix is bit-reproducible.

No tables, no floating point: all operations are exact integer arithmetic.
Multiplication uses Kronecker substitution (one big-integer multiply per
product) which keeps GF(7^9)-sized fields fast without q^m-sized tables.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Invalid field parameter or malformed element."""


class FieldMismatchError(FieldError):
    """Operands belong to different field specs."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Polynomials over Z_q, as coefficient lists, constant term first.
# Used only for modulus selection; element arithmetic lives in Field.
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], f: Sequence[int], q: int) -> list[int]:
    # f monic
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df and r:
        c = r[-1]
        if c:
            shift = len(r) - 1 - df
            for i in range(df + 1):
                r[shift + i] = (r[shift + i] - c * f[i]) % q
        r.pop()
    return _poly_trim(r)


def _poly_powmod(base: Sequence[int], e: int, f: Sequence[int], q: int) -> list[int]:
    result = [1]
    b = _poly_mod(base, f, q)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, b, q), f, q)
        b = _poly_mod(_poly_mul(b, b, q), f, q)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    # a gcd up to a unit factor: only its degree is read
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(a, b, q)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Rabin's test for a monic polynomial over Z_q (constant term first)."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:
        return False  # divisible by x
    # cheap screen: a root in Z_q means a linear factor
    for r in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % q
        if acc == 0:
            return False
    f = list(coeffs)
    x = [0, 1]

    def sub_x(h: Sequence[int]) -> list[int]:
        diff = [0] * max(len(h), 2)
        for i, c in enumerate(h):
            diff[i] = c
        diff[1] = (diff[1] - 1) % q
        return _poly_trim(diff)

    # x^(q^m) == x mod f
    if sub_x(_poly_powmod(x, q ** m, f, q)):
        return False
    # gcd(x^(q^(m/p)) - x, f) == 1 for every prime p | m
    for p in _prime_factors(m):
        d = sub_x(_poly_powmod(x, q ** (m // p), f, q))
        if len(_poly_gcd(d, f, q)) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def find_irreducible(q: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over Z_q.

    Coefficients are compared constant-term-first; the result includes the
    leading 1, so it has m+1 entries.  Deterministic across runs.
    """
    if not is_prime(q):
        raise FieldError(f"q={q} is not prime")
    if m < 1:
        raise FieldError(f"extension degree must be >= 1, got {m}")
    if m == 1:
        return (0, 1)  # the polynomial x: base-field convention
    # c0 = 0 would make the polynomial divisible by x, so start at c0 = 1;
    # within fixed c0 the remaining coefficients run in lex order.
    for c0 in range(1, q):
        for rest in itertools.product(range(q), repeat=m - 1):
            cand = (c0,) + rest + (1,)
            if is_irreducible(cand, q):
                return cand
    raise AssertionError("no irreducible polynomial found (impossible)")


# ---------------------------------------------------------------------------
# Field spec and elements
# ---------------------------------------------------------------------------

class FieldElement:
    """Immutable element of a :class:`Field`, stored as a coefficient tuple."""

    __slots__ = ("field", "coeffs", "_pk")

    def __init__(self, field: "Field", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._pk = None

    def _packed(self) -> int:
        pk = self._pk
        if pk is None:
            s = self.field._slot
            pk = 0
            for c in reversed(self.coeffs):
                pk = (pk << s) | c
            self._pk = pk
        return pk

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        q = f.q
        return FieldElement(f, tuple((x + y) % q for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        q = f.q
        return FieldElement(f, tuple((x - y) % q for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        q = self.field.q
        return FieldElement(self.field, tuple((-x) % q for x in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._mul_coeffs(self, other))

    def __pow__(self, e: int) -> "FieldElement":
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one
        b = self
        while e:
            if e & 1:
                result = result * b
            b = b * b
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        return self ** (f.order - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_base(self) -> bool:
        """True when the element lies in the prime subfield."""
        return not any(self.coeffs[1:])

    def to_text(self) -> str:
        """Wire form: decimal residues, constant term first, comma separated."""
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"{self.field!r}({self.to_text()})"


def _operand_error(f: "Field", other) -> Exception:
    """The error for an operand that is not an element of f; mixing fields
    (embedding included) is left to the caller, e.g. Mat.embed_into."""
    if not isinstance(other, FieldElement):
        return TypeError(f"expected FieldElement, got {type(other).__name__}")
    return FieldMismatchError(f"mixed fields {f!r} and {other.field!r}")


class Field:
    """A field spec GF(q^m) with a fixed monic irreducible modulus.

    Instances are interned: ``GF(q, m)`` always returns the same object,
    so identity comparison is field-spec comparison.
    """

    def __init__(self, q: int, m: int, modulus: tuple[int, ...]):
        if not is_prime(q):
            raise FieldError(f"q={q} is not prime")
        if m < 1:
            raise FieldError(f"extension degree must be >= 1, got {m}")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree m, constant term first")
        if any(not (0 <= c < q) for c in modulus):
            raise FieldError("modulus coefficients must be residues in [0, q)")
        if m > 1 and not is_irreducible(modulus, q):
            raise FieldError(f"modulus {modulus} is reducible over Z_{q}")
        self.q = q
        self.m = m
        self.modulus = tuple(modulus)
        self.order = q ** m
        # Kronecker slot width: slots must hold any convolution coefficient.
        self._slot = max(m * (q - 1) ** 2, 1).bit_length() + 1
        self._mask = (1 << self._slot) - 1
        # alpha^d mod modulus for d in [m, 2m-2], as coefficient tuples
        reduced = (_poly_mod([0] * d + [1], modulus, q) for d in range(m, 2 * m - 1))
        self._red = [tuple(r + [0] * (m - len(r))) for r in reduced]
        self.zero = FieldElement(self, (0,) * m)
        self.one = FieldElement(self, (1,) + (0,) * (m - 1))
        self.alpha = FieldElement(self, (0, 1) + (0,) * (m - 2)) if m >= 2 else self.one

    # -- construction ------------------------------------------------------

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            raise _operand_error(self, value)
        if isinstance(value, int):
            return FieldElement(self, (value % self.q,) + (0,) * (self.m - 1))
        coeffs = tuple(value)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        if any(type(c) is not int or not 0 <= c < self.q for c in coeffs):
            raise FieldError(f"coefficients must be int residues in [0, {self.q}), got {coeffs}")
        return FieldElement(self, coeffs)

    def from_text(self, text: str) -> FieldElement:
        tokens = text.split(",")
        if not all(t.isascii() and t.isdigit() for t in tokens):
            raise FieldError(f"expected comma-separated decimal integers, got {text!r}")
        return self(tuple(int(t) for t in tokens))

    def embed(self, a: FieldElement) -> FieldElement:
        """Embed a prime-subfield element into this field."""
        if a.field is self:
            return a
        if a.field.q != self.q or a.field.m != 1:
            raise FieldMismatchError(f"cannot embed {a.field!r} element into {self!r}")
        return FieldElement(self, (a.coeffs[0],) + (0,) * (self.m - 1))

    # -- arithmetic on coefficient tuples ---------------------------------

    def _mul_coeffs(self, a: FieldElement, b: FieldElement) -> tuple[int, ...]:
        q, m = self.q, self.m
        if m == 1:
            return ((a.coeffs[0] * b.coeffs[0]) % q,)
        prod = a._packed() * b._packed()
        s, mask = self._slot, self._mask
        conv = [(prod >> (s * i)) & mask for i in range(2 * m - 1)]
        out = conv[:m]
        red = self._red
        for d in range(m, 2 * m - 1):
            c = conv[d]
            if c:
                r = red[d - m]
                for i in range(m):
                    ri = r[i]
                    if ri:
                        out[i] += c * ri
        return tuple(v % q for v in out)

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, tuple(rng.randrange(self.q) for _ in range(self.m)))

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.q}^{self.m})"


@functools.lru_cache(maxsize=None)
def _interned_field(q: int, m: int, modulus: tuple[int, ...]) -> Field:
    return Field(q, m, modulus)


def GF(q: int, m: int = 1, modulus: Iterable[int] | None = None) -> Field:
    """Interned field constructor; default modulus is the lex-smallest irreducible."""
    # int only, bool excluded, checked first: the caches key 11.0 and True as 11 and 1
    if type(q) is not int or type(m) is not int:
        raise FieldError(f"q and m must be ints, got q={q!r}, m={m!r}")
    modulus = find_irreducible(q, m) if modulus is None else tuple(modulus)
    if any(type(c) is not int for c in modulus):
        raise FieldError(f"modulus coefficients must be ints, got {modulus}")
    return _interned_field(q, m, modulus)


def frobenius(a: FieldElement, i: int) -> FieldElement:
    """a^(q^i); the i-fold Frobenius map, F_q-linear."""
    out = a
    for _ in range(i % a.field.m):
        out = out ** a.field.q
    return out


def alpha_power_basis(field: Field, n: int) -> list[FieldElement]:
    """1, alpha, ..., alpha^(n-1): linearly independent over the prime subfield.

    Requires n <= m; independence follows from alpha having a degree-m
    minimal polynomial.
    """
    if n > field.m:
        raise FieldError(f"need n <= m for an independent power basis, got n={n}, m={field.m}")
    out = []
    cur = field.one
    for _ in range(n):
        out.append(cur)
        cur = cur * field.alpha
    return out
