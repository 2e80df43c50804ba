"""Exact arithmetic in prime fields GF(q) and extension fields GF(q^m).

An element of GF(q^m) is a coefficient vector over Z_q in the power basis
1, alpha, ..., alpha^(m-1), where alpha is a root of a fixed monic
irreducible modulus.  The modulus is chosen deterministically (the
lexicographically smallest irreducible polynomial, coefficients compared
constant-term-first) so that every exported matrix is bit-reproducible.

No tables, no floating point: all operations are exact integer arithmetic.
An element is stored packed, as one integer with coefficient i in Kronecker
slot i, and the coefficient tuple is derived from it on demand.  Addition,
subtraction and negation act on every slot at once with a fixed number of
big-integer operations: add, then subtract q from each slot that holds q or
more, found by a per-slot bias that carries exactly those slots into the
slot's top bit.  A product is one big-integer multiply of the packed
operands followed by one reduction, which folds each slot of degree >= m
back through alpha^d mod the modulus and takes every slot mod q.
``Field.dot`` sums many raw products before that single reduction: slots
are wide enough for DOT_TERMS products, and a longer sum reduces in chunks.
Inversion runs the extended Euclidean algorithm over Z_q[x] against the
modulus, not a q^m - 2 power.
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
    return n >= 2 and _prime_factors(n) == [n]


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Polynomials over Z_q, as coefficient lists, constant term first.
# Used for modulus selection and for the Euclidean inverse; multiplication
# of elements lives in Field.
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _poly_trim(out)


def _poly_sub(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % q
    return _poly_trim(out)


def _poly_divmod(a: Sequence[int], f: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by f; f is trimmed and nonzero, not
    necessarily monic: each step cancels the leading term through the
    inverse of f's leading coefficient."""
    r = list(a)
    df = len(f) - 1
    lead_inv = pow(f[-1], q - 2, q)
    quot = [0] * max(len(r) - df, 0)
    while len(r) - 1 >= df and r:
        c = r[-1] * lead_inv % q
        if c:
            shift = len(r) - 1 - df
            quot[shift] = c
            for i in range(df + 1):
                r[shift + i] = (r[shift + i] - c * f[i]) % q
        r.pop()
    return _poly_trim(quot), _poly_trim(r)


def _poly_mod(a: Sequence[int], f: Sequence[int], q: int) -> list[int]:
    return _poly_divmod(a, f, q)[1]


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
    """The distinct prime factors of n >= 1, ascending, by trial division."""
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
    # cheap screen: a root in Z_q means a linear factor (r = 0: divisible by x)
    for r in range(q):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % q
        if acc == 0:
            return False
    f = list(coeffs)
    x = [0, 1]
    # x^(q^m) == x mod f
    if _poly_sub(_poly_powmod(x, q ** m, f, q), x, q):
        return False
    # gcd(x^(q^(m/p)) - x, f) == 1 for every prime p | m
    for p in _prime_factors(m):
        d = _poly_sub(_poly_powmod(x, q ** (m // p), f, q), x, q)
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

# Raw products a Field.dot accumulates before it reduces; the slot width of
# every field is sized so that this many never carry out of a slot.
DOT_TERMS = 64


class FieldElement:
    """Immutable element of a :class:`Field`, stored packed: coefficient i
    sits in Kronecker slot i of the integer ``pk``."""

    __slots__ = ("field", "pk")

    def __init__(self, field: "Field", pk: int):
        self.field = field
        self.pk = pk

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients in the power basis, constant term first."""
        s, mask, pk = self.field._slot, self.field._mask, self.pk
        return tuple((pk >> (s * i)) & mask for i in range(self.field.m))

    def __bool__(self) -> bool:
        return self.pk != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field is other.field and self.pk == other.pk
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.pk))

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._wrap(self.pk + other.pk))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._wrap(self.pk + f._slot_q - other.pk))

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(f, f._wrap(f._slot_q - self.pk))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._reduce(self.pk * other.pk))

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
        """Extended Euclid over Z_q[x] against the modulus; the final
        constant (the element itself in GF(q)) is inverted by Fermat."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        q = f.q
        # invariant: s_i * self == r_i mod the modulus; the modulus is
        # irreducible, so the remainders reach a nonzero constant
        r0, r1 = list(f.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [1]
        while len(r1) > 1:
            quot, rem = _poly_divmod(r0, r1, q)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(quot, s1, q), q)
        c = pow(r1[0], q - 2, q)
        return FieldElement(f, f._pack([v * c % q for v in s1]))

    def is_base(self) -> bool:
        """True when the element lies in the prime subfield."""
        return self.pk >> self.field._slot == 0

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
        if not is_irreducible(modulus, q):
            raise FieldError(f"modulus {modulus} is reducible over Z_{q}")
        self.q = q
        self.m = m
        self.modulus = tuple(modulus)
        self.order = q ** m
        # Kronecker slot width.  A raw product puts at most m (q-1)^2 in a
        # slot, a dot sums DOT_TERMS of them, and _reduce's fold adds up to
        # (m-1) (q-1)^2 more to each low slot: the slot holds all of it.
        s = ((DOT_TERMS * m + m - 1) * (q - 1) ** 2).bit_length()
        self._slot = s
        self._mask = (1 << s) - 1
        self._low = (1 << (s * m)) - 1
        self._shifts = tuple(range(s * (m - 1), -1, -s))
        # per slot: q, the bias that lifts q to the slot's top bit, that bit
        self._slot_q = self._pack([q] * m)
        self._bias = self._pack([(1 << (s - 1)) - q] * m)
        self._top = self._pack([1 << (s - 1)] * m)
        # alpha^d mod modulus for d in [m, 2m-2], packed
        self._red = [self._pack(_poly_mod([0] * d + [1], modulus, q)) for d in range(m, 2 * m - 1)]
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.alpha = FieldElement(self, 1 << s) if m >= 2 else self.one

    # -- construction ------------------------------------------------------

    def __call__(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is self:
                return value
            raise _operand_error(self, value)
        if isinstance(value, int):
            return FieldElement(self, value % self.q)
        coeffs = tuple(value)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        if any(type(c) is not int or not 0 <= c < self.q for c in coeffs):
            raise FieldError(f"coefficients must be int residues in [0, {self.q}), got {coeffs}")
        return FieldElement(self, self._pack(coeffs))

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
        return FieldElement(self, a.pk)

    # -- arithmetic on packed integers ------------------------------------

    def _pack(self, coeffs: Sequence[int]) -> int:
        """Coefficient i into slot i; missing high coefficients are zero."""
        s, pk = self._slot, 0
        for c in reversed(coeffs):
            pk = (pk << s) | c
        return pk

    def _wrap(self, v: int) -> int:
        """Subtract q from every slot of v that holds q to 2q - 1.  The bias
        carries exactly those slots into their top bit."""
        return v - (((v + self._bias) & self._top) >> (self._slot - 1)) * self.q

    def _reduce(self, v: int) -> int:
        """The packed element of a sum of raw packed products: each slot
        d >= m folds back, mod q, through alpha^d mod the modulus, then
        every low slot is taken mod q."""
        q, s, mask = self.q, self._slot, self._mask
        lo, hi = v & self._low, v >> (s * self.m)
        for r in self._red:
            if not hi:
                break
            c = (hi & mask) % q
            if c:
                lo += c * r
            hi >>= s
        out = 0
        for sh in self._shifts:
            out = (out << s) | ((lo >> sh) & mask) % q
        return out

    def dot(self, pairs: Iterable[tuple[FieldElement, FieldElement]]) -> FieldElement:
        """Sum of a * b over the pairs, with one reduction per DOT_TERMS
        products: the raw products add up slot by slot, carry-free."""
        acc = n = 0
        for a, b in pairs:
            if a.__class__ is not FieldElement or a.field is not self:
                raise _operand_error(self, a)
            if b.__class__ is not FieldElement or b.field is not self:
                raise _operand_error(self, b)
            if n == DOT_TERMS:
                # the reduced sum takes one product's room in each slot
                acc, n = self._reduce(acc), 1
            acc += a.pk * b.pk
            n += 1
        return FieldElement(self, self._reduce(acc))

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, self._pack([rng.randrange(self.q) for _ in range(self.m)]))

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
