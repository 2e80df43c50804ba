"""Exact arithmetic in prime fields GF(q) and extension fields GF(q^m).

An element of GF(q^m) is a coefficient vector over Z_q in the power basis
1, alpha, ..., alpha^(m-1), where alpha is a root of a fixed monic
irreducible modulus.  The modulus is chosen deterministically (the
lexicographically smallest irreducible polynomial, coefficients compared
constant-term-first) so that every exported matrix is bit-reproducible.

No log or multiplication tables, no floating point: all operations are exact.
An element is stored packed, as one integer with coefficient i in Kronecker
slot i, and the coefficient tuple is derived from it on demand.  A sum,
difference, negation or product is one big-integer operation on the packed
operands followed by one reduction, Field._reduce, which reduces the slots
of degree >= m mod the modulus through one Barrett quotient and takes every
slot mod q, many slots per multiply-shift.  A sum has no slot of degree >= m,
so it skips the quotient; a difference first adds q to every slot, so no
slot goes negative.  ``Field.evaluate_plans`` is the one sum of products:
each plan is one bare sum of raw products before that reduction, and the
sums of a plan set reduce together, as blocks of one integer.  DOT_TERMS's
comment states once why every packed sum fits its slots.  The kernel
trusts its operands: Field.check checks each element once, where it enters.
Polynomial lists are long division only; every product mod the modulus is
a packed one.  One Euclid loop, Field._euclid, serves the inverse and
Ben-Or's test.  Inversion runs it against the modulus, not a q^m - 2 power,
once per distinct element: each field keeps a table of the inverses it has
computed, both ways, up to INVERSE_CAP entries.  The modulus check is
Ben-Or's test on the packed ring of the candidate, m/2 rounds of one power
by q and one Euclid, so no step of the modulus search or check grows with q
faster than log q, and neither does is_prime's Miller-Rabin test of q.  GF
refuses m above M_LIMIT, so the check's growth with m is bounded too.
"""
from __future__ import annotations

import functools
from typing import Iterable, Sequence


class FieldError(ValueError):
    """Invalid field parameter or malformed element."""


class FieldMismatchError(FieldError):
    """Operands belong to different field specs."""


PRIME_LIMIT = 3_317_044_064_679_887_385_961_981  # is_prime is exact below it
# the largest extension degree GF accepts: the modulus check grows about as
# m^3 log q and at m = M_LIMIT takes under 1 s even with q near PRIME_LIMIT
M_LIMIT = 24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, exact below PRIME_LIMIT
    (Sorenson and Webster); a larger n raises FieldError."""
    if n >= PRIME_LIMIT:
        raise FieldError(f"q={n} is too large to test for primality exactly")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    # a prime gives x = b^d = 1, or n - 1 among x, x^2, ..., x^(2^(s-1))
    return all((x := pow(b, (n - 1) >> s, n)) == 1
               or any(pow(x, 1 << r, n) == n - 1 for r in range(s)) for b in _MR_BASES)


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Polynomials over Z_q, as coefficient lists, constant term first: long
# division only, for Field._euclid's remainders and _reduce's Barrett
# constant.  Every product mod the modulus is a packed Field operation.
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


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


def is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Ben-Or's test for a monic f of degree m over Z_q (constant term first).

    x^(q^i) - x is the product of the monic irreducibles whose degree divides
    i, and a reducible f has a factor of degree <= m/2, so f is irreducible
    iff gcd(x^(q^i) - x, f) = 1 for every i <= m/2.  Round 1 is a root test.
    Each round powers by q on the packed ring and reads the gcd off
    Field._euclid, which reaches a nonzero constant iff it is 1.
    """
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    # x^(q^i) mod f in the ring Z_q[x]/f, uninterned: it needs no inverse
    f = Field(q, m, coeffs)
    h = f.alpha
    for _ in range(m // 2):
        h = h ** q
        if not f._euclid(h - f.alpha)[0]:
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
    # c0 .. c_(m-1) are the base-q digits of v, most significant first; v
    # starts at q^(m-1) because c0 = 0 would make the candidate divisible by x
    for v in range(q ** (m - 1), q ** m):
        cand = tuple(v // q ** (m - 1 - i) % q for i in range(m)) + (1,)
        if is_irreducible(cand, q):
            return cand
    raise AssertionError("no irreducible polynomial found (impossible)")


# ---------------------------------------------------------------------------
# Field spec and elements
# ---------------------------------------------------------------------------

# Slot capacity, for every packed sum in the library: a slot holds DOT_TERMS
# raw products of top elements (every coefficient q - 1) without carry, and a
# factor negated as slot_q - e (slots in [1, q]) at most doubles a product.
# A plan has at most k <= m <= M_LIMIT steps, as GeneratorSet holds k and m
# to (W, T, B, N): a parity reads at most the k source symbols, a recovery
# k - |lost| received ones and |lost| parities.  decoder._solve's right-hand
# side and oracle_plan's received-symbol sums take at most 2 M_LIMIT + 1
# products' room, a matrix.rref_rows row operation three.
DOT_TERMS = 64
# The most entries a field's inverse table holds: elimination inverts a few
# dozen distinct pivots many times over, and the bound caps a large field.
INVERSE_CAP = 4096


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
        return FieldElement(f, f._reduce(self.pk + other.pk))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._reduce(self.pk + f._slot_q - other.pk))

    def __neg__(self) -> "FieldElement":
        f = self.field
        return FieldElement(f, f._reduce(f._slot_q - self.pk))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            raise _operand_error(f, other)
        return FieldElement(f, f._reduce(self.pk * other.pk))

    def __pow__(self, e: int) -> "FieldElement":
        """Square and multiply from the low bit: e.bit_length() - 1 squarings."""
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one
        b = self
        while e:
            if e & 1:
                result = result * b
            e >>= 1
            if e:
                b = b * b
        return result

    def inverse(self) -> "FieldElement":
        """Field._euclid against the modulus, then one scale by the inverse
        of its final constant c, c^(q-2) by Fermat.  The field's table
        answers a repeat and stores each new inverse both ways while it has
        room; zero raises and is never stored."""
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        inv = f._inv.get(self.pk)
        if inv is not None:
            return FieldElement(f, inv)
        # the modulus is irreducible, so the remainders reach s * self == c != 0
        (c,), s = f._euclid(self)
        inv = f._reduce(s.pk * pow(c, f.q - 2, f.q))
        if len(f._inv) < INVERSE_CAP - 1:  # room for both entries
            f._inv[self.pk] = inv
            f._inv[inv] = self.pk
        return FieldElement(f, inv)

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
    so identity comparison is field-spec comparison.  GF checks the spec;
    the constructor trusts it.  + - * ** are valid in the ring Z_q[x]/f for
    any monic f, as is_irreducible uses them; only inverse needs f
    irreducible.
    """

    def __init__(self, q: int, m: int, modulus: tuple[int, ...]):
        self.q = q
        self.m = m
        self.modulus = tuple(modulus)
        # Kronecker slot width: DOT_TERMS products of m (q-1)^2, (m-1) (q-1)^2
        # more from _reduce, and q.bit_length() spare bits keep a slot below 2^s / q.
        s = ((DOT_TERMS * m + m - 1) * (q - 1) ** 2).bit_length() + q.bit_length()
        self._slot = s
        self._mask = (1 << s) - 1
        self._low = (1 << (s * m)) - 1
        self._width = (2 * m - 1) * s  # _reduce's block: the slots of a raw product
        # q in every slot: subtracting from it keeps each slot non-negative
        self._slot_q = self._pack([q] * m)
        # _reduce's Barrett constants: floor(x^(2m-2) / modulus) and x^m mod it
        self._mu = self._pack(_poly_divmod([0] * (2 * m - 2) + [1], modulus, q)[0])
        self._nf = self._pack([-c % q for c in modulus[:m]])
        self._div = -(-(1 << s) // q)  # _mod_slots: x // q = x c >> s for x < 2^s / q
        self._batch: dict[int, tuple] = {}  # _reduce's masks per block count, lazily
        self._inv: dict[int, int] = {}  # FieldElement.inverse's table, pk to pk
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
            if isinstance(value, bool):  # as in a coefficient tuple, a bool is no int here
                raise FieldError(f"expected an int or coefficients, got {value!r}")
            return FieldElement(self, value % self.q)
        coeffs = tuple(value)
        if len(coeffs) != self.m:
            raise FieldError(f"expected {self.m} coefficients, got {len(coeffs)}")
        if any(type(c) is not int or not 0 <= c < self.q for c in coeffs):
            raise FieldError(f"coefficients must be int residues in [0, {self.q}), got {coeffs}")
        return FieldElement(self, self._pack(coeffs))

    def _euclid(self, a: FieldElement) -> tuple[list[int], FieldElement]:
        """Euclid on the modulus and a, to the first remainder r of degree
        < 1, with s a == r mod the modulus.  r == [c], c != 0, iff a is a
        unit; r == [] otherwise.  Every quotient has degree < m, so the
        Bezout coefficient s stays packed: s0 - quot s1 is one raw sum,
        s0 + (-quot) s1, and one reduction."""
        r0, r1 = list(self.modulus), _poly_trim(list(a.coeffs))
        s0, s1 = 0, 1
        while len(r1) > 1:
            quot, rem = _poly_divmod(r0, r1, self.q)
            r0, r1 = r1, rem
            s0, s1 = s1, self._reduce(s0 + self._pack([-c % self.q for c in quot]) * s1)
        return r1, FieldElement(self, s1)

    def check(self, values: Iterable) -> None:
        """Raise TypeError or FieldMismatchError for the first value not in this field."""
        for v in values:
            if v.__class__ is not FieldElement or v.field is not self:
                raise _operand_error(self, v)

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

    def _reduce(self, v: int, count: int = 1) -> int:
        """Reduce count raw sums of packed products, held as blocks of 2m - 1
        slots (sum b at bit b (2m - 1) s), in the same layout.  Per block the
        high slots mod q are v_h x^m, deg v_h <= m - 2.  With v_h x^m = A f + r
        and x^(2m-2) = mu f + rho for the modulus f, v_h mu = A x^(m-2) +
        (r x^(m-2) - v_h rho) / f, whose last term has degree < m - 2: the
        Barrett quotient A is exact.  r, the low m slots of A nf = -A f_low,
        joins the low slots, then every low slot is taken mod q.  Each product
        puts at most (m-1) (q-1)^2 in a slot within 2m - 2 slots, so no block
        spills.  A sum with no high slot needs only the last step."""
        lo_groups, hi_groups, quot, low = self._batch.get(count) or self._masks(count)
        if v & low != v:
            s = self._slot
            h = (self._mod_slots(v, hi_groups) >> (self.m * s)) & quot
            a = self._mod_slots(((h * self._mu) >> ((self.m - 2) * s)) & quot, lo_groups)
            v = (v & low) + ((a * self._nf) & low)
        return self._mod_slots(v, lo_groups)

    def _mod_slots(self, v: int, groups: tuple) -> int:
        """Each slot x < 2^s / q of the groups mod q, as x - q floor(x c / 2^s):
        x c < 2^(2s), and a group holds every second slot, so each product
        keeps to its 2s bits and its fraction bits to the slot below."""
        c, s = self._div, self._slot
        g0, g1 = groups
        return v - self.q * ((((v & g0) * c >> s) & g0) + (((v & g1) * c >> s) & g1))

    def _masks(self, count: int) -> tuple:
        """_reduce's masks for count blocks, made once.  Each is a geometric
        series in closed form, (2^(nd) - 1) / (2^d - 1) for n terms d bits
        apart, so no loop runs over the slots.  The even slots are taken over
        twice the slots, an even number, and cut to the blocks."""
        s, w = self._slot, self._width
        full = (1 << count * w) - 1  # every slot of every block
        ones = full // ((1 << w) - 1)  # bit 0 of each block
        even = full & self._mask * (((1 << 2 * count * w) - 1) // ((1 << 2 * s) - 1))
        low, high = ones * self._low, full ^ ones * self._low
        quot = ones * ((1 << (s * (self.m - 1))) - 1)  # slots 0 .. m-2 of each block
        self._batch[count] = ((low & even, low & ~even), (high & even, high & ~even), quot, low)
        return self._batch[count]

    def evaluate_plans(self, plans, x) -> list[FieldElement]:
        """Per plan, the sum of coeff * x[pos] over its (pos, coeff) steps:
        the parities of a block or a packet, the symbols a pattern recovers.
        It trusts its operands, which callers check with Field.check.  Each
        plan is one bare sum of raw products, within the slot capacity stated
        at DOT_TERMS; one of more than DOT_TERMS steps raises FieldError.  The
        sums reduce together, once per plan set, as blocks."""
        w, packed, shift = self._width, 0, 0
        for steps in plans:
            if len(steps) > DOT_TERMS:
                raise FieldError(f"a plan of {len(steps)} steps exceeds DOT_TERMS={DOT_TERMS}")
            acc = 0
            for pos, coeff in steps:
                acc += coeff.pk * x[pos].pk
            packed |= acc << shift
            shift += w
        packed = self._reduce(packed, shift // w)
        return [FieldElement(self, (packed >> sh) & self._low) for sh in range(0, shift, w)]

    def random_element(self, rng) -> FieldElement:
        return FieldElement(self, self._pack([rng.randrange(self.q) for _ in range(self.m)]))

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.q}^{self.m})"


@functools.lru_cache(maxsize=None)
def _interned_field(q: int, m: int, modulus: tuple[int, ...]) -> Field:
    return Field(q, m, modulus)


def GF(q: int, m: int = 1, modulus: Iterable[int] | None = None) -> Field:
    """Interned field constructor, the one place a field spec is checked.
    The default modulus is find_irreducible's, already tested; an explicit
    one is checked on every call: q prime, monic of degree m, irreducible."""
    # int only, bool excluded, checked first: the caches key 11.0 and True as 11 and 1
    if type(q) is not int or type(m) is not int:
        raise FieldError(f"q and m must be ints, got q={q!r}, m={m!r}")
    if m > M_LIMIT:
        raise FieldError(f"extension degree m={m} exceeds M_LIMIT={M_LIMIT}")
    if modulus is None:
        return _interned_field(q, m, find_irreducible(q, m))
    modulus = tuple(modulus)
    if any(type(c) is not int for c in modulus):
        raise FieldError(f"modulus coefficients must be ints, got {modulus}")
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
    return _interned_field(q, m, modulus)


def frobenius(a: FieldElement, i: int) -> FieldElement:
    """a^(q^i); the i-fold Frobenius map, F_q-linear."""
    out = a
    for _ in range(i % a.field.m):
        out = out ** a.field.q
    return out

