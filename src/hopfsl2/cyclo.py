"""Exact arithmetic in cyclotomic fields Q(zeta_M).

A scalar is a vector of integer numerators over one positive common
denominator, in the canonical basis 1, zeta, ..., zeta^(phi(M)-1) modulo the
M-th cyclotomic polynomial (the representation of FLINT's ``fmpq_poly``).  It
is kept in normal form: gcd(numerators, denominator) = 1, and zero is
(0, ..., 0)/1.  Reduction mod Phi_M (rather than mod x^M - 1) makes equality
testing canonical: two scalars over the same modulus are equal iff their
numerators and denominators are equal.  Phi_M is monic with integer
coefficients, so products reduce in the integers and only the final gcd pass
divides.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "CycScalar",
    "DivisionByZero",
    "IncompatibleModulus",
    "ParseError",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "rational",
    "common_modulus",
    "parse_scalar",
]


class DivisionByZero(ZeroDivisionError):
    pass


class IncompatibleModulus(ValueError):
    pass


class ParseError(ValueError):
    pass


def _factorize(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("modulus must be positive")
    out = 1
    for p, e in _factorize(m).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(m: int) -> list[int]:
    out = [1]
    for p, e in _factorize(m).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, little-endian coefficients
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        c //= den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_m, little-endian."""
    if m == 1:
        return (-1, 1)
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            poly = _int_poly_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _field_data(m: int):
    """Reduction rows x^e mod Phi_m for e < max(m, 2*phi-1), as int tuples
    (Phi_m is monic with integer coefficients), and x^phi mod Phi_m as its
    nonzero (index, coefficient) pairs."""
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    # x^phi = -(mod[0] + ... + mod[phi-1] x^(phi-1))
    top = tuple(-c for c in mod[:phi])
    wrap = tuple((i, c) for i, c in enumerate(top) if c)
    rows: list[tuple[int, ...]] = []
    for e in range(phi):
        rows.append(tuple(1 if i == e else 0 for i in range(phi)))
    need = max(m, 2 * phi - 1)
    for _ in range(phi, need):
        prev = rows[-1]
        shifted = [0] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(phi):
                shifted[i] += lead * top[i]
        rows.append(tuple(shifted))
    return phi, rows, wrap


@lru_cache(maxsize=None)
def _trace_weights(m: int) -> tuple[tuple[int, ...], int]:
    """Tr(zeta_m^e)/phi(m) for e < phi(m), as integer numerators over one
    common denominator.  zeta_m^e is a primitive f-th root of unity,
    f = m/gcd(e, m), so the weight is moebius(f)/phi(f)."""
    weights = []
    for e in range(euler_phi(m)):
        f = m // math.gcd(e, m)
        fac = _factorize(f)
        moebius = 0 if any(k > 1 for k in fac.values()) else (-1) ** len(fac)
        weights.append(Fraction(moebius, euler_phi(f)))
    den = math.lcm(*(w.denominator for w in weights))
    return tuple(w.numerator * (den // w.denominator) for w in weights), den


def _power(x, k: int, mul=operator.mul):
    """x^k for k >= 1 by left-to-right binary powering: a squaring for each
    bit after the leading one, then a product by x for each set bit."""
    out = x
    for bit in bin(k)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


class _ScalarOps:
    """The operators both scalar types (CycScalar, extfield.ExtScalar) derive
    from their own _pair, +, neg, *, inv, one and is_zero.  Those primitives
    stay in each class body, where perfbench/tracer.py wraps them."""

    __slots__ = ()

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k == 0:
            return self.one()
        return _power(self if k > 0 else self.inv(), abs(k))

    def __bool__(self):
        return not self.is_zero()


def _scalar(m: int, num: tuple[int, ...], den: int) -> "CycScalar":
    """Trusted constructor for results computed in this module: num holds
    phi(m) ints and den > 0.  Divides out gcd(num, den), nothing else."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([x // g for x in num])
            den //= g
    out = object.__new__(CycScalar)
    out.m = m
    out.num = num
    out.den = den
    return out


def _rational(m: int, p: int, q: int) -> "CycScalar":
    """p/q in Q(zeta_m), for coprime p and q > 0 (the fields of a Fraction)."""
    out = object.__new__(CycScalar)
    out.m = m
    out.num = (p,) + (0,) * (euler_phi(m) - 1)
    out.den = q
    return out


class CycScalar(_ScalarOps):
    """An exact element of Q(zeta_m): integer numerators ``num`` in the basis
    1, zeta_m, ..., zeta_m^(phi(m)-1) over the common denominator ``den``,
    with den > 0 and gcd(num, den) = 1."""

    __slots__ = ("m", "num", "den")

    def __init__(self, m: int, coeffs):
        phi = euler_phi(m)
        c = [Fraction(x) for x in coeffs]
        if len(c) != phi:
            raise ValueError(f"expected {phi} coefficients for modulus {m}, got {len(c)}")
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so this is already the normal form
        den = math.lcm(*(x.denominator for x in c))
        self.m = m
        self.num = tuple(x.numerator * (den // x.denominator) for x in c)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x, m: int = 1) -> "CycScalar":
        f = x if isinstance(x, int) else Fraction(x)
        return _rational(m, f.numerator, f.denominator)

    def zero(self) -> "CycScalar":
        return CycScalar.from_rational(0, self.m)

    def one(self) -> "CycScalar":
        return CycScalar.from_rational(1, self.m)

    # -- embedding ----------------------------------------------------

    def embed(self, m2: int) -> "CycScalar":
        """Image under the canonical embedding Q(zeta_m) -> Q(zeta_m2)."""
        if m2 == self.m:
            return self
        if m2 % self.m != 0:
            raise IncompatibleModulus(f"{m2} is not a multiple of {self.m}")
        step = m2 // self.m
        phi2, rows2, _wrap = _field_data(m2)
        acc = [0] * phi2
        for e, x in enumerate(self.num):
            if x:
                for i, r in enumerate(rows2[(e * step) % m2]):
                    if r:
                        acc[i] += x * r
        return _scalar(m2, tuple(acc), self.den)

    def _pair(self, other):
        if isinstance(other, CycScalar):
            if other.m == self.m:
                return self, other
            if other.m == 1:
                return self, _rational(self.m, other.num[0], other.den)
            if self.m == 1:
                return _rational(other.m, self.num[0], self.den), other
            m = math.lcm(self.m, other.m)
            return self.embed(m), other.embed(m)
        if isinstance(other, (int, Fraction)):
            return self, _rational(self.m, other.numerator, other.denominator)
        return NotImplemented, None

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _scalar(a.m, tuple([x + y for x, y in zip(a.num, b.num)]), da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _scalar(a.m, tuple([x * fa + y * fb for x, y in zip(a.num, b.num)]), den)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a.den, b.den
        if da == db:
            return _scalar(a.m, tuple([x - y for x, y in zip(a.num, b.num)]), da)
        den = math.lcm(da, db)
        fa, fb = den // da, den // db
        return _scalar(a.m, tuple([x * fa - y * fb for x, y in zip(a.num, b.num)]), den)

    def __neg__(self):
        return _scalar(self.m, tuple([-x for x in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, CycScalar):
            a, b = (self, other) if other.m == self.m else self._pair(other)
        elif isinstance(other, (int, Fraction)):
            p = other.numerator
            return _scalar(self.m, tuple([x * p for x in self.num]), self.den * other.denominator)
        else:
            return NotImplemented
        an, bn = a.num, b.num
        # a rational factor scales the numerators; the factor 1 (most products
        # of the algebra layer) returns the other one as it is
        if not any(bn[1:]):
            p = bn[0]
            if p == 1 and b.den == 1:
                return a
            return _scalar(a.m, tuple([x * p for x in an]), a.den * b.den)
        if not any(an[1:]):
            p = an[0]
            if p == 1 and a.den == 1:
                return b
            return _scalar(a.m, tuple([x * p for x in bn]), a.den * b.den)
        phi, _rows, wrap = _field_data(a.m)
        bnz = [(j, y) for j, y in enumerate(bn) if y]
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in bnz:
                    prod[i + j] += x * y
        # fold the top degree down with x^phi = sum over wrap of c x^i
        for e in range(2 * phi - 2, phi - 1, -1):
            x = prod[e]
            if x:
                for i, c in wrap:
                    prod[e - phi + i] += x * c
        return _scalar(a.m, tuple(prod[:phi]), a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m, num, den = self.m, self.num, self.den
        if self.is_rational():
            p = num[0]
            return _rational(m, den, p) if p > 0 else _rational(m, -den, -p)
        # num(x)^-1 mod Phi_m solves A y = e_0, where column j of A is
        # num(x) * x^j mod Phi_m.  Fraction-free Gauss-Jordan (every division
        # by the previous pivot is exact) leaves the last pivot P on the whole
        # diagonal and P*y in the last column, so self^-1 = den * y.
        phi, _rows, wrap = _field_data(m)
        cols = []
        v = list(num)
        for _ in range(phi):
            cols.append(v)
            lead = v[-1]
            v = [0] + v[:-1]
            if lead:
                for i, r in wrap:
                    v[i] += lead * r
        a = [[col[i] for col in cols] + [1 if i == 0 else 0] for i in range(phi)]
        prev = 1
        for k in range(phi):
            if not a[k][k]:
                for r in range(k + 1, phi):
                    if a[r][k]:
                        a[k], a[r] = a[r], a[k]
                        break
                else:
                    raise DivisionByZero("not invertible (unexpected for a field)")
            rk = a[k]
            piv = rk[k]
            for i in range(phi):
                if i == k:
                    continue
                ri = a[i]
                f = ri[k]
                for j in range(k + 1, phi + 1):
                    ri[j] = (piv * ri[j] - f * rk[j]) // prev
                ri[k] = 0
            prev = piv
        if prev < 0:
            return _scalar(m, tuple([-den * row[phi] for row in a]), -prev)
        return _scalar(m, tuple([den * row[phi] for row in a]), prev)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, CycScalar):
            a, b = self._pair(other)
            return a.num == b.num and a.den == b.den
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational()
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # hash the normalised trace Tr(x)/phi(m): embedding into a larger
        # modulus leaves it unchanged (values equal across moduli hash alike),
        # and for a rational it is the rational itself
        weights, wden = _trace_weights(self.m)
        return hash(Fraction(sum(x * w for x, w in zip(self.num, weights) if x), wden * self.den))

    def coefficients(self) -> tuple[Fraction, ...]:
        """The coordinates in the basis 1, zeta_m, ..., as Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    def key(self):
        """Canonical sort/identity key within a fixed modulus."""
        return (self.m, self.coefficients())

    # -- root-of-unity structure ---------------------------------------

    def multiplicative_order(self):
        """Smallest r with self**r == 1, or None if not a root of unity."""
        if self.is_zero():
            raise DivisionByZero("order of zero")
        bound = self.m if self.m % 2 == 0 else 2 * self.m
        if self ** bound != 1:
            return None
        for d in divisors(bound):
            if self**d == 1:
                return d
        return bound

    def as_rational_multiple_of_root(self):
        """Decompose self as (r, k, L) with self = r * zeta_L^k, r rational.

        L = lcm(2, m).  Returns None when self is not of this form.
        """
        if self.is_zero():
            return (Fraction(0), 0, 1)
        L = self.m if self.m % 2 == 0 else 2 * self.m
        x = self.embed(L) if L != self.m else self
        zinv = root_of_unity(L, -1)
        for k in range(L):
            if x.is_rational():
                return (x.as_fraction(), k, L)
            x = x * zinv
        return None

    # -- serialization ------------------------------------------------

    def __repr__(self):
        return self.serialize()

    def serialize(self) -> str:
        body = ", ".join(str(x) for x in self.coefficients())
        return f"cyc({self.m}; {body})"


def root_of_unity(m: int, k: int) -> CycScalar:
    """zeta_m^k in canonical form."""
    if m < 1:
        raise ValueError("modulus must be positive")
    _phi, rows, _wrap = _field_data(m)
    return _scalar(m, rows[k % m], 1)


def rational(x, m: int = 1) -> CycScalar:
    return CycScalar.from_rational(x, m)


def common_modulus(*orders: int) -> int:
    return math.lcm(*orders)


def nth_root_of_unity_multiple(x: CycScalar, d: int):
    """An exact d-th root of x when x = r * zeta^k with r a rational d-th power.

    The root is returned in Q(zeta_{dL}); None when no such root is found.
    """
    dec = x.as_rational_multiple_of_root()
    if dec is None:
        return None
    r, k, L = dec
    root_r = _rational_nth_root(r, d)
    if root_r is None:
        return None
    return rational(root_r) * root_of_unity(d * L, k)


def _rational_nth_root(r: Fraction, d: int):
    if r == 0:
        return Fraction(0)
    sign = 1
    if r < 0:
        if d % 2 == 0:
            return None
        sign = -1
        r = -r
    p = _int_nth_root(r.numerator, d)
    q = _int_nth_root(r.denominator, d)
    if p is None or q is None:
        return None
    return Fraction(sign * p, q)


def _int_nth_root(x: int, d: int):
    if x in (0, 1):
        return x
    lo, hi = 1, 1
    while hi**d < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**d == x else None


def parse_scalar(text: str) -> CycScalar:
    """Parse the `cyc(M; c0, c1, ...)` serialization (bit-exact round trip)."""
    s = text.strip()
    if not (s.startswith("cyc(") and s.endswith(")")):
        raise ParseError(f"not a cyc(...) literal: {text!r}")
    body = s[4:-1]
    try:
        head, coeffs = body.split(";", 1)
        m = int(head.strip())
        parts = [p.strip() for p in coeffs.split(",")]
        return CycScalar(m, [Fraction(p) for p in parts])
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad cyc(...) literal {text!r}: {exc}") from None
