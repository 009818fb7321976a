"""Exact arithmetic in cyclotomic fields Q(zeta_M).

Scalars are represented in the canonical basis 1, zeta, ..., zeta^(phi(M)-1)
modulo the M-th cyclotomic polynomial, with arbitrary-precision rational
coefficients.  Reduction mod Phi_M (rather than mod x^M - 1) makes equality
testing canonical: two scalars over the same modulus are equal iff their
coefficient vectors are equal.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
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

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """Reduction rows x^e mod Phi_m for e < max(m, 2*phi-1), as Fraction tuples."""
    phi = euler_phi(m)
    mod = cyclotomic_polynomial(m)
    # x^phi = -(mod[0] + ... + mod[phi-1] x^(phi-1))
    top = tuple(Fraction(-c) for c in mod[:phi])
    rows: list[tuple[Fraction, ...]] = []
    for e in range(phi):
        rows.append(tuple(_ONE if i == e else _ZERO for i in range(phi)))
    need = max(m, 2 * phi - 1)
    for _ in range(phi, need):
        prev = rows[-1]
        shifted = [_ZERO] + list(prev[:-1])
        lead = prev[-1]
        if lead:
            for i in range(phi):
                shifted[i] += lead * top[i]
        rows.append(tuple(shifted))
    return phi, rows


@lru_cache(maxsize=None)
def _trace_weights(m: int) -> tuple[Fraction, ...]:
    """Tr(zeta_m^e)/phi(m) for e < phi(m).  zeta_m^e is a primitive f-th root
    of unity, f = m/gcd(e, m), so the weight is moebius(f)/phi(f)."""
    out = []
    for e in range(euler_phi(m)):
        f = m // math.gcd(e, m)
        fac = _factorize(f)
        moebius = 0 if any(k > 1 for k in fac.values()) else (-1) ** len(fac)
        out.append(Fraction(moebius, euler_phi(f)))
    return tuple(out)


class CycScalar:
    """An exact element of Q(zeta_m)."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs):
        phi = euler_phi(m)
        c = tuple(Fraction(x) for x in coeffs)
        if len(c) != phi:
            raise ValueError(f"expected {phi} coefficients for modulus {m}, got {len(c)}")
        self.m = m
        self.c = c

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(x, m: int = 1) -> "CycScalar":
        phi = euler_phi(m)
        return CycScalar(m, (Fraction(x),) + (_ZERO,) * (phi - 1))

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
        phi2, rows2 = _field_data(m2)
        acc = [_ZERO] * phi2
        for e, coeff in enumerate(self.c):
            if coeff:
                row = rows2[(e * step) % m2]
                for i in range(phi2):
                    if row[i]:
                        acc[i] += coeff * row[i]
        return CycScalar(m2, acc)

    def _pair(self, other):
        if isinstance(other, CycScalar):
            if other.m == self.m:
                return self, other
            if other.m == 1:
                return self, CycScalar.from_rational(other.c[0], self.m)
            if self.m == 1:
                return CycScalar.from_rational(self.c[0], other.m), other
            m = self.m * other.m // math.gcd(self.m, other.m)
            return self.embed(m), other.embed(m)
        if isinstance(other, (int, Fraction)):
            return self, CycScalar.from_rational(other, self.m)
        return NotImplemented, None

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycScalar(a.m, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycScalar(a.m, tuple(x - y for x, y in zip(a.c, b.c)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycScalar(self.m, tuple(-x for x in self.c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycScalar(self.m, tuple(x * f for x in self.c))
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        if b.is_rational():
            f = b.c[0]
            return CycScalar(a.m, tuple(x * f for x in a.c))
        if a.is_rational():
            f = a.c[0]
            return CycScalar(a.m, tuple(x * f for x in b.c))
        phi, rows = _field_data(a.m)
        prod = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.c):
            if x:
                for j, y in enumerate(b.c):
                    if y:
                        prod[i + j] += x * y
        acc = list(prod[:phi])
        for e in range(phi, 2 * phi - 1):
            coeff = prod[e]
            if coeff:
                row = rows[e]
                for i in range(phi):
                    if row[i]:
                        acc[i] += coeff * row[i]
        return CycScalar(a.m, acc)

    __rmul__ = __mul__

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return CycScalar.from_rational(1 / self.c[0], self.m)
        mod = [Fraction(x) for x in cyclotomic_polynomial(self.m)]
        # extended gcd of self (as polynomial) and Phi_m over Q[x]
        r0, r1 = mod, list(self.c)
        s0, s1 = [_ZERO], [_ONE]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i]:
                    return i
            return -1

        while True:
            d1 = deg(r1)
            if d1 <= 0:
                break
            d0 = deg(r0)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            f = r0[d0] / r1[d1]
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] -= f * r1[i]
            s1p = [_ZERO] * shift + s1
            if len(s0) < len(s1p):
                s0 = s0 + [_ZERO] * (len(s1p) - len(s0))
            for i in range(len(s1p)):
                s0[i] -= f * s1p[i]
        if deg(r1) != 0:
            raise DivisionByZero("not invertible (unexpected for a field)")
        unit = r1[0]
        phi = euler_phi(self.m)
        out = [_ZERO] * phi
        for i, x in enumerate(s1):
            if i < phi:
                out[i] = x / unit
            elif x:
                raise ArithmeticError("xgcd cofactor degree overflow")
        return CycScalar(self.m, out)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int) -> "CycScalar":
        if k == 0:
            return self.one()
        base = self if k > 0 else self.inv()
        k = abs(k)
        out = None
        while k:
            if k & 1:
                out = base if out is None else out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    def is_rational(self) -> bool:
        return all(x == 0 for x in self.c[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.c[0]

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.c[0] == other
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._pair(other)
        return a.c == b.c

    def __hash__(self):
        # hash the normalised trace Tr(x)/phi(m): embedding into a larger
        # modulus leaves it unchanged (values equal across moduli hash alike),
        # and for a rational it is the rational itself
        return hash(sum(x * w for x, w in zip(self.c, _trace_weights(self.m)) if x))

    def key(self):
        """Canonical sort/identity key within a fixed modulus."""
        return (self.m, self.c)

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
                return (x.c[0], k, L)
            x = x * zinv
        return None

    # -- serialization ------------------------------------------------

    def __repr__(self):
        return self.serialize()

    def serialize(self) -> str:
        body = ", ".join(str(x) for x in self.c)
        return f"cyc({self.m}; {body})"


def root_of_unity(m: int, k: int) -> CycScalar:
    """zeta_m^k in canonical form."""
    if m < 1:
        raise ValueError("modulus must be positive")
    phi, rows = _field_data(m)
    return CycScalar(m, rows[k % m])


def rational(x, m: int = 1) -> CycScalar:
    return CycScalar.from_rational(x, m)


def common_modulus(*orders: int) -> int:
    out = 1
    for o in orders:
        out = out * o // math.gcd(out, o)
    return out


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
