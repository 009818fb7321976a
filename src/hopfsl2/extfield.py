"""Minimal algebraic-extension tower over the cyclotomic scalars.

Some simple-module parameters (the k-seeds of the n-dimensional simples) are
roots of a degree-n polynomial that need not lie in any cyclotomic field
(e.g. k^3 = -2).  This module provides F[s]/(f) for a monic f over an
existing scalar field, nested as needed, so that module construction and
trace decomposition stay exact.

Scalars follow the same small protocol as CycScalar: +, -, *, neg, inv,
is_zero, zero, one, key.  The derived operators (reflected -, /, ** and
truth) are shared with CycScalar through their common base in cyclo.

The field rule.  Character data (g1, gamma2, gamma3, mu, q, beta) lies in
Q(zeta_M) and enters through AlgebraParams.scalar; a tower comes in only
through a k-seed and the module matrices built from it.  Scalars move
between fields only through the movers below: lift (up into a field that
holds x), read_in (into a given field, up or down through tower constants),
field_zero (the one tower among several scalars) and base_constant (the
Q(zeta_M) value of a tower constant).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclo import (
    CycScalar,
    DivisionByZero,
    _rational_nth_root,
    _ScalarOps,
    nth_root_of_unity_multiple,
    rational,
    root_of_unity,
)

__all__ = [
    "Tower", "ExtScalar", "lift", "read_in", "field_zero", "base_constant", "coordinates", "poly_eval",
    "find_field_roots", "split_roots",
]


_TOWER_CACHE: dict = {}


class Tower:
    """The field base[s]/(minpoly); base scalars are CycScalar or ExtScalar.

    Use Tower.make so that equal minimal-polynomial data yields the *same*
    Tower object (scalars from independently-run computations then mix).
    """

    __slots__ = ("minpoly", "degree", "_base_sample", "_key")

    @staticmethod
    def make(minpoly) -> "Tower":
        tower = Tower(minpoly)
        return _TOWER_CACHE.setdefault(tower.key(), tower)

    def __init__(self, minpoly):
        mp = tuple(minpoly)  # monic, little-endian, length d+1, base scalars
        if len(mp) < 3:
            raise ValueError("extension degree must be at least 2")
        if mp[-1] != mp[-1].one():
            raise ValueError("minimal polynomial must be monic")
        self.minpoly = mp
        self.degree = len(mp) - 1
        self._base_sample = mp[0].zero()
        self._key = ("tower", tuple(c.key() for c in mp))

    def key(self):
        return self._key

    def base_zero(self):
        return self._base_sample

    def lift(self, x) -> "ExtScalar":
        """Embed a scalar of the base (or a lower level) as a constant."""
        if isinstance(x, ExtScalar) and x.tower is self:
            return x
        z = self._base_sample
        return ExtScalar(self, (lift(x, z),) + (z,) * (self.degree - 1))

    def gen(self) -> "ExtScalar":
        z = self._base_sample
        return ExtScalar(self, (z, z.one()) + (z,) * (self.degree - 2))


class ExtScalar(_ScalarOps):
    __slots__ = ("tower", "c")

    def __init__(self, tower: Tower, coeffs):
        c = tuple(coeffs)
        if len(c) != tower.degree:
            raise ValueError("coefficient length mismatch")
        self.tower = tower
        self.c = c

    def zero(self):
        z = self.tower.base_zero()
        return ExtScalar(self.tower, (z,) * self.tower.degree)

    def one(self):
        z = self.tower.base_zero()
        return ExtScalar(self.tower, (z.one(),) + (z,) * (self.tower.degree - 1))

    def _pair(self, other):
        if isinstance(other, ExtScalar) and other.tower is self.tower:
            return self, other
        return self, self.tower.lift(other)

    def __add__(self, other):
        a, b = self._pair(other)
        return ExtScalar(a.tower, tuple(x + y for x, y in zip(a.c, b.c)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return ExtScalar(a.tower, tuple(x - y for x, y in zip(a.c, b.c)))

    def __neg__(self):
        return ExtScalar(self.tower, tuple(-x for x in self.c))

    def __mul__(self, other):
        a, b = self._pair(other)
        d = a.tower.degree
        zero = a.tower.base_zero()
        prod = _poly_mul(a.c, b.c, zero)
        mp = a.tower.minpoly
        for e in range(2 * d - 2, d - 1, -1):
            coeff = prod[e]
            if not coeff.is_zero():
                prod[e] = zero
                for i in range(d):
                    if not mp[i].is_zero():
                        prod[e - d + i] = prod[e - d + i] - coeff * mp[i]
        return ExtScalar(a.tower, prod[:d])

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # r = t * self mod minpoly; a zero r leaves the gcd, a proper factor
        _gcd, r, t = _euclid(self.tower.minpoly, self.c)
        if not r:
            raise DivisionByZero("zero divisor: extension polynomial is reducible")
        u = r[0].inv()
        d = self.tower.degree
        if not all(x.is_zero() for x in t[d:]):
            raise ArithmeticError("xgcd cofactor degree overflow")
        return ExtScalar(self.tower, [x * u for x in t[:d]] + [self.tower.base_zero()] * (d - len(t)))

    def is_zero(self):
        return all(x.is_zero() for x in self.c)

    def is_constant(self):
        return all(x.is_zero() for x in self.c[1:])

    def constant_part(self):
        if not self.is_constant():
            raise ValueError("not a base-field constant")
        return self.c[0]

    def __eq__(self, other):
        try:
            a, b = self._pair(other)
        except TypeError:
            return NotImplemented
        return all((x - y).is_zero() for x, y in zip(a.c, b.c))

    def __hash__(self):
        # a constant equals its base value, so it hashes as that value does
        if self.is_constant():
            return hash(self.c[0])
        return hash(self.key())

    def key(self):
        return (self.tower.key(), tuple(c.key() for c in self.c))

    def __repr__(self):
        return "ext[" + ", ".join(repr(x) for x in self.c) + "]"


# -- moving scalars between fields ----------------------------------------


def lift(x, zero):
    """The image of x in the field of `zero`.

    Raises IncompatibleModulus for a cyclotomic x whose modulus does not
    divide that field's, and TypeError for an x in a tower it lacks.
    """
    if isinstance(zero, ExtScalar):
        return zero.tower.lift(x)
    if isinstance(x, CycScalar):
        return x.embed(zero.m)
    if isinstance(x, ExtScalar):
        raise TypeError("cannot lower an extension scalar into a cyclotomic field")
    return rational(x, zero.m)


def read_in(x, zero):
    """x in the field of `zero`: lifted when x's own field lies below it, else
    read down through tower constants until it does.

    Raises TypeError when x is not such a constant, and IncompatibleModulus
    for a cyclotomic value whose modulus does not divide that field's.
    """
    while True:
        try:
            return lift(x, zero)
        except TypeError:
            if not (isinstance(x, ExtScalar) and x.is_constant()):
                raise TypeError("not a constant of the target field") from None
            x = x.c[0]


def field_zero(zero, *scalars):
    """Zero of the one tower among `zero` and `scalars`, else `zero` itself.

    Raises TypeError when two distinct towers mix.
    """
    tower = zero.tower if isinstance(zero, ExtScalar) else None
    for s in scalars:
        if isinstance(s, ExtScalar) and s.tower is not tower:
            if tower is not None:
                raise TypeError("mixing distinct extension towers")
            tower = s.tower
    return zero if tower is None else tower.lift(0)


def base_constant(x) -> CycScalar:
    """The Q(zeta_M) value of a tower constant (ValueError for a non-constant)."""
    while isinstance(x, ExtScalar):
        x = x.constant_part()
    return x


def coordinates(*xs: ExtScalar) -> tuple[list[int], int]:
    """The rational coordinates of tower scalars in their towers' power
    bases over Q, one scalar after another, as (numerators, common
    denominator).

    The basis is the products s^e t^f ... zeta^g of the generators of every
    level down to Q(zeta_M), coefficient-major: the coordinates of x.c[0]
    come first.  Each Q(zeta_M) coefficient is read at the tower's base
    modulus.  Raises ValueError when a coefficient is not an element of its
    level's base as stored (another tower, or a coefficient tuple of the
    wrong length), and IncompatibleModulus for a cyclotomic coefficient
    whose modulus does not divide the base modulus.
    """
    parts: list = []
    for x in xs:
        if not isinstance(x, ExtScalar):
            raise ValueError("not a tower scalar")
        _coordinate_parts(x, x.tower, parts)
    den = math.lcm(*(d for _, d in parts))
    return [c * (den // d) for num, d in parts for c in num], den


def _coordinate_parts(x, tower: Tower, parts: list) -> None:
    """Append the (numerators, denominator) of each Q(zeta_M) coefficient
    of x, an element of `tower`, to `parts`."""
    if not isinstance(x, ExtScalar) or x.tower is not tower or len(x.c) != tower.degree:
        raise ValueError("not an element of the tower as stored")
    base = tower.base_zero()
    if isinstance(base, ExtScalar):
        for c in x.c:
            _coordinate_parts(c, base.tower, parts)
        return
    for c in x.c:
        if not isinstance(c, CycScalar):
            raise ValueError("not an element of the tower as stored")
        c = c.embed(base.m)
        parts.append((c.num, c.den))


# -- polynomial root machinery over a scalar field -----------------------


def poly_eval(coeffs, x):
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return acc


def _cyc_candidates(coeffs):
    """Root candidates (rational multiples of roots of unity) over Q(zeta)."""
    cands = []
    seen = set()

    def push(x):
        k = x.key()
        if k not in seen:
            seen.add(k)
            cands.append(x)

    zero = coeffs[0].zero()
    push(zero)
    if coeffs[0].is_zero():
        return cands
    deg = len(coeffs) - 1
    inv = coeffs[-1].inv()
    ratio = coeffs[0] * inv  # product of roots up to sign
    dec = ratio.as_rational_multiple_of_root()
    if dec is None:
        return cands
    r, _k, L = dec
    mags = {Fraction(1), abs(r)}
    for d in range(2, deg + 1):
        root = _rational_nth_root(abs(r), d)
        if root is not None:
            mags.add(root)
    for mag in sorted(mags):
        for k in range(L):
            z = root_of_unity(L, k) * mag
            push(z)
            push(-z)
    # pure binomial x^deg - c: exact radical candidates (with unit multiples)
    if all(c.is_zero() for c in coeffs[1:-1]):
        c0 = -coeffs[0] * inv
        base = nth_root_of_unity_multiple(c0, deg)
        if base is not None:
            for j in range(deg):
                push(base * root_of_unity(deg, j))
    # quadratic: discriminant square root
    if deg == 2:
        b = coeffs[1] * inv
        c = coeffs[0] * inv
        disc = b * b - c * 4
        s = nth_root_of_unity_multiple(disc, 2)
        if s is not None:
            half = Fraction(1, 2)
            push((s - b) * half)
            push((-s - b) * half)
    return cands


def _ext_candidates(coeffs):
    """Root candidates over a tower: base-constant polys recurse; else s-multiples."""
    sample = coeffs[0]
    tower = sample.tower
    cands = [sample.zero()]
    if all(c.is_constant() for c in coeffs):
        base_coeffs = [c.constant_part() for c in coeffs]
        base_cands = (
            _cyc_candidates(base_coeffs)
            if isinstance(base_coeffs[0], CycScalar)
            else _ext_candidates(base_coeffs)
        )
        cands.extend(tower.lift(c) for c in base_cands)
    # unit multiples of the adjoined generator (covers binomial towers): the
    # 2m-th roots of unity over Q(zeta_m), which for odd m is Q(zeta_2m) and
    # holds zeta_2m^k = (-1)^k zeta_m^(k (m+1)/2) at modulus m
    m = base_constant(tower.base_zero()).m
    if m % 2 == 0:
        units = [root_of_unity(m, k) for k in range(m)]
    else:
        units = [(-1 if k % 2 else 1) * root_of_unity(m, k * (m + 1) // 2) for k in range(2 * m)]
    s = tower.gen()
    for u in units:
        cands.append(s * tower.lift(u))
    return cands


def find_field_roots(coeffs):
    """(roots found in the coefficient field, unfactored remainder)."""
    roots = []
    work = list(coeffs)
    while len(work) > 2:
        cands = (
            _cyc_candidates(work)
            if isinstance(work[0], CycScalar)
            else _ext_candidates(work)
        )
        found = None
        for cand in cands:
            if poly_eval(work, cand).is_zero():
                found = cand
                break
        if found is None:
            break
        roots.append(found)
        # the divisor's 1 is read at work's top modulus, so the quotient's
        # top coefficient keeps the modulus (and text) it is stored at
        work, rem = _poly_divmod(work, [-found, work[-1].one()])
        if rem:
            raise ArithmeticError("not a root")
    if len(work) == 2:
        roots.append(-work[0] * work[1].inv())
        work = [work[1]]
    return roots, work


def _poly_divmod(f, g):
    """(quotient, remainder) of f by g over a field: little-endian lists, g
    with a nonzero top coefficient, the remainder with no zero top.  A monic
    g (every division by x - root) takes no inverse and no product by it."""
    dg = len(g) - 1
    r = list(f)
    inv = None if g[-1] == g[-1].one() else g[-1].inv()
    q = [None] * max(len(r) - dg, 0)
    for e in range(len(r) - 1, dg - 1, -1):
        c = q[e - dg] = r[e] if inv is None else r[e] * inv
        if not c.is_zero():
            # r[e] itself is eliminated, and nothing reads it again
            for i in range(dg):
                r[e - dg + i] = r[e - dg + i] - c * g[i]
    r = r[:dg]
    while r and r[-1].is_zero():
        r.pop()
    return q, r


def _poly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
    return out


def _euclid(f, g):
    """Euclid's remainder sequence of f and g over a field (little-endian
    lists, deg g < deg f), run to the first remainder r of degree <= 0 ([]
    for zero): (the remainder before r, r, t) with r = t * g mod f.  When r
    is zero, the remainder before it is gcd(f, g) up to a unit."""
    zero = f[0].zero()
    r0, r1 = f, list(g)
    while r1 and r1[-1].is_zero():
        r1.pop()
    t0, t1 = [], [zero.one()]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        qt = _poly_mul(q, t1, zero)
        t0 = t0 + [zero] * (len(qt) - len(t0))
        r0, r1, t0, t1 = r1, r, t1, [x - y for x, y in zip(t0, qt)]
    return r0, r1, t1


def _squarefree_part(f):
    """f / gcd(f, f') for a monic f of degree >= 1, made monic: each distinct
    root of f once.  Exact Euclid over f's coefficient field (characteristic
    0, so f' != 0), with no factoring."""
    gcd, r, _t = _euclid(f, [c * i for i, c in enumerate(f)][1:])
    if r:
        # a nonzero constant remainder: f and f' are coprime (stopping here
        # saves inverting it, which over a deep tower is a costly xgcd)
        return f
    q, _r = _poly_divmod(f, gcd)
    lead = q[-1].inv()
    return [c * lead for c in q]


def split_roots(coeffs):
    """Factor the polynomial completely, adjoining tower steps as needed.

    Returns (roots, sample) with every root in the field of `sample` (the
    input field, or a tower over it).  The roots are distinct: a root found
    in a field is kept once however often it divides, and before a tower
    level is adjoined the leftover polynomial is replaced by its squarefree
    part, so the level's polynomial has no repeated root.
    """
    work = list(coeffs)
    roots: list = []
    while True:
        found, work = find_field_roots(work)
        for r in found:
            if r not in roots:
                roots.append(r)
        if len(work) <= 1:
            return roots, (roots[0] if roots else coeffs[0])
        inv = work[-1].inv()
        monic = [c * inv for c in work]
        squarefree = _squarefree_part(monic)
        if len(squarefree) < len(monic):
            # a repeated root: scan the squarefree part for field roots again
            work = squarefree
            continue
        if isinstance(monic[0], CycScalar):
            # uniformize moduli so the tower base is a single cyclotomic field
            mm = math.lcm(*(c.m for c in monic), *(r.m for r in roots if isinstance(r, CycScalar)))
            monic = [c.embed(mm) for c in monic]
            roots = [r.embed(mm) if isinstance(r, CycScalar) else r for r in roots]
        tower = Tower.make(tuple(monic))
        s = tower.gen()
        roots = [tower.lift(r) for r in roots]
        roots.append(s)
        work, rem = _poly_divmod([tower.lift(c) for c in monic], [-s, s.one()])
        if rem:
            raise ArithmeticError("not a root")
