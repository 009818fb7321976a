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
between fields only through lift, field_zero and base_constant below.
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
    root_of_unity,
)

__all__ = [
    "Tower", "ExtScalar", "lift", "field_zero", "base_constant", "poly_eval", "find_field_roots", "split_roots",
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
        key = ("tower", tuple(c.key() for c in minpoly))
        cached = _TOWER_CACHE.get(key)
        if cached is None:
            cached = Tower(minpoly)
            _TOWER_CACHE[key] = cached
        return cached

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
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a.c):
            if not x.is_zero():
                for j, y in enumerate(b.c):
                    if not y.is_zero():
                        prod[i + j] = prod[i + j] + x * y
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
        mp = list(self.tower.minpoly)
        r0, r1 = mp, list(self.c)
        zero = self.tower.base_zero()
        s0, s1 = [zero], [zero.one()]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if not p[i].is_zero():
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
            f = r0[d0] * r1[d1].inv()
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[i + shift] = r0[i + shift] - f * r1[i]
            s1p = [zero] * shift + s1
            if len(s0) < len(s1p):
                s0 = s0 + [zero] * (len(s1p) - len(s0))
            for i in range(len(s1p)):
                s0[i] = s0[i] - f * s1p[i]
        if deg(r1) != 0:
            raise DivisionByZero("zero divisor: extension polynomial is reducible")
        u = r1[0].inv()
        d = self.tower.degree
        out = [zero] * d
        for i, x in enumerate(s1):
            if i < d:
                out[i] = x * u
            elif not x.is_zero():
                raise ArithmeticError("xgcd cofactor degree overflow")
        return ExtScalar(self.tower, out)

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
    return CycScalar.from_rational(Fraction(x), zero.m)


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


# -- polynomial root machinery over a scalar field -----------------------


def poly_eval(coeffs, x):
    acc = None
    for c in reversed(list(coeffs)):
        acc = c if acc is None else acc * x + c
    return acc


def _synthetic_divide(coeffs, root):
    """coeffs / (x - root); coeffs little-endian, exact."""
    out = []
    carry = None
    for c in reversed(list(coeffs)):
        carry = c if carry is None else c + carry * root
        out.append(carry)
    rem = out.pop()
    if not rem.is_zero():
        raise ArithmeticError("not a root")
    return list(reversed(out))


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
    lead = coeffs[-1]
    ratio = coeffs[0] * lead.inv()  # product of roots up to sign
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
        c0 = -coeffs[0] * lead.inv()
        base = nth_root_of_unity_multiple(c0, deg)
        if base is not None:
            for j in range(deg):
                push(base * root_of_unity(deg, j))
    # quadratic: discriminant square root
    if deg == 2:
        b = coeffs[1] * lead.inv()
        c = coeffs[0] * lead.inv()
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
    # unit multiples of the adjoined generator (covers binomial towers)
    base = base_constant(tower.base_zero())
    L = base.m if base.m % 2 == 0 else 2 * base.m
    s = tower.gen()
    for k in range(L):
        cands.append(s * tower.lift(root_of_unity(L, k)))
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
        work = _synthetic_divide(work, found)
    if len(work) == 2:
        roots.append(-work[0] * work[1].inv())
        work = [work[1]]
    return roots, work


def split_roots(coeffs):
    """Factor the polynomial completely, adjoining tower steps as needed.

    Returns (roots, sample) with every root in the field of `sample` (the
    input field, or a tower over it).
    """
    work = list(coeffs)
    roots: list = []
    while True:
        found, work = find_field_roots(work)
        roots.extend(found)
        if len(work) <= 1:
            return roots, (roots[0] if roots else coeffs[0])
        lead = work[-1]
        monic = [c * lead.inv() for c in work]
        if isinstance(monic[0], CycScalar):
            # uniformize moduli so the tower base is a single cyclotomic field
            mm = math.lcm(*(c.m for c in monic), *(r.m for r in roots if isinstance(r, CycScalar)))
            monic = [c.embed(mm) for c in monic]
            roots = [r.embed(mm) if isinstance(r, CycScalar) else r for r in roots]
        tower = Tower.make(tuple(monic))
        s = tower.gen()
        roots = [tower.lift(r) for r in roots]
        roots.append(s)
        work = _synthetic_divide([tower.lift(c) for c in monic], s)
