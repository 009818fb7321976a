"""The Hopf algebras H_beta and their finite quotients as exact rewriting systems.

Elements are finite linear combinations of normal-form monomials
a^i b^j c^k x^u y^v  (i, j, k arbitrary integers; 0 <= u, v < n) over a
cyclotomic coefficient field.  Products are rewritten to normal form by
moving group-likes left past x, y (picking up q-phases), straightening y
past x with

    y^v x = q^(-v*n1) x y^v + beta3 * u_v * (q^(-(v-1)*n1) a^(2*n1) - b*c) y^(v-1),

u_v = sum_{j<v} q^(-j*n1), and reducing x^n, y^n via the central elements
beta1 (a^(n*n1) - b^n) and beta2 (a^(n*n1) - c^n).

That rewriting runs once per entry of a monomial product table.  With
r = i2 mod n, the product of m1 = a^i1 b^j1 c^k1 x^u1 y^v1 and
m2 = a^i2 b^j2 c^k2 x^u2 y^v2 is the table entry for
(x^u1 y^v1) (a^r x^u2 y^v2), keyed (u1, v1, r, u2, v2), with every term's
group-like exponents shifted by (i1 + i2 - r, j1 + j2, k1 + k2): the
q-phase of moving a^i2 left reads i2 only mod n, b and c commute with x and
y, and straightening and the power reduction only add to a, b and c.  So a
table holds at most n^5 entries, and a product of elements costs one table
lookup per monomial pair and one scalar product per output term.

The coproduct and the antipode are cached per x^u y^v core in the same way:
Delta(g x^u y^v) = (g (x) g) Delta(x)^u Delta(y)^v, where left
multiplication by g (x) g only shifts exponents, and
s(g x^u y^v) = s(y)^v s(x)^u g^(-1), where the right factor g^(-1) goes
through the product table.  Every table of one AlgebraParams, these and
those of the fusion layer, lives in its `Caches` object.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .cyclo import CycScalar, _power, common_modulus, rational, root_of_unity

if TYPE_CHECKING:
    from .fusion import CanonLabel, CharacterBasis, FusionVector
    from .modules import ModuleRep

__all__ = [
    "Monomial",
    "Element",
    "TensorElement",
    "AlgebraParams",
    "Caches",
    "QuotientParams",
    "AxiomReport",
    "IntegralCheckFailed",
    "PreconditionViolated",
    "BlockAlgebra",
]


class IntegralCheckFailed(ArithmeticError):
    pass


class PreconditionViolated(ValueError):
    pass


class Monomial(NamedTuple):
    i: int
    j: int
    k: int
    u: int
    v: int

    def degree(self) -> int:
        return abs(self.i) + abs(self.j) + abs(self.k) + self.u + self.v

    def __str__(self):
        if self == (0, 0, 0, 0, 0):
            return "1"
        parts = []
        for name, e in zip("abcxy", self):
            if e == 1:
                parts.append(name)
            elif e != 0:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


_UNIT = Monomial(0, 0, 0, 0, 0)
# x and y with the group-like (b, resp. c) that enters their coproduct and antipode
_GEN_AND_GROUPLIKE = {
    "x": (Monomial(0, 0, 0, 1, 0), Monomial(0, 1, 0, 0, 0)),
    "y": (Monomial(0, 0, 0, 0, 1), Monomial(0, 0, 1, 0, 0)),
}


def _key_text(key) -> str:
    """A monomial as itself, a pair of monomials as `l (x) r`."""
    return str(key) if isinstance(key, Monomial) else " (x) ".join(map(str, key))


class Element:
    """Finite linear combination of normal-form monomials (no zero terms, so
    equal elements store equal terms).

    The same class holds elements of H (x) H, keyed by pairs of monomials
    (TensorElement names it there)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Monomial, CycScalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff.is_zero():
                    self.terms[mono] = coeff

    @staticmethod
    def monomial(mono: Monomial, coeff) -> "Element":
        e = Element()
        if not coeff.is_zero():
            e.terms[mono] = coeff
        return e

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Element") -> "Element":
        out = Element()
        out.terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accum(out.terms, mono, coeff)
        return out

    def __sub__(self, other: "Element") -> "Element":
        out = Element()
        out.terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accum(out.terms, mono, -coeff)
        return out

    def __neg__(self) -> "Element":
        out = Element()
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def scale(self, s) -> "Element":
        out = Element()
        if not s.is_zero():
            out.terms = {m: s * c for m, c in self.terms.items()}
        return out

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        raise TypeError("Element is not hashable")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0])

    def serialize(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c.serialize()}) {_key_text(m)}" for m, c in self.sorted_terms())

    __repr__ = serialize


TensorElement = Element


def _accum(d: dict, mono: Monomial, coeff) -> None:
    cur = d.get(mono)
    if cur is None:
        if not coeff.is_zero():
            d[mono] = coeff
    else:
        s = cur + coeff
        if s.is_zero():
            del d[mono]
        else:
            d[mono] = s


def parse_element(text: str) -> Element:
    """Inverse of Element.serialize (bit-exact round trip)."""
    from .cyclo import ParseError, parse_scalar

    s = text.strip()
    out = Element()
    if s == "0":
        return out
    for term in s.split(" + "):
        term = term.strip()
        if not term.startswith("("):
            raise ParseError(f"bad element term {term!r}")
        depth = 0
        close = -1
        for idx, ch in enumerate(term):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    close = idx
                    break
        if close < 0:
            raise ParseError(f"unbalanced parentheses in {term!r}")
        coeff = parse_scalar(term[1:close])
        mono_text = term[close + 1 :].strip()
        exps = {"a": 0, "b": 0, "c": 0, "x": 0, "y": 0}
        if mono_text != "1":
            for factor in mono_text.split("*"):
                if "^" in factor:
                    name, e = factor.split("^", 1)
                    exps[name] = int(e)
                else:
                    exps[factor] = 1
        _accum(out.terms, Monomial(exps["a"], exps["b"], exps["c"], exps["x"], exps["y"]), coeff)
    return out


@dataclass(frozen=True)
class AxiomReport:
    results: dict
    seed: int

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self.results.values())

    def failures(self):
        return {name: wit for name, (ok, wit) in self.results.items() if not ok}


# the terms of one normal form, as stored in a product-table entry
Terms = tuple[tuple[Monomial, CycScalar], ...]


@dataclass(slots=True)
class Caches:
    """The memo tables of one AlgebraParams; they live as long as it does.

    Algebra layer: `straighten` maps (v, u) to the normal form of y^v x^u,
    `product` maps (u1, v1, r, u2, v2) to the terms of
    (x^u1 y^v1) (a^r x^u2 y^v2) with 0 <= r < n, `delta` maps (u, v) to
    Delta(x^u y^v) and `antipode` maps (u, v) to s(y)^v s(x)^u.
    Module layer: `modules` maps modules.simple_key to the module that
    build_simple built, and `classes` maps it to that module's CanonLabel
    (grothendieck.cls); each module keeps its own fusion.ModuleTraces.
    Fusion layer: `qbinomial_squares` holds [u choose k]_(q^n1)^2 for
    k <= u < n, the coefficients of the tensor-product trace formula.
    `character_bases` holds, per central character, the candidate simples,
    their trace rows and the factorization of those rows that decompose
    replays (fusion.candidate_simples), and `fuse` maps a class pair to its
    fuse result (grothendieck.gr_mul).
    """

    straighten: dict[tuple[int, int], dict[Monomial, CycScalar]] = field(default_factory=dict)
    product: dict[tuple[int, int, int, int, int], Terms] = field(default_factory=dict)
    delta: dict[tuple[int, int], TensorElement] = field(default_factory=dict)
    antipode: dict[tuple[int, int], Element] = field(default_factory=dict)
    modules: dict[tuple, ModuleRep] = field(default_factory=dict)
    classes: dict[tuple, CanonLabel] = field(default_factory=dict)
    qbinomial_squares: list[list[CycScalar]] = field(default_factory=list)
    character_bases: dict[tuple, CharacterBasis] = field(default_factory=dict)
    fuse: dict[tuple[CanonLabel, CanonLabel], FusionVector] = field(default_factory=dict)


def _add(d: dict, key, coeff) -> None:
    """d[key] += coeff, keeping zero sums (the Element constructors drop them)."""
    cur = d.get(key)
    d[key] = coeff if cur is None else cur + coeff


class AlgebraParams:
    """n, n1, q and beta = (beta1, beta2, beta3), with a fixed working modulus.

    The working modulus M is a multiple of 2n, so q^(1/2) (hence the
    q^((r-1)/2), q^(n/2) eigenvalue data of the representation layer) exists
    in-field.  t is the multiplicative order of q^n1 and u = n/t.
    """

    def __init__(self, n: int, n1: int, beta=(0, 0, 0), extra_orders=()):
        if n < 2:
            raise ValueError("n must be at least 2")
        if n1 < 1:
            raise ValueError("n1 must be at least 1")
        beta_scalars = [
            b if isinstance(b, CycScalar) else rational(Fraction(b)) for b in beta
        ]
        M = common_modulus(2 * n, *(b.m for b in beta_scalars), *extra_orders)
        self.n = n
        self.n1 = n1
        self.M = M
        self.q = root_of_unity(M, M // n)
        self._qpows = tuple(root_of_unity(M, k * (M // n)) for k in range(n))
        self.beta = tuple(b.embed(M) for b in beta_scalars)
        self.zero = rational(0, M)
        self.one = rational(1, M)
        # canonical square root of q: stays in <q> for odd n
        self.sqrt_q = (
            self.q ** ((n + 1) // 2) if n % 2 == 1 else root_of_unity(M, M // (2 * n))
        )
        # q is a primitive n-th root of unity, so q^n1 has order n / gcd(n, n1)
        self.u = math.gcd(n, n1)
        self.t = n // self.u
        self.caches = Caches()

    # -- scalars ------------------------------------------------------

    def qpow(self, k: int) -> CycScalar:
        return self._qpows[k % self.n]

    def scalar(self, x) -> CycScalar:
        if isinstance(x, CycScalar):
            return x.embed(self.M) if x.m != self.M else x
        return rational(x, self.M)

    # -- element constructors ------------------------------------------

    def unit(self) -> Element:
        return Element.monomial(_UNIT, self.one)

    def gen(self, name: str, power: int = 1) -> Element:
        idx = "abcxy".index(name)
        if name in "xy" and not (0 <= power < self.n):
            raise ValueError("x, y exponents live in [0, n)")
        e = [0, 0, 0, 0, 0]
        e[idx] = power
        return Element.monomial(Monomial(*e), self.one)

    def element(self, *terms) -> Element:
        """element((coeff, (i,j,k,u,v)), ...) with coeff scalar-like."""
        out = Element()
        for coeff, exps in terms:
            _accum(out.terms, Monomial(*exps), self.scalar(coeff))
        return out

    # -- multiplication -------------------------------------------------

    def _straighten_yx(self, v: int, u: int) -> dict:
        """Normal form of y^v x^u as {Monomial: coeff}; 0 <= v, u < n."""
        key = (v, u)
        cached = self.caches.straighten.get(key)
        if cached is not None:
            return cached
        if v == 0 or u == 0:
            out = {Monomial(0, 0, 0, u, v): self.one}
        else:
            out = {}
            # y^v x = q^(-v n1) x y^v + beta3 u_v (q^(-(v-1) n1) a^(2 n1) - bc) y^(v-1)
            n1 = self.n1
            lead = self.qpow(-v * n1)
            for mono, coeff in self._straighten_yx(v, u - 1).items():
                # multiply x * (a^al b^be c^ga x^u' y^v') from the left
                phase = self.qpow(mono.i)
                _accum(
                    out,
                    Monomial(mono.i, mono.j, mono.k, mono.u + 1, mono.v),
                    lead * phase * coeff,
                )
            beta3 = self.beta[2]
            if not beta3.is_zero():
                u_v = self.zero
                for jj in range(v):
                    u_v = u_v + self.qpow(-jj * n1)
                factor = beta3 * u_v
                if not factor.is_zero():
                    apart = factor * self.qpow(-(v - 1) * n1)
                    for mono, coeff in self._straighten_yx(v - 1, u - 1).items():
                        _accum(
                            out,
                            Monomial(mono.i + 2 * n1, mono.j, mono.k, mono.u, mono.v),
                            apart * coeff,
                        )
                        _accum(
                            out,
                            Monomial(mono.i, mono.j + 1, mono.k + 1, mono.u, mono.v),
                            -factor * coeff,
                        )
        self.caches.straighten[key] = out
        return out

    def _reduce_powers(self, acc: dict, mono: Monomial, coeff) -> None:
        """Accumulate coeff * mono reducing x^n -> beta1(a^(n n1) - b^n) etc."""
        n, n1 = self.n, self.n1
        stack = [(mono, coeff)]
        while stack:
            m, c = stack.pop()
            if m.u >= n:
                b1 = self.beta[0]
                rest = Monomial(m.i, m.j, m.k, m.u - n, m.v)
                if not b1.is_zero():
                    stack.append((Monomial(rest.i + n * n1, rest.j, rest.k, rest.u, rest.v), c * b1))
                    stack.append((Monomial(rest.i, rest.j + n, rest.k, rest.u, rest.v), -(c * b1)))
            elif m.v >= n:
                b2 = self.beta[1]
                rest = Monomial(m.i, m.j, m.k, m.u, m.v - n)
                if not b2.is_zero():
                    stack.append((Monomial(rest.i + n * n1, rest.j, rest.k, rest.u, rest.v), c * b2))
                    stack.append((Monomial(rest.i, rest.j, rest.k + n, rest.u, rest.v), -(c * b2)))
            else:
                _accum(acc, m, c)

    def _product_entry(self, key: tuple[int, int, int, int, int]) -> Terms:
        """Fill the product-table entry (x^u1 y^v1) (a^r x^u2 y^v2) for
        key = (u1, v1, r, u2, v2); every product is rewritten here."""
        u1, v1, r, u2, v2 = key
        acc: dict[Monomial, CycScalar] = {}
        # move a^r left past x^u1 y^v1
        phase = self.qpow((u1 - v1) * r)
        for core, ccore in self._straighten_yx(v1, u2).items():
            # move x^u1 right past the core's group-like part
            coeff = phase * ccore * self.qpow(u1 * core.i)
            mono = Monomial(r + core.i, core.j, core.k, u1 + core.u, core.v + v2)
            self._reduce_powers(acc, mono, coeff)
        entry = tuple(acc.items())
        self.caches.product[key] = entry
        return entry

    def _mono_mul(self, m1: Monomial, m2: Monomial):
        """The terms of m1 * m2: the table entry of m1's x^u y^v times
        a^(m2.i mod n) and m2's x^u y^v, with the remaining group-like
        exponents shifted in."""
        i2 = m2.i
        r = i2 % self.n
        key = (m1.u, m1.v, r, m2.u, m2.v)
        entry = self.caches.product.get(key)
        if entry is None:
            entry = self._product_entry(key)
        di = m1.i + i2 - r
        dj = m1.j + m2.j
        dk = m1.k + m2.k
        if not (di or dj or dk):
            return entry
        return [(Monomial(m.i + di, m.j + dj, m.k + dk, m.u, m.v), c) for m, c in entry]

    def _mul_into(self, acc: dict, terms1, terms2) -> None:
        """acc += (sum of terms1) * (sum of terms2), terms as (Monomial, coeff)."""
        mono_mul = self._mono_mul
        for m1, c1 in terms1:
            for m2, c2 in terms2:
                c = c1 * c2
                for mono, coeff in mono_mul(m1, m2):
                    t = c * coeff
                    cur = acc.get(mono)
                    acc[mono] = t if cur is None else cur + t

    def mul(self, e1: Element, e2: Element) -> Element:
        """Normal-form product in H_beta."""
        out: dict[Monomial, CycScalar] = {}
        self._mul_into(out, e1.terms.items(), e2.terms.items())
        return Element(out)

    def mul_many(self, *elements: Element) -> Element:
        out = self.unit()
        for e in elements:
            out = self.mul(out, e)
        return out

    def power(self, e: Element, k: int) -> Element:
        """e^k by repeated squaring; the unit for k <= 0."""
        return _power(e, k, self.mul) if k > 0 else self.unit()

    # -- coalgebra -------------------------------------------------------

    def tensor_mul(self, t1: TensorElement, t2: TensorElement) -> TensorElement:
        out: dict[tuple[Monomial, Monomial], CycScalar] = {}
        mono_mul = self._mono_mul
        for (l1, r1), c1 in t1.terms.items():
            for (l2, r2), c2 in t2.terms.items():
                c = c1 * c2
                right = mono_mul(r1, r2)
                for lm, lc in mono_mul(l1, l2):
                    lc = c * lc
                    for rm, rc in right:
                        t = lc * rc
                        key = (lm, rm)
                        cur = out.get(key)
                        out[key] = t if cur is None else cur + t
        return TensorElement(out)

    def _delta_core(self, u: int, v: int) -> TensorElement:
        """Delta(x^u y^v) = Delta(x)^u Delta(y)^v, with Delta(x) = x (x) a^n1 +
        b (x) x and Delta(y) = y (x) a^n1 + c (x) y."""
        core = self.caches.delta.get((u, v))
        if core is None:
            if u + v == 0:
                core = TensorElement({(_UNIT, _UNIT): self.one})
            elif u + v == 1:
                gen, grp = _GEN_AND_GROUPLIKE["x" if u else "y"]
                core = TensorElement(
                    {(gen, Monomial(self.n1, 0, 0, 0, 0)): self.one, (grp, gen): self.one}
                )
            elif v:
                core = self.tensor_mul(self._delta_core(u, v - 1), self._delta_core(0, 1))
            else:
                core = self.tensor_mul(self._delta_core(u - 1, 0), self._delta_core(1, 0))
            self.caches.delta[(u, v)] = core
        return core

    def _delta_terms(self, mono: Monomial):
        """The terms of Delta(mono): its (u, v) core, left-multiplied by g (x) g
        for the group-like part g of mono, which only shifts exponents."""
        i, j, k = mono.i, mono.j, mono.k
        core = self._delta_core(mono.u, mono.v).terms.items()
        if not (i or j or k):
            return core
        return [
            (
                (
                    Monomial(l.i + i, l.j + j, l.k + k, l.u, l.v),
                    Monomial(r.i + i, r.j + j, r.k + k, r.u, r.v),
                ),
                c,
            )
            for (l, r), c in core
        ]

    def coproduct(self, e: Element) -> TensorElement:
        out: dict[tuple[Monomial, Monomial], CycScalar] = {}
        for mono, coeff in e.terms.items():
            for key, c in self._delta_terms(mono):
                _add(out, key, coeff * c)
        return TensorElement(out)

    def counit(self, e: Element) -> CycScalar:
        acc = self.zero
        for mono, coeff in e.terms.items():
            if mono.u == 0 and mono.v == 0:
                acc = acc + coeff
        return acc

    def _antipode_core(self, u: int, v: int) -> Element:
        """s(y)^v s(x)^u, with s(x) = -q^-n1 a^-n1 b^-1 x and
        s(y) = -q^n1 a^-n1 c^-1 y."""
        core = self.caches.antipode.get((u, v))
        if core is None:
            if u + v == 0:
                core = self.unit()
            elif u + v == 1:
                gen, grp = _GEN_AND_GROUPLIKE["x" if u else "y"]
                core = Element.monomial(
                    Monomial(-self.n1, -grp.j, -grp.k, gen.u, gen.v),
                    -self.qpow(-self.n1 if u else self.n1),
                )
            elif u:
                core = self.mul(self._antipode_core(u - 1, v), self._antipode_core(1, 0))
            else:
                core = self.mul(self._antipode_core(0, v - 1), self._antipode_core(0, 1))
            self.caches.antipode[(u, v)] = core
        return core

    def _antipode_into(self, acc: dict, mono: Monomial, coeff) -> None:
        """acc += coeff * s(mono), where s is an anti-homomorphism:
        s(g x^u y^v) = s(y)^v s(x)^u g^(-1)."""
        ginv = Monomial(-mono.i, -mono.j, -mono.k, 0, 0)
        self._mul_into(acc, self._antipode_core(mono.u, mono.v).terms.items(), ((ginv, coeff),))

    def antipode(self, e: Element) -> Element:
        out: dict[Monomial, CycScalar] = {}
        for mono, coeff in e.terms.items():
            self._antipode_into(out, mono, coeff)
        return Element(out)

    # -- axiom verification ----------------------------------------------

    def random_element(self, rng: random.Random, degree_bound: int = 4) -> Element:
        """A sum of two random monomials of degree at most degree_bound."""
        coeff_pool = [self.one, -self.one, self.q, -self.q, self.qpow(2), -self.qpow(2)]
        out = Element()
        for _ in range(2):
            while True:
                i = rng.randint(-1, 1)
                j = rng.randint(-1, 1)
                k = rng.randint(-1, 1)
                u = rng.randint(0, min(self.n - 1, 2))
                v = rng.randint(0, min(self.n - 1, 2))
                m = Monomial(i, j, k, u, v)
                if m.degree() <= degree_bound:
                    break
            _accum(out.terms, m, rng.choice(coeff_pool))
        return out

    def check_hopf_axioms(
        self,
        degree_bound: int = 4,
        n_random: int = 100,
        seed: int = 0,
    ) -> AxiomReport:
        """Exact verification of the Hopf axioms on generators and random elements.

        Checked per element e: coassociativity, both counit axioms, both
        antipode axioms; on random pairs: Delta, epsilon algebra maps and s
        anti-homomorphism.  The report carries the first witness of any
        failure (expected only for parity-violating (n, n1): n even, n1 even).
        """
        rng = random.Random(seed)
        gens = [self.gen(g) for g in "abcxy"]
        elems = gens + [self.random_element(rng, degree_bound) for _ in range(n_random)]
        results: dict[str, tuple[bool, object]] = {}

        def record(name, ok, witness):
            """witness() gives the failure's text; it runs on a first failure only."""
            if name not in results:
                results[name] = (True, None)
            if results[name][0] and not ok:
                results[name] = (False, witness())

        for e in elems:
            de = self.coproduct(e)
            # coassociativity on triple tensors: (Delta (x) id) Delta e - (id (x) Delta) Delta e
            diff: dict = {}
            for (l, r), c in de.terms.items():
                for (l1, l2), c1 in self._delta_terms(l):
                    _add(diff, (l1, l2, r), c * c1)
                for (r1, r2), c1 in self._delta_terms(r):
                    _add(diff, (l, r1, r2), -(c * c1))
            record("coassociativity", all(c.is_zero() for c in diff.values()), e.serialize)
            # counit axioms: eps(l) is 1 on group-likes and 0 on the rest
            lsum: dict = {}
            rsum: dict = {}
            for (l, r), c in de.terms.items():
                if l.u == 0 and l.v == 0:
                    _add(lsum, r, c)
                if r.u == 0 and r.v == 0:
                    _add(rsum, l, c)
            record("counit_left", Element(lsum) == e, e.serialize)
            record("counit_right", Element(rsum) == e, e.serialize)
            # antipode axioms
            target = self.unit().scale(self.counit(e))
            ms_left: dict = {}
            ms_right: dict = {}
            for (l, r), c in de.terms.items():
                sl: dict = {}
                self._antipode_into(sl, l, self.one)
                self._mul_into(ms_left, sl.items(), ((r, c),))
                sr: dict = {}
                self._antipode_into(sr, r, self.one)
                self._mul_into(ms_right, ((l, c),), sr.items())
            record("antipode_left", Element(ms_left) == target, e.serialize)
            record("antipode_right", Element(ms_right) == target, e.serialize)

        for _ in range(max(4, n_random // 10)):
            u = self.random_element(rng, degree_bound)
            v = self.random_element(rng, degree_bound)
            uv = self.mul(u, v)

            def pair():
                return (u.serialize(), v.serialize())

            record(
                "delta_algebra_map",
                self.coproduct(uv) == self.tensor_mul(self.coproduct(u), self.coproduct(v)),
                pair,
            )
            record("counit_algebra_map", self.counit(uv) == self.counit(u) * self.counit(v), pair)
            record("antipode_antihom", self.antipode(uv) == self.mul(self.antipode(v), self.antipode(u)), pair)
        return AxiomReport(results=results, seed=seed)


# -- finite quotient H_(alpha,beta) ---------------------------------------


class QuotientParams:
    """alpha = (n, m, n1, n2, n3): the quotient by (a^N - 1, b - a^(n m n2), c - a^(m n n3))."""

    def __init__(self, p: AlgebraParams, m: int, n2: int = 0, n3: int = 0):
        n = p.n
        if m < 1:
            raise ValueError("m must be at least 1")
        hi = max(0, n - 2)
        if not (0 <= n2 <= hi and 0 <= n3 <= hi):
            raise ValueError("n2, n3 must lie in [0, n-1)")
        if not (1 <= p.n1 < m * (n - 1)):
            raise PreconditionViolated("need 1 <= n1 < m(n-1) for the quotient")
        self.p = p
        self.m = m
        self.n2 = n2
        self.n3 = n3
        self.N = n * (n - 1) * m
        if p.M % self.N != 0:
            raise ValueError(
                f"working modulus {p.M} lacks an N-th root of unity (N={self.N}); "
                "construct AlgebraParams with extra_orders=(N,)"
            )
        self._idempotents: list[Element] | None = None

    def reduce(self, e: Element) -> Element:
        """Substitute b -> a^(n m n2), c -> a^(m n n3) and fold a-exponents mod N."""
        out = Element()
        for mono, coeff in e.terms.items():
            _accum(out.terms, Monomial(self._a_exponent(mono), 0, 0, mono.u, mono.v), coeff)
        return out

    def _a_exponent(self, mono: Monomial) -> int:
        """The exponent of a, in [0, N), of mono with b -> a^(n m n2) and c -> a^(m n n3)."""
        nm = self.p.n * self.m
        return (mono.i + nm * (self.n2 * mono.j + self.n3 * mono.k)) % self.N

    def mul(self, e1: Element, e2: Element) -> Element:
        return self.reduce(self.p.mul(e1, e2))

    def basis(self):
        n = self.p.n
        return [
            Monomial(i, 0, 0, u, v)
            for i in range(self.N)
            for u in range(n)
            for v in range(n)
        ]

    # -- idempotents and the integral ---------------------------------

    def omega(self) -> CycScalar:
        """Primitive m(n-1)-th root of unity (= omega0^n)."""
        return self.omega0() ** self.p.n

    def omega0(self) -> CycScalar:
        return root_of_unity(self.p.M, self.p.M // self.N)

    def central_idempotents(self) -> list[Element]:
        """e_i = (1/(m(n-1))) sum_j (omega^i a^n)^j, i = 0..m(n-1)-1.

        Orthogonality, completeness and centrality against a, x, y are
        verified exactly; a failure raises PreconditionViolated.  They are
        built and verified once: every call returns the same list (callers
        do not change it)."""
        if self._idempotents is None:
            self._idempotents = self._verified_idempotents()
        return self._idempotents

    def _verified_idempotents(self) -> list[Element]:
        p = self.p
        d = self.m * (p.n - 1)
        omega = self.omega()
        out = []
        for i in range(d):
            e = Element()
            inv_d = rational(Fraction(1, d), p.M)
            for j in range(d):
                _accum(e.terms, Monomial((p.n * j) % self.N, 0, 0, 0, 0), (omega ** (i * j)) * inv_d)
            out.append(e)
        total = Element()
        for e in out:
            total = total + e
        if total != p.unit():
            raise PreconditionViolated("central idempotents do not sum to 1")
        for i, ei in enumerate(out):
            for j, ej in enumerate(out):
                if self.mul(ei, ej) != (ei if i == j else Element()):
                    raise PreconditionViolated(f"e_{i} e_{j} is not delta_ij e_i")
        for gname in "axy":
            g = p.gen(gname)
            for e in out:
                if self.mul(e, g) != self.mul(g, e):
                    raise PreconditionViolated(f"e_i does not commute with {gname}")
        return out

    def block_dimension(self, idem: Element) -> int:
        """dim of idem * H_(alpha,beta); the x^u y^v part is free, so this is
        n^2 times the rank of {idem * a^j : j < N} inside the a-power span."""
        from .linalg import rank

        p = self.p
        rows = []
        for j in range(self.N):
            prod = self.mul(idem, Element.monomial(Monomial(j, 0, 0, 0, 0), p.one))
            row = [p.zero] * self.N
            for mono, coeff in prod.terms.items():
                row[mono.i] = coeff
            rows.append(row)
        return rank(rows) * p.n**2

    def integral(self) -> Element:
        """lambda = sum_i a^i/N x^(n-1) y^(n-1), the two-sided integral."""
        p = self.p
        lam = Element()
        inv_n = rational(Fraction(1, self.N), p.M)
        for i in range(self.N):
            _accum(lam.terms, Monomial(i, 0, 0, p.n - 1, p.n - 1), inv_n)
        return lam

    def check_integral(self) -> Element:
        """Verify h*lam = eps(h)*lam = lam*h on every basis monomial, eps(lam) = 0."""
        p = self.p
        lam = self.integral()
        if not p.counit(lam).is_zero():
            raise IntegralCheckFailed("eps(lambda) != 0")
        for mono in self.basis():
            h = Element.monomial(mono, p.one)
            target = lam.scale(p.counit(h))
            if self.mul(h, lam) != target:
                raise IntegralCheckFailed(f"h*lambda != eps(h)*lambda for h = {mono}")
            if self.mul(lam, h) != target:
                raise IntegralCheckFailed(f"lambda*h != eps(h)*lambda for h = {mono}")
        return lam


class BlockAlgebra:
    """The block e_i H_(alpha,beta) in its weight presentation.

    Generated by g = w e a, x' = x e and y' = s y e, where w = omega0^i and
    s = 1 at beta3 = 0, else beta3^(-1) w^(2 n1).  They satisfy g^n = 1,
    x^n = beta1', y^n = beta2', gx = q^(-1) xg, gy = q yg and
    yx - q^(-n1) xy = cg * g^(2 n1) + c0.  Block elements are dicts
    {(a, b, c): coeff} on the basis g^a x^b y^c, 0 <= a, b, c < n.

    There is no second rewriting system: `multiply` lifts g^a x^b y^c to
    w^a s^c a^a x^b y^c, multiplies the lifts in the H_beta product table,
    substitutes b -> a^(n m n2), c -> a^(m n n3) with a-exponents mod N, and
    reads each term coeff * a^i x^b y^c back as coeff * w^(-i) s^(-c) at
    (i mod n, b, c), since e a^n = w^(-n) e.  Each product of two basis
    elements is read once and kept per block.  The primed parameters and the
    commutator data cg, c0 are *computed* from block products (x^n, y^n and
    yx - q^(-n1) xy), not read off displayed formulas.
    """

    def __init__(self, qp: QuotientParams, index: int):
        p = qp.p
        self.p = p
        self.qp = qp
        self.index = index
        n, n1 = p.n, p.n1
        e = qp.central_idempotents()[index]
        w = qp.omega0() ** index
        beta3 = p.beta[2]
        s = p.one if beta3.is_zero() else beta3.inv() * w ** (2 * n1)
        # w^k for k < N and s^k for k < 2n - 1: the factors of _basis_product
        self._wpow = [w**k for k in range(qp.N)]
        self._spow = [s**k for k in range(2 * n - 1)]
        # (k1, k2) -> the terms of the product of basis elements k1 and k2
        self._products: dict[tuple, tuple] = {}
        self.idem = e
        self.g_elem = qp.mul(e, p.gen("a")).scale(w)
        self.x_elem = qp.mul(p.gen("x"), e)
        self.y_elem = qp.mul(p.gen("y"), e).scale(s)
        xm = {(0, 1, 0): p.one}
        ym = {(0, 0, 1): p.one}
        self.beta1p = self._scalar(_power(xm, n, self.multiply))
        self.beta2p = self._scalar(_power(ym, n, self.multiply))
        comm = self.multiply(ym, xm)
        phase = p.qpow(-n1)
        for key, c in self.multiply(xm, ym).items():
            _accum(comm, key, -(phase * c))
        if not comm:
            self.cg = p.zero
            self.c0 = p.zero
        else:
            # expect comm = g^(2 n1) + c0  (the normalized-beta3 form)
            _accum(comm, ((2 * n1) % n, 0, 0), -p.one)
            self.cg = p.one
            self.c0 = self._scalar(comm)

    def _scalar(self, elem: dict) -> CycScalar:
        """The scalar s with elem = s * 1 in the block (exact; raises otherwise)."""
        if elem.keys() - {(0, 0, 0)}:
            raise ArithmeticError("element is not a scalar multiple of the idempotent")
        return elem.get((0, 0, 0), self.p.zero)

    def degenerate(self) -> bool:
        return (
            self.beta1p.is_zero()
            and self.beta2p.is_zero()
            and self.cg.is_zero()
            and self.c0.is_zero()
        )

    # abstract block arithmetic on the basis g^a x^b y^c ----------------

    def multiply(self, e1: dict, e2: dict) -> dict:
        """The block product: one table entry per pair of basis elements."""
        out: dict[tuple[int, int, int], CycScalar] = {}
        for k1, c1 in e1.items():
            for k2, c2 in e2.items():
                c = c1 * c2
                for key, coeff in self._basis_product(k1, k2):
                    _accum(out, key, c * coeff)
        return out

    def _basis_product(self, k1: tuple, k2: tuple) -> tuple:
        """The terms of g^a1 x^b1 y^c1 * g^a2 x^b2 y^c2, read from the H_beta
        product table entry of a^a1 x^b1 y^c1 * a^a2 x^b2 y^c2."""
        entry = self._products.get((k1, k2))
        if entry is None:
            p, qp = self.p, self.qp
            (a1, b1, c1), (a2, b2, c2) = k1, k2
            terms: dict[tuple[int, int, int], CycScalar] = {}
            for mono, coeff in p._mono_mul(Monomial(a1, 0, 0, b1, c1), Monomial(a2, 0, 0, b2, c2)):
                # the lifts' factor w^(a1+a2) s^(c1+c2) over the readback's w^i s^c
                i = qp._a_exponent(mono)
                scale = self._wpow[(a1 + a2 - i) % qp.N] * self._spow[c1 + c2 - mono.v]
                _accum(terms, (i % p.n, mono.u, mono.v), coeff * scale)
            entry = self._products[(k1, k2)] = tuple(terms.items())
        return entry

    def weight_idempotents(self) -> list[dict]:
        """f_i = (1/n) sum_j (q^i g)^j inside the block.

        The delta-orthogonality, the sum-to-one and the shift identities
        f_i x = x f_(i-1), f_i y = y f_(i+1) are verified exactly; a failure
        raises PreconditionViolated."""
        p = self.p
        n = p.n
        inv_n = rational(Fraction(1, n), p.M)
        out = [{(j, 0, 0): p.qpow(i * j) * inv_n for j in range(n)} for i in range(n)]
        total: dict[tuple[int, int, int], CycScalar] = {}
        for f in out:
            for key, val in f.items():
                _accum(total, key, val)
        if total != {(0, 0, 0): p.one}:
            raise PreconditionViolated("weight idempotents do not sum to 1")
        xm = {(0, 1, 0): p.one}
        ym = {(0, 0, 1): p.one}
        for i in range(n):
            for j in range(n):
                if self.multiply(out[i], out[j]) != (out[i] if i == j else {}):
                    raise PreconditionViolated(f"f_{i} f_{j} is not delta_ij f_i")
            if self.multiply(out[i], xm) != self.multiply(xm, out[(i - 1) % n]):
                raise PreconditionViolated(f"f_{i} x != x f_{i-1}")
            if self.multiply(out[i], ym) != self.multiply(ym, out[(i + 1) % n]):
                raise PreconditionViolated(f"f_{i} y != y f_{i+1}")
        return out

    def radical_check(self) -> bool:
        """For a degenerate block: J = span{g^a x^b y^c : b+c > 0} is a
        nilpotent two-sided ideal and the quotient has dimension n."""
        if not self.degenerate():
            raise PreconditionViolated("block is not of the degenerate type")
        p = self.p
        n = p.n
        jbasis = [
            {(a, b, c): p.one}
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if b + c > 0
        ]
        gens = [{(1, 0, 0): p.one}, {(0, 1, 0): p.one}, {(0, 0, 1): p.one}]
        for j in jbasis:
            for gmono in gens:
                for prod in (self.multiply(j, gmono), self.multiply(gmono, j)):
                    for (_a, b, c) in prod:
                        if b + c == 0:
                            return False
        layer = jbasis
        steps = 0
        while layer and steps < 2 * n + 1:
            nxt = []
            seen = set()
            for e1 in layer:
                for e2 in jbasis:
                    prod = self.multiply(e1, e2)
                    if prod:
                        key = tuple(sorted(prod.keys()))
                        if key not in seen:
                            seen.add(key)
                            nxt.append(prod)
            layer = nxt
            steps += 1
        # quotient basis {g^a} has dimension n by construction; nilpotency is
        # the computed condition
        return not layer
