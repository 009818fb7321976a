"""Symbolic Grothendieck-ring layer: named generators, relation verification
against the fusion engine, quotient specializations, and ring comparison.

Every displayed relation is re-verified against module computations, never
assumed.  Where the source display is ambiguous (unbound binomial index,
naked g-powers that name no valid one-dimensional module, suppressed
half-power root choices) several readings are encoded and the verifier
reports which of them hold:

* ``printed`` readings take the displayed g-powers literally as classes of
  one-dimensional modules (inapplicable when no such module exists);
* ``proof`` readings encode the composition-factor lists that the proofs
  actually construct (i-shifted labels, chain splitting at the minimal r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams
from .cyclo import root_of_unity
from .fusion import (
    CanonLabel,
    FusionVector,
    NoIntegerSolution,
    candidate_simples,
    class_of,
    fuse,
)
from .modules import (
    SimpleLabel,
    WrongType,
    build_simple,
    kind_conditions,
    r_value,
    simple_key,
)

__all__ = [
    "UnboundGenerator",
    "Reading",
    "RelationReport",
    "gr_mul",
    "gr_pow",
    "cls",
    "one_dim_class",
    "chebyshev_z",
    "canonical_zr_label",
    "verify_relation",
    "SUITES",
    "run_suite",
    "GelakiContext",
    "radford_context",
    "compare_fusion_rings",
]


class UnboundGenerator(ValueError):
    """A named generator is undefined for the given beta-case."""


# -- ring elements -----------------------------------------------------------


def cls(p: AlgebraParams, label: SimpleLabel) -> FusionVector:
    """The class of a simple module as a ring element.

    Its CanonLabel is made once per simple_key and kept in `p.caches.classes`.
    """
    key = simple_key(p, label)
    c = p.caches.classes.get(key)
    if c is None:
        c = p.caches.classes[key] = class_of(p, build_simple(p, label))
    return FusionVector({c: 1})


def _fuse_cached(p: AlgebraParams, l1: CanonLabel, l2: CanonLabel) -> FusionVector:
    """fuse of the two displays, made once per class pair."""
    fv = p.caches.fuse.get((l1, l2))
    if fv is None:
        fv = p.caches.fuse[l1, l2] = fuse(p, l1.display, l2.display)
    return fv


def gr_mul(p: AlgebraParams, a: FusionVector, b: FusionVector) -> FusionVector:
    """Bilinear extension of fuse to signed combinations."""
    out = FusionVector()
    for l1, m1 in a.entries.items():
        for l2, m2 in b.entries.items():
            fv = _fuse_cached(p, l1, l2)
            for l, m in fv.entries.items():
                out.entries[l] = out.entries.get(l, 0) + m1 * m2 * m
    out.entries = {l: m for l, m in out.entries.items() if m}
    return out


def gr_pow(p: AlgebraParams, a: FusionVector, k: int) -> FusionVector:
    out = one(p)
    for _ in range(k):
        out = gr_mul(p, out, a)
    return out


def one(p: AlgebraParams) -> FusionVector:
    return cls(p, SimpleLabel("V0", p.one, p.one, p.one, 0))


def one_dim_class(p: AlgebraParams, lam) -> FusionVector:
    """Class of the 1-dimensional module a -> lam, b = c = 1 (raises WrongType
    via build_V0 when no such module exists for the beta-case)."""
    return cls(p, SimpleLabel("V0", lam, p.one, p.one, 0))


def g_class(p: AlgebraParams) -> FusionVector:
    """g = [V0(1,1,1;1)]; UnboundGenerator when that label names no module."""
    try:
        return cls(p, SimpleLabel("V0", p.one, p.one, p.one, 1))
    except WrongType as exc:
        raise UnboundGenerator("g = [V0(1,1,1;1)] is not a module here") from exc


def s_full(p: AlgebraParams) -> FusionVector:
    """s = sum_{p} g^p (needs a valid g)."""
    g = g_class(p)
    out = FusionVector()
    acc = one(p)
    for _ in range(p.n):
        out = out + acc
        acc = gr_mul(p, acc, g)
    return out


def canonical_zr_label(p: AlgebraParams, r: int) -> SimpleLabel:
    """z_r = [V_r(1,1,1;0)] with the half-power root g1 = q^((r-1)/2)."""
    if not 2 <= r <= p.t:
        raise ValueError(f"r must lie in [2, t], got {r}")
    return SimpleLabel("Vr", p.sqrt_q ** (r - 1), p.one, p.one, 0, r=r)


def z_class(p: AlgebraParams, r: int) -> FusionVector:
    """z_r as a ring element (z_0 = 0, z_1 = 1)."""
    if r == 0:
        return FusionVector()
    if r == 1:
        return one(p)
    return cls(p, canonical_zr_label(p, r))


def _dickson_coeff(t: int, v: int) -> int:
    c = Fraction(t, t - v) * math.comb(t - v, v)
    assert c.denominator == 1
    return int(c)


def chebyshev_z(p: AlgebraParams, r: int) -> FusionVector:
    """z_r = sum_v (-1)^v C(r-1-v, v) g^((n-1)v) z2^(r-1-2v) evaluated in the ring.

    g is the valid g if one exists, else the trivial class (the reading under
    which the closed form matches the honest z_r classes)."""
    try:
        g = g_class(p)
    except UnboundGenerator:
        g = one(p)
    z2 = z_class(p, 2)
    out = FusionVector()
    for v in range((r - 1) // 2 + 1):
        coeff = (-1) ** v * math.comb(r - 1 - v, v)
        term = gr_mul(p, gr_pow(p, g, ((p.n - 1) * v) % p.n), gr_pow(p, z2, r - 1 - 2 * v))
        out = out + term.scale(coeff)
    return out


# -- expected-class helpers --------------------------------------------------


def chain_pairs(p: AlgebraParams, g1, gamma2, gamma3, i: int) -> FusionVector:
    """Composition factors of a cyclic x-chain of length t with y-killed top.

    The slot with top eigenvalue g1 q^i splits as V_s + V_(t-s)(top q^-s)
    at the minimal s with k_s = 0, or stays a single V_t.  Each factor of
    dimension 1 is a V0 class; a V_r class whose computed r disagrees
    raises WrongType, which marks a printed reading as inapplicable."""
    _b1, _b2, _b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    s = r_value(p, mu, gamma2, gamma3)
    t = p.t
    out = FusionVector()
    for j, r in [(i, t)] if s is None or s == t else [(i, s), (i - s, t - s)]:
        kind, r = ("V0", None) if r == 1 else ("Vr", r)
        out = out + cls(p, SimpleLabel(kind, g1, gamma2, gamma3, j, r=r))
    return out


def vi_family(p: AlgebraParams, g1, gamma2, gamma3, kind: str = "VI"):
    """All seed-classes of kind VI/VII over the character, as ring elements."""
    cands = candidate_simples(p, g1, gamma2, gamma3)
    return [FusionVector({lab: 1}) for lab, _m in cands if lab.kind == kind]


# -- relation framework ------------------------------------------------------


@dataclass
class Reading:
    name: str
    applicable: bool
    holds: bool | None
    detail: str = ""
    # exact = the expected side is a fully pinned FusionVector; structural
    # readings over characters with several seed-classes are not exact
    exact: bool = True


@dataclass
class RelationReport:
    relation_id: str
    bindings: str
    readings: list

    @property
    def ok(self) -> bool:
        """Some reading holds."""
        return any(r.applicable and r.holds for r in self.readings)

    @property
    def inapplicable(self) -> bool:
        """No reading even applies (e.g. a displayed generator is not a module)."""
        return all(not r.applicable for r in self.readings)

    @property
    def passed(self) -> bool:
        """Verification outcome: holds, or honestly reported as inapplicable."""
        return self.ok or self.inapplicable

    def summary(self) -> str:
        parts = []
        for r in self.readings:
            state = "n/a" if not r.applicable else ("holds" if r.holds else "FAILS")
            parts.append(f"{r.name}: {state}")
        return f"{self.relation_id} [{self.bindings}] -> " + "; ".join(parts)

    def as_dict(self):
        return {
            "relation": self.relation_id,
            "bindings": self.bindings,
            "ok": self.ok,
            "inapplicable": self.inapplicable,
            "passed": self.passed,
            "readings": [
                {
                    "name": r.name,
                    "applicable": r.applicable,
                    "holds": r.holds,
                    "detail": r.detail,
                }
                for r in self.readings
            ],
        }


def _try_reading(name, lhs_fn, rhs_fn) -> Reading:
    try:
        rhs = rhs_fn()
    except (WrongType, UnboundGenerator) as exc:
        return Reading(name, False, None, f"inapplicable: {exc}")
    try:
        lhs = lhs_fn()
    except (WrongType, UnboundGenerator) as exc:
        return Reading(name, False, None, f"inapplicable (LHS): {exc}")
    except NoIntegerSolution as exc:
        return Reading(name, True, False, f"LHS decomposition failed: {exc}")
    holds = lhs == rhs
    detail = "" if holds else f"lhs = {lhs!r}; rhs = {rhs!r}"
    return Reading(name, True, holds, detail)


def _structural_vi_reading(p, name, lhs_elem, g1, gamma2, gamma3, total_mult, kind="VI"):
    """LHS must be a nonnegative combination of `kind`-classes over the given
    character with the stated total multiplicity; exact class equality is
    reported when the character has a unique seed-class."""
    fam = vi_family(p, g1, gamma2, gamma3, kind)
    fam_labels = {list(f.entries)[0] for f in fam}
    ok = (
        all(l in fam_labels and m > 0 for l, m in lhs_elem.entries.items())
        and sum(lhs_elem.entries.values()) == total_mult
    )
    note = f"{len(fam)} seed-class(es) at this character"
    if len(fam) == 1 and ok:
        note += "; exact class equality"
    return Reading(
        name, True, ok, note if ok else f"lhs = {lhs_elem!r}; " + note, exact=len(fam) == 1
    )


# -- relation registry -------------------------------------------------------


def rel_thm55_zr_z2(p: AlgebraParams, r: int) -> list:
    lhs = lambda: gr_mul(p, z_class(p, r), z_class(p, 2))
    readings = []
    if 2 <= r <= p.t - 1:
        # z_r z_2 = z_(r+1) + g^(n-1) z_(r-1)
        readings.append(
            _try_reading(
                "proof(i-shift collapses to canonical z_(r-1))",
                lhs,
                lambda: z_class(p, r + 1) + z_class(p, r - 1),
            )
        )
        readings.append(
            _try_reading(
                "printed(g-powers as 1-dim labels)",
                lhs,
                lambda: z_class(p, r + 1)
                + gr_mul(p, one_dim_class(p, p.qpow(p.n - 1)), z_class(p, r - 1)),
            )
        )
    else:  # r = t: z_t z_2 = 2 g^(n-1) z_(t-1) + g^(n-t) + 1
        t = p.t
        readings.append(
            _try_reading(
                "proof(half-shift 1-dims q^(t/2), q^(-t/2))",
                lhs,
                lambda: z_class(p, t - 1).scale(2)
                + one_dim_class(p, p.sqrt_q**t)
                + one_dim_class(p, p.sqrt_q ** (2 * p.n - t)),
            )
        )
        readings.append(
            _try_reading(
                "printed(g^(n-t) + 1 as 1-dim labels)",
                lhs,
                lambda: z_class(p, t - 1).scale(2)
                + one_dim_class(p, p.qpow(p.n - t))
                + one(p),
            )
        )
    return readings


def rel_thm55_star1(p: AlgebraParams) -> list:
    """Eq (*1): both binomial readings (r := t) with printed vs half-shift RHS."""
    t = p.t
    z2 = z_class(p, 2)

    def lhs():
        out = FusionVector()
        for v in range(t // 2 + 1):
            coeff = (-1) ** v * _dickson_coeff(t, v)
            out = out + gr_pow(p, z2, t - 2 * v).scale(coeff)
        return out

    readings = [
        _try_reading(
            "r:=t, RHS printed g^(n-t)+1 (g collapsed to 1)",
            lhs,
            lambda: one_dim_class(p, p.qpow(p.n - t)) + one(p),
        ),
        _try_reading(
            "r:=t, RHS half-shift [q^(t/2)]+[q^(-t/2)]",
            lhs,
            lambda: one_dim_class(p, p.sqrt_q**t) + one_dim_class(p, p.sqrt_q ** (2 * p.n - t)),
        ),
    ]
    return readings


def rel_thm55_chebyshev(p: AlgebraParams, r: int) -> list:
    return [
        _try_reading(
            "closed form equals [V_r(1,1,1;0)]",
            lambda: chebyshev_z(p, r),
            lambda: z_class(p, r),
        )
    ]


def rel_thm55_z2_zprime(p: AlgebraParams, g1xi) -> list:
    g1xi = p.scalar(g1xi)
    zp = lambda i: cls(p, SimpleLabel("Vr", g1xi * p.sqrt_q, p.one, p.one, i, r=p.t))
    lhs = lambda: gr_mul(
        p, z_class(p, 2), cls(p, SimpleLabel("Vr", g1xi, p.one, p.one, 0, r=p.t))
    )
    return [
        _try_reading("proof(z'_(xi q^(n/2)) with i-shift)", lhs, lambda: zp(0) + zp(p.n - 1)),
        _try_reading(
            "printed(same xi, i-shift)",
            lhs,
            lambda: cls(p, SimpleLabel("Vr", g1xi, p.one, p.one, 0, r=p.t))
            + cls(p, SimpleLabel("Vr", g1xi, p.one, p.one, p.n - 1, r=p.t)),
        ),
    ]


def _vt_square_readings(p: AlgebraParams, slot: int, xa, xb, printed: str, thm519_variant=False) -> list:
    """[V_t(a)] [V_t(b)] for V_t classes whose character differs from (1, 1, 1)
    only in `slot` (0: g1, 1: gamma2, 2: gamma3): the chain split per slot of
    the product character, and the printed s'' reading off <q^n1>."""
    xa, xb = p.scalar(xa), p.scalar(xb)
    t = p.t

    def char(x):
        out = [p.one, p.one, p.one]
        out[slot] = x
        return out

    def vt(x, i):
        return cls(p, SimpleLabel("Vr", *char(x), i, r=t))

    prod = char(xa * xb)
    lhs = lambda: gr_mul(p, vt(xa, 0), vt(xb, 0))
    in_q_n1 = r_value(p, *prod) is not None

    def rhs_proof():
        out = FusionVector()
        for k in range(t):
            out = out + chain_pairs(p, *prod, (p.n - k) % p.n)
        return out

    def rhs_shifted(shift):
        out = FusionVector()
        for k in range(t):
            out = out + vt(prod[slot], (shift - k) % p.n)
        return out

    readings = [_try_reading("proof(chain split per slot)", lhs, rhs_proof)]
    if not in_q_n1:
        readings.append(_try_reading(printed, lhs, lambda: rhs_shifted(p.n)))
        if thm519_variant:
            readings.append(_try_reading("thm5.19 variant(g^(n-t) s'' z')", lhs, lambda: rhs_shifted(2 * p.n - t)))
    return readings


def rel_thm55_zprime_zprime(p: AlgebraParams, g1a, g1b) -> list:
    return _vt_square_readings(p, 0, g1a, g1b, "printed(s'' z')", thm519_variant=True)


def _vi_choices(p: AlgebraParams, g1, gamma2, gamma3, kind="VI"):
    """[(tag, class)] for the VI/VII generator: every seed-class at the character."""
    fam = vi_family(p, g1, gamma2, gamma3, kind)
    if not fam:
        raise UnboundGenerator(f"no {kind} simple at this character")
    if len(fam) == 1:
        return [("unique", fam[0])]
    return [(f"class#{k}", f) for k, f in enumerate(fam)]


def _seed_class_products(p: AlgebraParams, kind: str, char, times, target, total: int, name: str) -> list:
    """One structural reading per seed-class C of `kind` at the character
    `char`: times(C), C's product with the other generator, must be `total`
    classes of the kind at the character `target`."""
    return [
        _structural_vi_reading(p, f"{name} [{tag}]", times(c), *target, total, kind=kind)
        for tag, c in _vi_choices(p, *char, kind=kind)
    ]


def rel_thm58_z2_x(p: AlgebraParams, g1z, zeta2) -> list:
    g1z, zeta2 = p.scalar(g1z), p.scalar(zeta2)
    name = "proof(2 V_I classes at zeta1 q^(n/2))"
    char, target = (g1z, p.one, zeta2), (g1z * p.sqrt_q, p.one, zeta2)
    return _seed_class_products(p, "VI", char, lambda x: gr_mul(p, z_class(p, 2), x), target, 2, name)


def _gammas(p: AlgebraParams, kind: str, c) -> tuple:
    """(gamma2, gamma3) = (1, c) on the V_I side (x, z''), (c, 1) on the V_II side (y, z~)."""
    return (p.one, c) if kind == "VI" else (c, p.one)


def _z2_times_vt(p: AlgebraParams, kind: str, xi, printed: str) -> list:
    """z_2 [V_t(1, gammas(xi))] = eta (V_t(xi q^-n1) + its (n-1)-shift), with
    eta = [V0(q^(1/2), gammas(q^n1))]: z'' in Thm 5.8, z~ in Thm 5.17."""
    xi = p.scalar(xi)
    eta = cls(p, SimpleLabel("V0", p.sqrt_q, *_gammas(p, kind, p.qpow(p.n1)), 0))
    vt = lambda x, i: cls(p, SimpleLabel("Vr", p.one, *_gammas(p, kind, x), i, r=p.t))
    lhs = lambda: gr_mul(p, z_class(p, 2), vt(xi, 0))
    xiq = xi * p.qpow(-p.n1)
    return [_try_reading(printed, lhs, lambda: gr_mul(p, eta, vt(xiq, 0) + vt(xiq, p.n - 1)))]


def _seed_class_times_vt(p: AlgebraParams, kind: str, g1, c2, xi, printed: str) -> list:
    """[V_I(g1, 1, c2)] z''_xi or [V_II(g1, c2, 1)] z~_xi: t classes of the
    same kind at the character with c2 xi in place of c2."""
    g1, c2, xi = p.scalar(g1), p.scalar(c2), p.scalar(xi)
    vt = cls(p, SimpleLabel("Vr", p.one, *_gammas(p, kind, xi), 0, r=p.t))
    char, target = (g1, *_gammas(p, kind, c2)), (g1, *_gammas(p, kind, c2 * xi))
    return _seed_class_products(p, kind, char, lambda c: gr_mul(p, c, vt), target, p.t, printed)


def rel_thm58_z2_zdprime(p: AlgebraParams, xi) -> list:
    return _z2_times_vt(p, "VI", xi, "printed(eta (z''_(xi q^-n1) + g^(n-1) z''))")


def rel_thm58_x_zdprime(p: AlgebraParams, g1z, zeta2, xi) -> list:
    return _seed_class_times_vt(p, "VI", g1z, zeta2, xi, "printed(s'' x_(zeta1, zeta2 xi))")


def rel_thm58_zd_zd(p: AlgebraParams, xi, xip) -> list:
    return _vt_square_readings(p, 2, xi, xip, "printed(s'' z''_(xi xi'))")


def _product_case_readings(p, lhs_elem, G, g2prod, g3prod, casename) -> list:
    """Readings for a V_I/V_II product with product character (G^n, g2, g3).

    Case split mirrors the displayed tables: n x (kind at the character)
    constituents when beta1'' or beta2'' is nonzero; V0 ladders when all
    primed parameters vanish with beta3 = 0; chain splitting when beta3 != 0."""
    b1pp, b2pp, _b3, _mu = kind_conditions(p, G, g2prod, g3prod, 0)
    if not (b1pp.is_zero() and b2pp.is_zero()):
        kind = "VII" if b1pp.is_zero() else "VI"
        name = f"{casename}: n V_{kind[1:]} constituents"
        return [
            _structural_vi_reading(p, name, lhs_elem, G, g2prod, g3prod, p.n, kind=kind),
            _s_times_reading(p, lhs_elem, G, g2prod, g3prod, kind),
        ]
    if p.beta[2].is_zero():
        # n s g_(...): n copies of every 1-dim class over the character
        def rhs_v0():
            out = FusionVector()
            for j in range(p.n):
                out = out + cls(p, SimpleLabel("V0", G, g2prod, g3prod, j))
            return out.scale(p.n)

        return [_try_reading(f"{casename}: n s g (V0 ladder)", lambda: lhs_elem, rhs_v0)]

    def rhs_chains():
        out = FusionVector()
        for slot in range(p.n):
            for k in range(p.u):
                out = out + chain_pairs(p, G, g2prod, g3prod, (p.n - slot - k * p.t) % p.n)
        return out

    return [_try_reading(f"{casename}: chain split per slot", lambda: lhs_elem, rhs_chains)]


def _s_times_reading(p, lhs_elem, G, g2prod, g3prod, kind) -> Reading:
    """RHS = s * (a seed-class at the character): valid whenever g exists."""
    try:
        s = s_full(p)
    except UnboundGenerator as exc:
        return Reading(f"printed(s {kind} class)", False, None, f"inapplicable: {exc}")
    fam = vi_family(p, G, g2prod, g3prod, kind)
    if not fam:
        return Reading(f"printed(s {kind} class)", False, None, "no such class")
    values = []
    for C in fam:
        val = gr_mul(p, s, C)
        if all(val != v for v in values):
            values.append(val)
    hold = any(lhs_elem == v for v in values)
    note = f"{len(fam)} seed-class(es); s*C distinct values: {len(values)}"
    return Reading(f"printed(s {kind} class)", True, hold, note if hold else f"lhs = {lhs_elem!r}; " + note)


def _same_kind_product(p: AlgebraParams, kind: str, g1a, c2a, g1b, c2b) -> list:
    """[V_I][V_I] over characters (g1, 1, c2), or [V_II][V_II] over (g1, c2, 1)."""
    g1a, c2a = p.scalar(g1a), p.scalar(c2a)
    g1b, c2b = p.scalar(g1b), p.scalar(c2b)
    G = g1a * g1b
    readings = []
    for tag_a, ca in _vi_choices(p, g1a, *_gammas(p, kind, c2a), kind=kind):
        for tag_b, cb in _vi_choices(p, g1b, *_gammas(p, kind, c2b), kind=kind):
            lhs_elem = gr_mul(p, ca, cb)
            case = f"[{tag_a} x {tag_b}]"
            readings.extend(_product_case_readings(p, lhs_elem, G, *_gammas(p, kind, c2a * c2b), case))
    return readings


def rel_x_times_x(p: AlgebraParams, g1a, zeta2a, g1b, zeta2b) -> list:
    """The V_I x V_I product in all of its displayed cases (Thms 5.8/5.10/5.15/5.19)."""
    return _same_kind_product(p, "VI", g1a, zeta2a, g1b, zeta2b)


def rel_x_times_y(p: AlgebraParams, g1z, zeta2, g1e, eps2) -> list:
    """x_(zeta1,zeta2) y_(eps1,eps2) = s g_(eps1,eps2,eps2) x_(zeta1, zeta2 eps2^-1) = y x."""
    g1z, zeta2 = p.scalar(g1z), p.scalar(zeta2)
    g1e, eps2 = p.scalar(g1e), p.scalar(eps2)
    G = g1z * g1e
    readings = []
    for tag_x, xcls in _vi_choices(p, g1z, p.one, zeta2):
        for tag_y, ycls in _vi_choices(p, g1e, eps2, p.one, kind="VII"):
            lhs = gr_mul(p, xcls, ycls)
            case = f"[{tag_x} x {tag_y}]"
            readings.append(
                _structural_vi_reading(
                    p, f"printed(s g x_(zeta1, zeta2 eps2^-1)) {case}", lhs, G, eps2, zeta2, p.n
                )
            )
            readings.append(_s_times_reading(p, lhs, G, eps2, zeta2, "VI"))
            rhs_comm = gr_mul(p, ycls, xcls)
            readings.append(
                Reading(
                    f"two-sided (xy = yx) {case}",
                    True,
                    lhs == rhs_comm,
                    "" if lhs == rhs_comm else f"xy = {lhs!r}; yx = {rhs_comm!r}",
                )
            )
    return readings


def rel_y_times_y(p: AlgebraParams, g1a, eps2a, g1b, eps2b) -> list:
    """The V_II x V_II product cases (Thms 5.13/5.15/5.17/5.19)."""
    return _same_kind_product(p, "VII", g1a, eps2a, g1b, eps2b)


def rel_thm517_z2_ztilde(p: AlgebraParams, xi) -> list:
    return _z2_times_vt(p, "VII", xi, "printed(eta' (z~_(xi q^-n1) + g^(n-1) z~))")


def rel_thm517_y_ztilde(p: AlgebraParams, g1e, eps2, xi) -> list:
    return _seed_class_times_vt(p, "VII", g1e, eps2, xi, "printed(s'' y_(eps1, eps2 xi))")


def rel_thm517_zt_zt(p: AlgebraParams, xi, xip) -> list:
    return _vt_square_readings(p, 1, xi, xip, "printed(s'' z~_(xi xi'))")


def rel_thm519_x_zprime(p: AlgebraParams, g1z, zeta2, g1xi) -> list:
    """x_(zeta1,zeta2) z'_xi = g^(n-t) s'' x_(zeta1 xi, zeta2)."""
    g1z, zeta2, g1xi = p.scalar(g1z), p.scalar(zeta2), p.scalar(g1xi)
    zp = cls(p, SimpleLabel("Vr", g1xi, p.one, p.one, 0, r=p.t))
    name = "printed(g^(n-t) s'' x_(zeta1 xi, zeta2))"
    char, target = (g1z, p.one, zeta2), (g1z * g1xi, p.one, zeta2)
    return _seed_class_products(p, "VI", char, lambda x: gr_mul(p, x, zp), target, p.t, name)


def rel_gn(p: AlgebraParams) -> list:
    def lhs():
        return gr_pow(p, g_class(p), p.n)

    return [_try_reading("g^n = 1", lhs, lambda: one(p))]


RELATIONS = {
    "thm5.5.zr_z2": rel_thm55_zr_z2,
    "thm5.5.star1": rel_thm55_star1,
    "thm5.5.chebyshev": rel_thm55_chebyshev,
    "thm5.5.z2_zprime": rel_thm55_z2_zprime,
    "thm5.5.zprime_zprime": rel_thm55_zprime_zprime,
    "thm5.8.z2_x": rel_thm58_z2_x,
    "thm5.8.z2_zdprime": rel_thm58_z2_zdprime,
    "thm5.8.x_zdprime": rel_thm58_x_zdprime,
    "thm5.8.zd_zd": rel_thm58_zd_zd,
    "x_times_x": rel_x_times_x,
    "x_times_y": rel_x_times_y,
    "y_times_y": rel_y_times_y,
    "thm5.17.z2_ztilde": rel_thm517_z2_ztilde,
    "thm5.17.y_ztilde": rel_thm517_y_ztilde,
    "thm5.17.zt_zt": rel_thm517_zt_zt,
    "thm5.19.x_zprime": rel_thm519_x_zprime,
    "g_power": rel_gn,
}


def verify_relation(p: AlgebraParams, relation_id: str, **bindings) -> RelationReport:
    fn = RELATIONS.get(relation_id)
    if fn is None:
        raise KeyError(f"unknown relation id {relation_id!r}; known: {sorted(RELATIONS)}")
    try:
        readings = fn(p, **bindings)
    except (WrongType, UnboundGenerator) as exc:
        readings = [Reading("bindings", False, None, f"inapplicable: {exc}")]
    return RelationReport(relation_id, ", ".join(f"{k}={v!r}" for k, v in sorted(bindings.items())), readings)


# -- suites ------------------------------------------------------------------


def run_suite(p: AlgebraParams, suite: str, N: int | None = None) -> tuple[bool, list | dict]:
    """Run one of SUITES at p: (passed, results as report dicts).

    The quotient suites work in Gelaki's quotient by a^N - 1 and need N
    (radford's p is Gelaki's algebra at Radford's parameters, see
    radford_context): the orders of Cor 5.3, x*'s power in its case 1
    (beta3 = 0, beta1 or beta2 nonzero) and the inherited thm5.5 family when
    beta3 != 0.  remark5.21's results are the comparison of the quotient
    ring with the one at beta2 = 0."""
    if suite not in ("cor-gelaki", "radford", "remark5.21"):
        reports = [verify_relation(p, rid, **b) for rid, b in default_suite_instances(p, suite)]
        return all(r.passed for r in reports), [r.as_dict() for r in reports]
    if N is None:
        raise ValueError(f"suite {suite} needs N")
    ctx = GelakiContext(p, N)
    if suite == "remark5.21":
        b1, _b2, b3 = p.beta
        cmp = compare_fusion_rings(ctx, GelakiContext(AlgebraParams(p.n, p.n1, beta=(b1, p.zero, b3)), N))
        return bool(cmp.get("equal")), cmp
    reports = ctx.verify_orders()
    if ctx.case() == 1:
        reports.append(ctx.verify_xstar_power())
    if not p.beta[2].is_zero():
        # the inherited z-relation family (the quotient's z'-power identity
        # is an instance of the z' x z' product relation)
        reports.extend(verify_relation(p, rid, **b) for rid, b in default_suite_instances(p, "thm5.5"))
    return all(r.passed for r in reports), [r.as_dict() for r in reports]


SUITES = (
    "thm5.5",
    "thm5.8",
    "thm5.10",
    "thm5.13",
    "thm5.15",
    "thm5.17",
    "thm5.19",
    "cor-gelaki",
    "radford",
    "remark5.21",
)


def _aux_root(p: AlgebraParams, avoid_pows=()):
    """A root of unity in the working field outside <q^n1>-type subgroups."""
    from .cyclo import divisors

    for d in sorted(divisors(p.M), reverse=True):
        z = root_of_unity(p.M, p.M // d)
        if d > 1 and not any(cond(z) for cond in avoid_pows):
            return z
    raise UnboundGenerator("no auxiliary root of unity available; enlarge extra_orders")


def default_suite_instances(p: AlgebraParams, suite: str):
    """Reasonable parameter bindings for each relation suite at the given p."""

    def gamma1_n1_is_one(z):
        # a V_I/V_II generator at g1 = z needs gamma1^n1 = (z^n)^n1 != 1
        return ((z ** p.n) ** p.n1 - p.one).is_zero()

    def has_r(slot):
        # a z-type generator needs its slot of the character (mu, gamma2,
        # gamma3), the others 1, outside <q^n1>: r_value finds no r
        return lambda z: r_value(p, *(z if k == slot else p.one for k in range(3))) is not None

    def squares(rid, name, g1, c2, c2_inv):
        # the generator at (g1, c2) times itself and times its inverse
        a = {"g1a": g1, name + "a": c2}
        return [(rid, {**a, "g1b": g1, name + "b": c2}), (rid, {**a, "g1b": g1.inv(), name + "b": c2_inv})]

    if suite == "thm5.5":
        out = [("thm5.5.star1", {})]
        for r in range(2, p.t + 1):
            out.append(("thm5.5.zr_z2", {"r": r}))
            out.append(("thm5.5.chebyshev", {"r": r}))
        # a z'-generator needs g1 with g1^(2 n1) outside <q^n1>
        try:
            xi = _aux_root(p, avoid_pows=[has_r(0)])
            out.append(("thm5.5.z2_zprime", {"g1xi": xi}))
            out.append(("thm5.5.zprime_zprime", {"g1a": xi, "g1b": xi}))
            out.append(("thm5.5.zprime_zprime", {"g1a": xi, "g1b": xi.inv()}))
        except UnboundGenerator:
            pass
        return out
    if suite not in ("thm5.8", "thm5.10", "thm5.13", "thm5.15", "thm5.17", "thm5.19"):
        raise KeyError(f"no default instances for suite {suite!r}")
    # the V_I generator root zeta1 (eps1 for V_II); zeta2 = zeta1^n1 keeps
    # the k-seed constraint target zero (in-field seeds)
    zeta1 = _aux_root(p, avoid_pows=[gamma1_n1_is_one])
    z2 = zeta1**p.n1
    if suite == "thm5.8":
        xi = _aux_root(p, avoid_pows=[has_r(2)])
        return [
            ("thm5.8.z2_x", {"g1z": zeta1, "zeta2": 1}),
            ("thm5.8.z2_zdprime", {"xi": xi}),
            ("thm5.8.x_zdprime", {"g1z": zeta1, "zeta2": 1, "xi": xi}),
            ("thm5.8.zd_zd", {"xi": xi, "xip": xi}),
            ("thm5.8.zd_zd", {"xi": xi, "xip": xi.inv()}),
        ] + squares("x_times_x", "zeta2", zeta1, 1, 1)
    if suite == "thm5.13":
        return squares("y_times_y", "eps2", zeta1, z2, z2.inv())
    if suite == "thm5.17":
        xi = _aux_root(p, avoid_pows=[has_r(1)])
        return [
            ("thm5.17.z2_ztilde", {"xi": xi}),
            ("thm5.17.y_ztilde", {"g1e": zeta1, "eps2": z2, "xi": xi}),
            ("thm5.17.zt_zt", {"xi": xi, "xip": xi}),
            ("thm5.17.zt_zt", {"xi": xi, "xip": xi.inv()}),
        ] + squares("y_times_y", "eps2", zeta1, z2, z2.inv())[:1]
    out = squares("x_times_x", "zeta2", zeta1, z2, z2.inv())
    if suite == "thm5.10":
        return out
    out.append(("x_times_y", {"g1z": zeta1, "zeta2": z2, "g1e": zeta1, "eps2": z2}))
    if suite == "thm5.15":
        return out
    # thm5.19
    out[:0] = [("thm5.5.star1", {}), ("thm5.5.zr_z2", {"r": 2})]
    try:
        # a z'-generator needs gamma1^n1 = 1 with g1^(2 n1) outside <q^n1>;
        # no such root exists at small n (e.g. (3,1)) and the entry is skipped
        xi = _aux_root(p, avoid_pows=[lambda z: not gamma1_n1_is_one(z), has_r(0)])
        out.insert(2, ("thm5.19.x_zprime", {"g1z": zeta1, "zeta2": z2, "g1xi": xi}))
    except UnboundGenerator:
        pass
    return out


# -- Gelaki / Radford specialization ----------------------------------------


class GelakiContext:
    """The quotient by (a^N - 1, b - 1, c - 1): label filter + generators.

    Representations are H_beta-modules with gamma2 = gamma3 = 1 and
    gamma1^(N/n) = 1; fusion is computed upstairs.
    """

    def __init__(self, p: AlgebraParams, N: int):
        if N % p.n != 0:
            raise ValueError("need n | N")
        if p.M % N != 0:
            raise ValueError("working modulus lacks an N-th root; pass extra_orders=(N,)")
        self.p = p
        self.N = N
        self.frak_q = root_of_unity(p.M, p.M // N)

    def labels(self):
        """All simple classes of the quotient, as (CanonLabel, coarse_key) pairs.

        coarse_key is algebra-independent, at the granularity of the source
        material's labels: 1-dims by eigenvalue, V_r by (top eigenvalue, r),
        V_I/V_II by central character only.  Several non-isomorphic
        seed-classes can share a coarse key; canonical bijections between
        contexts work at this level and the comparison verifies cell
        consistency across representatives.  A coarse key holds its
        scalar as (m, coefficients()), the Fraction form that
        compare_fusion_rings prints.
        """
        p = self.p
        out = []
        for k in range(self.N // p.n):
            g1 = self.frak_q**k
            cands = candidate_simples(p, g1, p.one, p.one)
            for lab, _m in cands:
                if lab.kind == "V0":
                    mu = lab.display.g1 * p.qpow(lab.display.i)
                    key = ("V0", (mu.m, mu.coefficients()))
                elif lab.kind == "Vr":
                    mu = lab.display.g1 * p.qpow(lab.display.i)
                    key = ("Vr", (mu.m, mu.coefficients()), lab.display.r)
                else:
                    gamma1 = lab.display.g1**p.n
                    key = (lab.kind, (gamma1.m, gamma1.coefficients()))
                out.append((lab, key))
        return out

    # generator classes per Corollary 5.3's cases -----------------------

    def case(self) -> int:
        b1, b2, b3 = self.p.beta
        z1, z2, z3 = b1.is_zero(), b2.is_zero(), b3.is_zero()
        if z3 and not (z1 and z2):
            return 1  # beta3 = 0, some beta1/beta2 nonzero
        if not z3 and z1 and z2:
            return 2
        if not z3 and not (z1 and z2):
            return 3
        return 4  # all zero

    def h_data(self):
        """(name, displayed exponent of frak_q, claimed order) per Cor 5.3's cases."""
        p, N = self.p, self.N
        n, n1 = p.n, p.n1
        case = self.case()
        if case == 1:
            d = math.gcd(N // n, n1)
            return "h", N // d, d
        if case == 2:
            g2 = math.gcd(N, 2 * n1)
            return "h1", N * n // g2, g2 // math.gcd(n, 2 * n1)
        if case == 3:
            g3 = math.gcd(N, 2 * n1, n * n1)
            nu = N // g3
            return "h2", n * nu, g3 // math.gcd(n, 2 * n1)
        return "h3", n, N // n

    def h_candidates(self):
        """(name, order, candidates) for the h-generator, where candidates is a
        list of (convention, class, error) triples (class None on an error).

        The displayed [V0(frak_q^E, 1, 1; 0)] fixes no n-th root of frak_q^E;
        every root inside the N-th roots of unity is offered (g1 = frak_q^k
        with n k = E mod N)."""
        name, E, order = self.h_data()
        p, N = self.p, self.N
        out = []
        if E % p.n != 0:
            return name, order, out
        for j in range(p.n):
            k = (E // p.n + j * (N // p.n)) % N
            conv = f"root frak_q^{k}"
            try:
                c = cls(p, SimpleLabel("V0", self.frak_q**k, p.one, p.one, 0))
            except WrongType as exc:
                out.append((conv, None, str(exc)))
                continue
            out.append((conv, c, ""))
        return name, order, out

    def verify_orders(self) -> list[RelationReport]:
        """g^n = 1 and the printed h-order for this beta-case (all conventions)."""
        p = self.p
        reports = [verify_relation(p, "g_power")]
        name, order, candidates = self.h_candidates()
        readings = []
        for conv, h, err in candidates:
            if h is None:
                readings.append(
                    Reading(f"{name}^{order} = 1 [{conv} root]", False, None, f"not a module: {err}")
                )
                continue
            readings.append(
                _try_reading(
                    f"{name}^{order} = 1 [{conv} root]",
                    lambda h=h: gr_pow(p, h, order),
                    lambda: one(p),
                )
            )
        reports.append(RelationReport(f"cor5.3.{name}_order", f"N={self.N}", readings))
        return reports

    def _h_for_power_relation(self) -> FusionVector:
        name, _order, candidates = self.h_candidates()
        h = next((h for _conv, h, _err in candidates if h is not None), None)
        if h is None:
            raise UnboundGenerator(f"{name} names no module under either root convention")
        return h

    def _star_power(self, kind: str, relation_id: str, name: str) -> RelationReport:
        """Cor 5.11 / 5.14 / 5.16: star^(N/(N/n,n1)) = n^(...-1) s h (beta3 = 0),
        with x* or y* = [V(frak_q^n, 1, 1; 0)] of the kind (its unique seed-class)."""
        p, N = self.p, self.N
        D = N // math.gcd(N // p.n, p.n1)

        def star():
            choices = _vi_choices(p, self.frak_q, p.one, p.one, kind)
            if len(choices) > 1:
                raise UnboundGenerator(
                    f"{len(choices)} non-isomorphic {kind} seed-classes at this character; "
                    "the displayed generator is ambiguous"
                )
            return choices[0][1]

        reading = _try_reading(
            f"{name}^{D} = n^{D-1} s h",
            lambda: gr_pow(p, star(), D),
            lambda: gr_mul(p, s_full(p), self._h_for_power_relation()).scale(p.n ** (D - 1)),
        )
        return RelationReport(relation_id, f"N={N}", [reading])

    def verify_xstar_power(self) -> RelationReport:
        return self._star_power("VI", "cor5.11.xstar_power", "x*")

    def verify_ystar_power(self) -> RelationReport:
        return self._star_power("VII", "cor5.14.ystar_power", "y*")

    def fusion_table(self):
        labels = self.labels()
        table = {}
        for i, (la, _ka) in enumerate(labels):
            for j, (lb, _kb) in enumerate(labels):
                table[(i, j)] = _fuse_cached(self.p, la, lb)
        return labels, table


def radford_context(N: int, nu: int) -> GelakiContext:
    """U_(N,nu,omega) = Gelaki's algebra at (N/(N,nu), N, nu, omega^nu, 0, 0, 1)."""
    if (nu * nu) % N == 0:
        raise ValueError("Radford's algebra needs N not dividing nu^2")
    n = N // math.gcd(N, nu)
    p = AlgebraParams(n, nu, beta=(0, 0, 1), extra_orders=(N,))
    return GelakiContext(p, N)


def _coarse_table(ctx: GelakiContext):
    """Fusion table at the coarse-label level, with the number of simple
    classes per coarse label and a consistency check: the coarsened cell
    value must not depend on which representative classes are multiplied."""
    labels = ctx.labels()
    lookup = {lab: key for lab, key in labels}
    reps: dict = {}
    for lab, key in labels:
        reps.setdefault(key, []).append(lab)

    def coarsen(fv: FusionVector):
        out = {}
        for lab, mult in fv.entries.items():
            key = lookup.get(lab)
            if key is None:
                return None
            out[key] = out.get(key, 0) + mult
        return out

    table = {}
    counts = {key: len(v) for key, v in reps.items()}
    for ka, la_list in reps.items():
        for kb, lb_list in reps.items():
            value = None
            for la in la_list:
                for lb in lb_list:
                    cell = coarsen(_fuse_cached(ctx.p, la, lb))
                    if cell is None:
                        return None, counts, f"cell ({ka},{kb}) leaves the quotient label set"
                    if value is None:
                        value = cell
                    elif value != cell:
                        return None, counts, f"cell ({ka},{kb}) depends on the seed-class choice"
            table[(ka, kb)] = value
    return table, counts, None


def compare_fusion_rings(ctxA: GelakiContext, ctxB: GelakiContext):
    """Compare full fusion tables under the canonical coarse-label bijection.

    Coarse labels are the customary (kind, character) names; the
    comparison also reports the per-label simple-class counts, which CAN
    differ between the two algebras (non-isomorphic k-seed classes).
    """
    tableA, countsA, errA = _coarse_table(ctxA)
    tableB, countsB, errB = _coarse_table(ctxB)
    if errA or errB:
        return {"equal": False, "mismatch": errA or errB}
    if set(countsA) != set(countsB):
        return {
            "equal": False,
            "mismatch": "coarse label sets differ",
            "only_A": sorted(str(k) for k in set(countsA) - set(countsB)),
            "only_B": sorted(str(k) for k in set(countsB) - set(countsA)),
        }
    for key in tableA:
        if tableA[key] != tableB[key]:
            return {
                "equal": False,
                "mismatch": f"cell {key}",
                "A": {str(k): v for k, v in tableA[key].items()},
                "B": {str(k): v for k, v in tableB[key].items()},
            }
    return {
        "equal": True,
        "labels": len(countsA),
        "class_counts_A": {str(k): v for k, v in sorted(countsA.items(), key=lambda t: str(t[0]))},
        "class_counts_B": {str(k): v for k, v in sorted(countsB.items(), key=lambda t: str(t[0]))},
        "class_counts_match": countsA == countsB,
    }
