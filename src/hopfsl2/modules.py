"""Explicit simple modules and extensions as exact matrices.

Every module is five dim x dim matrices (the images of a, b, c, x, y) over a
cyclotomic field or a small algebraic extension of one (for k-seeds that are
not cyclotomic).  Constructors derive all structure constants from the
defining relations: the y-coefficients of the n-dimensional simples are
solved from the yx-straightening recurrence seeded by k1 (resp. k_n) and the
degree-n product constraint is checked exactly; displayed closed forms are
cross-checks, not inputs.

The field rule: character data (g1, gamma2, gamma3, hence mu) lies in
Q(zeta_M), is read through p.scalar (TypeError for tower values) and meets
only p.q, p.qpow and p.beta.  Only a V_I/V_II k-seed can lie outside every
cyclotomic field; such a module's matrices are lifted once into its tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, product
from typing import Optional

from .algebra import AlgebraParams
from .extfield import field_zero, find_field_roots, lift, split_roots
from .linalg import (
    identity,
    mat_add,
    mat_eq,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    nullspace,
    rank,
    solve,
    transpose,
    zeros,
)

__all__ = [
    "WrongType",
    "SeedConstraintViolated",
    "InternalInconsistency",
    "FieldTooSmall",
    "ParameterConstraint",
    "SimpleLabel",
    "ModuleRep",
    "Extension",
    "kind_conditions",
    "r_value",
    "build_V0",
    "build_Vr",
    "build_VI",
    "build_VII",
    "build_simple",
    "solve_k_seed",
    "verify_module",
    "is_simple",
    "dual_module",
    "intertwiner_space",
    "modules_isomorphic",
    "is_split",
    "is_split_triple",
    "direct_sum_extension",
    "build_extension_prop46",
    "build_extension_prop47",
    "prop46_hypothesis",
]


class WrongType(ValueError):
    pass


class SeedConstraintViolated(ValueError):
    pass


class InternalInconsistency(ArithmeticError):
    pass


class FieldTooSmall(ValueError):
    pass


class ParameterConstraint(ValueError):
    pass


@dataclass(frozen=True)
class SimpleLabel:
    """Canonical name of a simple module.

    g1 is a chosen n-th root of the central character value gamma1 = g1^n;
    the module's top a-eigenvalue is mu = g1 * q^i.  For kinds VI/VII the
    kseed is the y-coefficient k1 at m0 (resp. the x-coefficient k_n).
    """

    kind: str  # 'V0' | 'VI' | 'VII' | 'Vr'
    g1: object
    gamma2: object
    gamma3: object
    i: int = 0
    r: Optional[int] = None
    kseed: object = None

    def __str__(self):
        parts = [repr(self.g1), repr(self.gamma2), repr(self.gamma3)]
        s = f"{self.kind}({', '.join(parts)}; {self.i}"
        if self.r is not None:
            s += f"; r={self.r}"
        if self.kseed is not None:
            s += f"; k={self.kseed!r}"
        return s + ")"


@dataclass
class ModuleRep:
    dim: int
    mats: dict
    label: object
    params: AlgebraParams

    def mat(self, name: str):
        return self.mats[name]

    def zero_scalar(self):
        return self.mats["a"][0][0].zero()

    def one_scalar(self):
        return self.mats["a"][0][0].one()


@dataclass
class Extension:
    """A short exact sequence sub -> total -> quot with explicit maps."""

    total: ModuleRep
    sub: ModuleRep
    quot: ModuleRep
    incl: list  # dim_total x dim_sub
    proj: list  # dim_quot x dim_total


# -- labels ------------------------------------------------------------------


def _label(p: AlgebraParams, kind: str, g1, gamma2, gamma3, i: int, **extra) -> SimpleLabel:
    """The label of a built module: character data in Q(zeta_M), i mod n."""
    return SimpleLabel(kind, p.scalar(g1), p.scalar(gamma2), p.scalar(gamma3), i % p.n, **extra)


# -- kind conditions -------------------------------------------------------


def kind_conditions(p: AlgebraParams, g1, gamma2, gamma3, i: int):
    """(beta1'', beta2'', beta3''(i), mu) for the character data, in Q(zeta_M)."""
    g1, gamma2, gamma3 = p.scalar(g1), p.scalar(gamma2), p.scalar(gamma3)
    b1, b2, b3 = p.beta
    gamma1 = g1**p.n
    mu = g1 * p.qpow(i)
    beta1pp = b1 * (gamma1**p.n1 - gamma2**p.n)
    beta2pp = b2 * (gamma1**p.n1 - gamma3**p.n)
    beta3pp = b3 * (mu ** (2 * p.n1) - gamma2 * gamma3)
    return beta1pp, beta2pp, beta3pp, mu


def r_value(p: AlgebraParams, mu, gamma2, gamma3) -> Optional[int]:
    """Minimal v >= 1 with mu^(2 n1) q^((1-v) n1) = gamma2*gamma3, else None."""
    target = p.scalar(gamma2) * p.scalar(gamma3)
    lhs = p.scalar(mu) ** (2 * p.n1)
    for v in range(1, p.t + 1):
        if (lhs * p.qpow(p.n1 * (1 - v)) - target).is_zero():
            return v
    return None


# -- constructors ----------------------------------------------------------


def build_V0(p: AlgebraParams, g1, gamma2, gamma3, i: int) -> ModuleRep:
    """The 1-dimensional module a -> g1 q^i, b -> gamma2, c -> gamma3, x = y = 0."""
    b1, b2, b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    if not (b1.is_zero() and b2.is_zero() and b3.is_zero()):
        raise WrongType("V0 requires beta1'' = beta2'' = beta3''(i) = 0")
    label = _label(p, "V0", g1, gamma2, gamma3, i)
    mats = {"a": [[mu]], "b": [[label.gamma2]], "c": [[label.gamma3]], "x": [[p.zero]], "y": [[p.zero]]}
    return ModuleRep(1, mats, label, p)


def _seed_affine_chain(p: AlgebraParams, kind: str, mu, gamma2, gamma3, lead, steps: int):
    """The straightening chain as affine forms (alpha_j, delta_j) of the seed s.

    mu_j(s) = alpha_j s + delta_j for j = 0..steps, with mu_0(s) = lead s and
    mu_(j+1) = q^-n1 mu_j + c_j, c_j = beta3 (mu^(2 n1) q^e_j - gamma2 gamma3).
    V_I and V_r read their y-coefficients upward (e_j = -2 j n1); V_II reads
    its x-coefficients downward from position n (e_j = 2 (n-1-j) n1).
    """
    b3 = p.beta[2]
    g2g3 = p.scalar(gamma2) * p.scalar(gamma3)
    qn1_inv = p.qpow(-p.n1)
    mu2 = mu ** (2 * p.n1)
    n = p.n
    forms = [(lead, p.zero)]
    for j in range(steps):
        e = 2 * (n - 1 - j) * p.n1 if kind == "VII" else -2 * j * p.n1
        c_j = b3 * (mu2 * p.qpow(e) - g2g3)
        alpha, delta = forms[-1]
        forms.append((qn1_inv * alpha, qn1_inv * delta + c_j))
    return forms


def _by_position(kind: str, chain: list) -> list:
    """Chain entries 1..n-1 of an (n+1)-entry chain, ordered by the matrix
    position they fill: V_I reads the chain upward, V_II downward."""
    return chain[1:-1] if kind == "VI" else chain[-2:0:-1]


def _seed_forms(p: AlgebraParams, kind: str, mu, gamma2, gamma3, b1, b2) -> list:
    """The affine forms (alpha_j, delta_j) whose product times s is the seed constraint."""
    if kind not in ("VI", "VII"):
        raise WrongType("k-seeds exist only for kinds VI and VII")
    lead = b1 if kind == "VI" else b2
    return _by_position(kind, _seed_affine_chain(p, kind, mu, gamma2, gamma3, lead, p.n))


def _check_cyclic_kind(kind: str, b1, b2) -> None:
    """The character conditions of V_I (beta1'' != 0) and V_II (beta1'' = 0 != beta2'')."""
    if kind == "VI" and b1.is_zero():
        raise WrongType("VI requires beta1'' != 0")
    if kind == "VII" and not b1.is_zero():
        raise WrongType("VII requires beta1'' = 0")
    if kind == "VII" and b2.is_zero():
        raise WrongType("VII requires beta2'' != 0")


def _scalar_mat(s, dim: int):
    return mat_scale(s, identity(s.one(), dim))


def _chain_module(p: AlgebraParams, label, zero, mu, gamma2, gamma3, up: str, wrap, coeffs, seed) -> ModuleRep:
    """The module on v_0..v_(d-1), d = len(coeffs) + 1, over the field of
    `zero`, with b and c scalar.

    `up` (x or y) sends v_j -> v_(j+1) and v_(d-1) -> wrap v_0; the other of
    x, y sends v_j -> coeffs[j-1] v_(j-1) and v_0 -> seed v_(d-1); a v_j is
    mu q^-j v_j when x is the up-shift and mu q^j v_j when y is."""
    d = len(coeffs) + 1
    down, sign = ("y", -1) if up == "x" else ("x", 1)
    mats = {
        "a": zeros(p.zero, d, d),
        "b": _scalar_mat(p.scalar(gamma2), d),
        "c": _scalar_mat(p.scalar(gamma3), d),
        "x": zeros(p.zero, d, d),
        "y": zeros(p.zero, d, d),
    }
    for j in range(d):
        mats["a"][j][j] = mu * p.qpow(sign * j)
    for j in range(d - 1):
        mats[up][j + 1][j] = p.one
        mats[down][j][j + 1] = coeffs[j]
    mats[up][0][d - 1] = wrap
    mats[down][d - 1][0] = seed
    return ModuleRep(d, {g: [[lift(x, zero) for x in row] for row in mat] for g, mat in mats.items()}, label, p)


def _vr_k_coeffs(p: AlgebraParams, mu, gamma2, gamma3, length: int):
    """k_1..k_length of the V_r chain (k_0 = 0)."""
    return [delta for _alpha, delta in _seed_affine_chain(p, "Vr", mu, gamma2, gamma3, p.zero, length)[1:]]


def build_Vr(p: AlgebraParams, g1, gamma2, gamma3, i: int) -> ModuleRep:
    """The r-dimensional simple with x a strict up-shift and y m0 = 0."""
    b1, b2, b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    if not (b1.is_zero() and b2.is_zero()):
        raise WrongType("Vr requires beta1'' = beta2'' = 0")
    if b3.is_zero():
        raise WrongType("Vr requires beta3''(i) != 0")
    v = r_value(p, mu, gamma2, gamma3)
    r = v if v is not None else p.t
    if not 2 <= r <= p.t:
        raise InternalInconsistency(f"computed r = {r} outside [2, t]")
    ks = _vr_k_coeffs(p, mu, gamma2, gamma3, r)
    for l, k in enumerate(ks[:-1], start=1):
        if k.is_zero():
            raise InternalInconsistency(f"k_{l} vanished below the minimal r")
    if not ks[-1].is_zero():
        raise InternalInconsistency("k_r != 0: the r-minimality scan is inconsistent")
    label = _label(p, "Vr", g1, gamma2, gamma3, i, r=r)
    return _chain_module(p, label, p.zero, mu, gamma2, gamma3, "x", p.zero, ks[:-1], p.zero)


def _build_cyclic(p: AlgebraParams, kind: str, g1, gamma2, gamma3, i: int, kseed) -> ModuleRep:
    """V_I (x the up-shift with wrap beta1'', y the k-chain) or its mirror V_II
    (y the up-shift with wrap beta2'', x the k-chain)."""
    b1, b2, _b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    _check_cyclic_kind(kind, b1, b2)
    zero = field_zero(p.zero, kseed)
    kseed = lift(kseed, zero)
    n = p.n
    wrap, target = (b1, b2) if kind == "VI" else (b2, b1)
    chain = [kseed * alpha + delta for alpha, delta in _seed_affine_chain(p, kind, mu, gamma2, gamma3, wrap, n)]
    if not (chain[n] - chain[0]).is_zero():
        raise InternalInconsistency(f"V_{kind[1:]} wrap recurrence is inconsistent (t = 1 case)")
    coeffs = _by_position(kind, chain)
    prod = kseed
    for k in coeffs:
        prod = prod * k
    target = lift(target, zero)
    if not (prod - target).is_zero():
        names = "beta2 (gamma1^n1 - gamma3^n)" if kind == "VI" else "beta1 (gamma1^n1 - gamma2^n)"
        raise SeedConstraintViolated(f"k1...kn = {prod!r} != {names} = {target!r}")
    label = _label(p, kind, g1, gamma2, gamma3, i, kseed=kseed)
    up = "x" if kind == "VI" else "y"
    return _chain_module(p, label, zero, mu, gamma2, gamma3, up, wrap, coeffs, kseed)


def build_VI(p: AlgebraParams, g1, gamma2, gamma3, i: int, k1) -> ModuleRep:
    """The n-dimensional simple with x an up-shift with wrap beta1''."""
    return _build_cyclic(p, "VI", g1, gamma2, gamma3, i, k1)


def build_VII(p: AlgebraParams, g1, gamma2, gamma3, i: int, kn) -> ModuleRep:
    """Mirror of build_VI: y is the up-shift, x carries the k-coefficients."""
    return _build_cyclic(p, "VII", g1, gamma2, gamma3, i, kn)


def build_simple(p: AlgebraParams, label: SimpleLabel) -> ModuleRep:
    if label.kind == "V0":
        return build_V0(p, label.g1, label.gamma2, label.gamma3, label.i)
    if label.kind == "Vr":
        m = build_Vr(p, label.g1, label.gamma2, label.gamma3, label.i)
        if label.r is not None and m.label.r != label.r:
            raise WrongType(f"label says r = {label.r} but the parameters force r = {m.label.r}")
        return m
    if label.kind == "VI":
        if label.kseed is None:
            raise WrongType("VI label needs a k-seed (use solve_k_seed)")
        return build_VI(p, label.g1, label.gamma2, label.gamma3, label.i, label.kseed)
    if label.kind == "VII":
        if label.kseed is None:
            raise WrongType("VII label needs a k-seed (use solve_k_seed)")
        return build_VII(p, label.g1, label.gamma2, label.gamma3, label.i, label.kseed)
    raise WrongType(f"unknown kind {label.kind!r}")


# -- k-seed solving --------------------------------------------------------


def _poly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
    return out


def seed_polynomial(p: AlgebraParams, kind: str, g1, gamma2, gamma3, i: int):
    """The degree-n constraint on the k-seed, as little-endian coefficients."""
    b1, b2, _b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    _check_cyclic_kind(kind, b1, b2)
    poly = [p.zero, p.one]
    for alpha, delta in _seed_forms(p, kind, mu, gamma2, gamma3, b1, b2):
        poly = _poly_mul(poly, [delta, alpha], p.zero)
    poly[0] = poly[0] - (b2 if kind == "VI" else b1)
    return poly


def solve_k_seed(
    p: AlgebraParams, kind: str, g1, gamma2, gamma3, i: int, allow_extension: bool = False
):
    """All seeds of the degree-n constraint found in the working field.

    When the constraint target is zero the polynomial is a product of affine
    forms and every root is written down exactly.  Otherwise roots are found
    by the candidate scan; with allow_extension=True the polynomial is split
    completely over an extension tower and all n roots are returned (in that
    tower's field).  Raises FieldTooSmall when no in-field root is found and
    extensions are off.
    """
    b1, b2, _b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    target = b2 if kind == "VI" else b1
    if target.is_zero():
        # P(s) = s * prod_j (alpha_j s + delta_j): roots are exact
        roots = [p.zero]
        for alpha, delta in _seed_forms(p, kind, mu, gamma2, gamma3, b1, b2):
            if not alpha.is_zero():
                root = -delta * alpha.inv()
                if all(not (root - r).is_zero() for r in roots):
                    roots.append(root)
        return roots
    poly = seed_polynomial(p, kind, g1, gamma2, gamma3, i)
    if allow_extension:
        roots, _sample = split_roots(poly)
        return roots
    roots, _rem = find_field_roots(poly)
    if not roots:
        raise FieldTooSmall(
            "no k-seed in the working cyclotomic field; enlarge the modulus "
            "or retry with allow_extension=True"
        )
    return roots


# -- verification -----------------------------------------------------------


def verify_module(p: AlgebraParams, m: ModuleRep):
    """Evaluate every defining relation as an exact matrix identity.

    Returns the list of failed relation names (empty list = valid module).
    """
    zero = m.zero_scalar()
    q = lift(p.q, zero)
    b1, b2, b3 = (lift(b, zero) for b in p.beta)
    A, B, C, X, Y = (m.mat(g) for g in "abcxy")
    n, n1 = p.n, p.n1
    failures = []

    def check(name, lhs, rhs):
        if not mat_eq(lhs, rhs):
            failures.append(name)

    check("ab=ba", mat_mul(A, B), mat_mul(B, A))
    check("ac=ca", mat_mul(A, C), mat_mul(C, A))
    check("bc=cb", mat_mul(B, C), mat_mul(C, B))
    check("xa=q.ax", mat_mul(X, A), mat_scale(q, mat_mul(A, X)))
    check("ya=q^-1.ay", mat_mul(Y, A), mat_scale(q.inv(), mat_mul(A, Y)))
    check("bx=xb", mat_mul(B, X), mat_mul(X, B))
    check("cx=xc", mat_mul(C, X), mat_mul(X, C))
    check("by=yb", mat_mul(B, Y), mat_mul(Y, B))
    check("cy=yc", mat_mul(C, Y), mat_mul(Y, C))
    comm = mat_sub(mat_mul(Y, X), mat_scale(q ** (-n1), mat_mul(X, Y)))
    rhs = mat_scale(b3, mat_sub(mat_pow(A, 2 * n1), mat_mul(B, C)))
    check("yx-q^-n1.xy=b3(a^2n1-bc)", comm, rhs)
    check(
        "x^n=b1(a^nn1-b^n)",
        mat_pow(X, n),
        mat_scale(b1, mat_sub(mat_pow(A, n * n1), mat_pow(B, n))),
    )
    check(
        "y^n=b2(a^nn1-c^n)",
        mat_pow(Y, n),
        mat_scale(b2, mat_sub(mat_pow(A, n * n1), mat_pow(C, n))),
    )
    return failures


def is_simple(p: AlgebraParams, m: ModuleRep) -> bool:
    """Burnside criterion: the word span of the action matrices is everything."""
    d = m.dim
    if d == 1:
        return True
    gens = [m.mat(g) for g in "axy"]
    one = m.one_scalar()
    basis_rows: list[tuple[int, list]] = []

    def add(mat) -> bool:
        row = [x for r in mat for x in r]
        for piv, bas in basis_rows:
            if not row[piv].is_zero():
                f = row[piv]
                row = [x - f * y for x, y in zip(row, bas)]
        for idx, val in enumerate(row):
            if not val.is_zero():
                inv = val.inv()
                basis_rows.append((idx, [inv * x for x in row]))
                return True
        return False

    frontier = [identity(one, d)]
    add(frontier[0])
    while frontier and len(basis_rows) < d * d:
        nxt = []
        for mat in frontier:
            for g in gens:
                prod = mat_mul(g, mat)
                if add(prod):
                    nxt.append(prod)
        frontier = nxt
    return len(basis_rows) == d * d


def dual_module(p: AlgebraParams, m: ModuleRep) -> ModuleRep:
    """(h.f)(v) = f(s(h).v): matrices are transposes of antipode images."""
    q = lift(p.q, m.zero_scalar())
    n1 = p.n1
    A, B, C, X, Y = (m.mat(g) for g in "abcxy")
    Ainv = mat_inv(A)
    Binv = mat_inv(B)
    Cinv = mat_inv(C)
    An1inv = mat_pow(Ainv, n1)
    sx = mat_scale(-(q ** (-n1)), mat_mul(An1inv, mat_mul(Binv, X)))
    sy = mat_scale(-(q**n1), mat_mul(An1inv, mat_mul(Cinv, Y)))
    return ModuleRep(
        m.dim,
        {
            "a": transpose(Ainv),
            "b": transpose(Binv),
            "c": transpose(Cinv),
            "x": transpose(sx),
            "y": transpose(sy),
        },
        ("dual", m.label),
        p,
    )


def _intertwiner_rows(m1: ModuleRep, m2: ModuleRep) -> list:
    """Linear system T h1 = h2 T for all generators, T (dim m2 x dim m1) flattened row-major."""
    d1, d2 = m1.dim, m2.dim
    zero = m1.zero_scalar()
    rows = []
    for g in "abcxy":
        H1, H2 = m1.mat(g), m2.mat(g)
        for r in range(d2):
            for c in range(d1):
                row = [zero] * (d2 * d1)
                for k in range(d1):
                    row[r * d1 + k] = row[r * d1 + k] + H1[k][c]
                for k in range(d2):
                    row[k * d1 + c] = row[k * d1 + c] - H2[r][k]
                rows.append(row)
    return rows


def intertwiner_space(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep):
    """Basis of Hom(m1, m2) = {T : T h1 = h2 T for all generators}."""
    d1, d2 = m1.dim, m2.dim
    basis = nullspace(_intertwiner_rows(m1, m2))
    return [[vec[r * d1 : (r + 1) * d1] for r in range(d2)] for vec in basis]


def modules_isomorphic(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep) -> bool:
    """Existence of an invertible intertwiner, decided exactly.

    For a basis T_1..T_h of Hom(m1, m2), det(sum_i c_i T_i) has degree at
    most rank(T_i) in c_i, so if it is nonzero anywhere it is nonzero at
    some point of the grid prod_i {0, ..., rank(T_i)}.  The grid is searched
    by increasing support, skipping a support whose ranks sum to less than
    the dimension; False is returned only after the whole grid.  An
    isomorphism T makes Hom(m1, m2) = T End(m1), so a Hom space of another
    dimension than End(m1) answers False without the search."""
    d = m1.dim
    if d != m2.dim:
        return False
    homs = intertwiner_space(p, m1, m2)
    if len(homs) != len(intertwiner_space(p, m1, m1)):
        return False
    ranks = [rank(T) for T in homs]
    for size in range(1, len(homs) + 1):
        for support in combinations(range(len(homs)), size):
            if sum(ranks[i] for i in support) < d:
                continue
            for coeffs in product(*(range(1, ranks[i] + 1) for i in support)):
                acc = reduce(mat_add, [mat_scale(c, homs[i]) for i, c in zip(support, coeffs)])
                if rank(acc) == d:
                    return True
    return False


def is_split(p: AlgebraParams, ext: Extension) -> bool:
    """Does the projection total -> quot admit a module section?"""
    total, quot = ext.total, ext.quot
    dt, dq = total.dim, quot.dim
    zero = total.zero_scalar()
    one = total.one_scalar()
    # unknowns: the section sigma (dt x dq), an intertwiner quot -> total with proj sigma = 1
    rows = _intertwiner_rows(quot, total)
    rhs = [zero] * len(rows)
    for r in range(dq):
        for c in range(dq):
            row = [zero] * (dt * dq)
            for k in range(dt):
                row[k * dq + c] = row[k * dq + c] + ext.proj[r][k]
            rows.append(row)
            rhs.append(one if r == c else zero)
    return solve(rows, rhs) is not None


def is_split_triple(p: AlgebraParams, total: ModuleRep, sub: ModuleRep, quot: ModuleRep) -> bool:
    """Spec-shaped variant: total is isomorphic to sub (+) quot."""
    ds = direct_sum_extension(p, sub, quot)
    return modules_isomorphic(p, total, ds.total)


def direct_sum_extension(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep) -> Extension:
    d1, d2 = m1.dim, m2.dim
    zero = m1.zero_scalar()
    one = m1.one_scalar()
    mats = {}
    for g in "abcxy":
        H1, H2 = m1.mat(g), m2.mat(g)
        M = zeros(zero, d1 + d2, d1 + d2)
        for r in range(d1):
            for c in range(d1):
                M[r][c] = H1[r][c]
        for r in range(d2):
            for c in range(d2):
                M[d1 + r][d1 + c] = H2[r][c]
        mats[g] = M
    total = ModuleRep(d1 + d2, mats, ("directsum", m1.label, m2.label), p)
    incl = zeros(zero, d1 + d2, d1)
    for r in range(d1):
        incl[r][r] = one
    proj = zeros(zero, d2, d1 + d2)
    for r in range(d2):
        proj[r][d1 + r] = one
    return Extension(total, m1, m2, incl, proj)


# -- the two displayed non-split extensions --------------------------------


def prop46_hypothesis(p: AlgebraParams, i: int) -> bool:
    """The only self-consistent reading of the printed fractional-exponent
    hypothesis: an (n n1)-th root rho of q^i with rho q^(1+i) = 1 exists
    iff q^i = 1 (rho^(n n1) = 1 forces q^i = 1)."""
    return (p.qpow(i) - p.one).is_zero()


def build_extension_prop46(
    p: AlgebraParams, varsigma, i: int = 0, enforce_hypothesis: bool = False
) -> Extension:
    """The (n+1)-dimensional extension V(varsigma) over the character (1,1,1).

    a = diag(1, q^-1, ..., q^-n), b = c = 1, x shifts v_1 -> ... -> v_n with
    wrap x v_n = beta1 (q^i - 1) v_1 as displayed, y v_1 = varsigma v_0, and
    the remaining y-coefficients are solved from the commutator relation.
    The displayed wrap violates x^n = beta1(a^(n n1) - b^n) unless
    beta1 (q^i - 1) = 0; verify_module reports this honestly.
    """
    if enforce_hypothesis and not prop46_hypothesis(p, i):
        raise ParameterConstraint("hypothesis q^(i/(n n1)+1+i) = 1 fails (needs q^i = 1)")
    n = p.n
    zero, one = p.zero, p.one
    varsigma = p.scalar(varsigma)
    d = n + 1
    a = zeros(zero, d, d)
    for l in range(d):
        a[l][l] = p.qpow(-l)
    b = identity(one, d)
    c = identity(one, d)
    x = zeros(zero, d, d)
    for l in range(1, n):
        x[l + 1][l] = one
    x[1][n] = p.beta[0] * (p.qpow(i) - one)
    y = zeros(zero, d, d)
    y[0][1] = varsigma
    # (yx - q^-n1 xy) v_l = beta3 (q^(-2 l n1) - 1) v_l fixes y v_(l+1) = k_(l+1) v_l:
    # the V_r chain at mu = gamma2 = gamma3 = 1
    ks = _vr_k_coeffs(p, one, one, one, n)
    for l in range(1, n):
        y[l][l + 1] = ks[l]
    total = ModuleRep(d, {"a": a, "b": b, "c": c, "x": x, "y": y}, ("prop46", i), p)
    sub = build_V0(p, p.one, p.one, p.one, 0)
    qmats = {g: [[M[r][cc] for cc in range(1, d)] for r in range(1, d)] for g, M in total.mats.items()}
    quot = ModuleRep(n, qmats, ("prop46-quot", i), p)
    incl = zeros(zero, d, 1)
    incl[0][0] = one
    proj = zeros(zero, n, d)
    for r in range(n):
        proj[r][r + 1] = one
    return Extension(total, sub, quot, incl, proj)


def build_extension_prop47(p: AlgebraParams, g1, gamma2, gamma3, i: int) -> Extension:
    """The 2t-dimensional non-split extension of V_t(gamma; i) by V_t(gamma; i-t).

    Requires u = n/t >= 2 (otherwise x^n = 0 fails on the displayed chain),
    beta1'' = beta2'' = 0 and the gamma-data outside <q^n1> (so r = t).
    """
    t = p.t
    if p.u is None or p.u < 2:
        raise ParameterConstraint("the displayed 2t-chain needs u = n/t >= 2")
    b1, b2, _b3, mu = kind_conditions(p, g1, gamma2, gamma3, i)
    if not (b1.is_zero() and b2.is_zero()):
        raise ParameterConstraint("need beta1'' = beta2'' = 0")
    if r_value(p, mu, gamma2, gamma3) is not None:
        raise ParameterConstraint("need gamma1^(-2n1/n) gamma2 gamma3 outside <q^n1>")
    zero, one = p.zero, p.one
    g1n = p.scalar(g1)
    d = 2 * t
    a = zeros(zero, d, d)
    for pdx in range(1, t + 1):
        a[pdx - 1][pdx - 1] = g1n * p.qpow(i - pdx + 1)
        a[t + pdx - 1][t + pdx - 1] = g1n * p.qpow(i - t - pdx + 1)
    bmat = _scalar_mat(p.scalar(gamma2), d)
    cmat = _scalar_mat(p.scalar(gamma3), d)
    x = zeros(zero, d, d)
    for pdx in range(d - 1):
        x[pdx + 1][pdx] = one
    ks_top = _vr_k_coeffs(p, mu, gamma2, gamma3, t - 1)
    mu_low = g1n * p.qpow(i - t)
    ks_low = _vr_k_coeffs(p, mu_low, gamma2, gamma3, t - 1)
    y = zeros(zero, d, d)
    for pdx in range(2, t + 1):
        y[pdx - 2][pdx - 1] = ks_top[pdx - 2]
        y[t + pdx - 2][t + pdx - 1] = ks_low[pdx - 2]
    total = ModuleRep(d, {"a": a, "b": bmat, "c": cmat, "x": x, "y": y}, ("prop47", i), p)
    sub = build_Vr(p, g1, gamma2, gamma3, i - t)
    quot = build_Vr(p, g1, gamma2, gamma3, i)
    incl = zeros(zero, d, t)
    for r in range(t):
        incl[t + r][r] = one
    proj = zeros(zero, t, d)
    for r in range(t):
        proj[r][r] = one
    return Extension(total, sub, quot, incl, proj)
