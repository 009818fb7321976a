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
  the AlgebraParams; the traces at j < 2n also give each candidate's
  fingerprint.
* One elimination on n^2 rows.  a^n acts as the scalar gamma1 on m and on
  every candidate, so tr(a^(j+n) x^u y^u) = gamma1 tr(a^j x^u y^u) and the
  rows j < n span every trace row.  decompose row-reduces [candidate traces
  | traces of m] on those n^2 rows once: every candidate column must hold a
  pivot (else RankDeficient), the traces of m must not (else
  NoIntegerSolution), and the solution must be a nonnegative integer vector
  matching the dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraParams
from .extfield import base_constant, field_zero, lift
# rank is not used here: perfbench/test_bench.py checks that its tracer wraps
# this from-import binding, so it stays until that check names another one
from .linalg import identity, kron, mat_add, mat_mul, mat_pow, rank, rref, trace  # noqa: F401
from .modules import (
    FieldTooSmall,
    ModuleRep,
    SimpleLabel,
    WrongType,
    build_simple,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    kind_conditions,
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
]


class RankDeficient(ArithmeticError):
    pass


class NoIntegerSolution(ArithmeticError):
    pass


@dataclass(frozen=True, order=True)
class CanonLabel:
    """Iso-class identity of a simple: kind, dimension and exact trace data.

    Equal fingerprints mean isomorphic simples (Brauer-Nesbitt); the display
    label carries human-readable parameters.  Equality and order are those of
    (kind, dim, fingerprint); the order sets the printed order of fusion
    results.
    """

    kind: str
    dim: int
    fingerprint: tuple
    display: SimpleLabel = field(default=None, compare=False)
    # labels key the dicts of fusion and Grothendieck-ring products, and the
    # fingerprint nests Fraction tuples: hash it once, at construction
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.dim, self.fingerprint)))

    def __hash__(self):
        return self._hash

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
        return sorted(self.entries.items())

    def __repr__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            (f"{m}*" if m != 1 else "") + str(l) for l, m in self.sorted_items()
        )

    def as_dict(self):
        return {str(l): m for l, m in self.sorted_items()}


# -- tensor product ----------------------------------------------------------


def tensor(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep, check: bool = True) -> ModuleRep:
    """Module structure on m1 (x) m2 through the coproduct."""
    try:
        zero = field_zero(p.zero, m1.zero_scalar(), m2.zero_scalar())
    except TypeError:
        raise RankDeficient("factors live over incompatible towers") from None
    mats1 = {g: [[lift(x, zero) for x in row] for row in m1.mat(g)] for g in "abcxy"}
    mats2 = {g: [[lift(x, zero) for x in row] for row in m2.mat(g)] for g in "abcxy"}
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


@dataclass
class CharacterBasis:
    """The simples of one central character and their trace rows.

    `cands` is the list of (CanonLabel, ModuleRep) that candidate_simples
    returns; `rows` maps each label to the n^2 traces of its module at j < n,
    trace_vector(p, module, n), the only rows decompose eliminates on.  The
    label's fingerprint holds the keys of the traces at j < 2n.  One basis per
    character is kept in `p.caches.character_bases`, so it lives as long as p.
    """

    cands: list
    rows: dict


def _character_basis(p: AlgebraParams, g1, gamma2, gamma3) -> CharacterBasis:
    g1, gamma2, gamma3 = p.scalar(g1), p.scalar(gamma2), p.scalar(gamma3)
    key = (g1.key(), gamma2.key(), gamma3.key())
    basis = p.caches.character_bases.get(key)
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
        seeds = solve_k_seed(p, "VI", g1, gamma2, gamma3, 0, allow_extension=True)
        for s in _sorted_seeds(seeds):
            mods.append(build_VI(p, g1, gamma2, gamma3, 0, s))
    else:
        seeds = solve_k_seed(p, "VII", g1, gamma2, gamma3, 0, allow_extension=True)
        for s in _sorted_seeds(seeds):
            mods.append(build_VII(p, g1, gamma2, gamma3, 0, s))
    cands = []
    rows = {}
    for m in mods:
        row = trace_vector(p, m, 2 * n)
        label = CanonLabel(m.label.kind, m.dim, tuple(t.key() for t in row), m.label)
        if label not in rows:
            rows[label] = row[: n * n]
            cands.append((label, m))
    cands.sort(key=lambda cm: cm[0])
    basis = CharacterBasis(cands, rows)
    p.caches.character_bases[key] = basis
    return basis


def candidate_simples(p: AlgebraParams, g1, gamma2, gamma3):
    """All iso-classes of simples with central character (g1^n, gamma2, gamma3).

    Returns a list of (CanonLabel, ModuleRep), deduplicated by exact trace
    fingerprint.  VI/VII k-seeds are solved exactly; when no cyclotomic seed
    exists, the seed polynomial is split over an extension tower.
    """
    return _character_basis(p, g1, gamma2, gamma3).cands


def _sorted_seeds(seeds):
    """Deterministic seed order: lexicographically smallest coefficient vector
    first (so the canonical label of each iso-class uses that root).  The
    seeds of one solve share one field: split_roots lifts every root into
    its last tower."""
    return sorted(seeds, key=lambda s: s.key())


def _as_nonneg_int(x):
    """Exact integer value of a scalar, or None."""
    try:
        x = base_constant(x)
    except ValueError:
        return None
    if not x.is_rational():
        return None
    f: Fraction = x.as_fraction()
    if f.denominator != 1 or f < 0:
        return None
    return int(f)


def decompose(p: AlgebraParams, m: ModuleRep, g1) -> FusionVector:
    """Composition multiplicities of m by exact trace matching.

    Preconditions: b, c and a^n act as scalars on m; g1 is an n-th root of
    the a^n scalar (used to enumerate candidate simples).  Since a^n acts as
    that scalar on m and on every candidate, one elimination on the n^2
    trace rows at j < n decides rank, consistency and the multiplicities.
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
    g1n = p.scalar(g1)
    # over a tower, b and c act by tower constants of Q(zeta_M) character data
    g2c = base_constant(gamma2)
    g3c = base_constant(gamma3)
    if not (lift(g1n, zero) ** p.n - gamma1).is_zero():
        raise WrongType("g1^n does not match the a^n scalar")
    cands = candidate_simples(p, g1n, g2c, g3c)
    basis = _character_basis(p, g1n, g2c, g3c)
    # ambient field: the one tower among m and the candidates, or the
    # candidates' when every trace of m is a constant of Q(zeta_M)
    traces = trace_vector(p, m, p.n)
    cand_zeros = [cm.zero_scalar() for _, cm in cands]
    try:
        ambient = field_zero(zero, *cand_zeros)
    except TypeError:
        try:
            traces = [base_constant(t) for t in traces]
        except ValueError:
            raise RankDeficient("candidates live over incompatible towers") from None
        ambient = field_zero(p.zero, *cand_zeros)
    ncand = len(cands)
    cols = [[lift(t, ambient) for t in basis.rows[lab]] for lab, _ in cands]
    v = [lift(t, ambient) for t in traces]
    # one elimination of [candidate traces | traces of m], one equation per
    # trace: the candidates are independent iff each of the first ncand
    # columns holds a pivot, and the system is inconsistent iff column ncand
    # holds one
    red, pivots = rref([[col[w] for col in cols] + [v[w]] for w in range(len(v))])
    if pivots[:ncand] != list(range(ncand)):
        raise RankDeficient(f"candidate trace vectors are linearly dependent (rank < {ncand})")
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


def class_of(p: AlgebraParams, m: ModuleRep) -> CanonLabel:
    """CanonLabel of a (simple) module."""
    return CanonLabel(
        m.label.kind if isinstance(m.label, SimpleLabel) else "?",
        m.dim,
        tuple(t.key() for t in trace_vector(p, m, 2 * p.n)),
        m.label if isinstance(m.label, SimpleLabel) else None,
    )


def fuse(p: AlgebraParams, l1: SimpleLabel, l2: SimpleLabel) -> FusionVector:
    """decompose(build(l1) (x) build(l2)) with the product g1 convention."""
    m1 = build_simple(p, l1)
    m2 = build_simple(p, l2)
    mt = tensor(p, m1, m2, check=False)
    return decompose(p, mt, m1.label.g1 * m2.label.g1)


def fusion_table(p: AlgebraParams, labels):
    """Full table {(i, j): fuse(labels[i], labels[j])}; commutativity verified."""
    table = {}
    for i, l1 in enumerate(labels):
        for j, l2 in enumerate(labels):
            table[(i, j)] = fuse(p, l1, l2)
    for i in range(len(labels)):
        for j in range(i):
            if table[(i, j)] != table[(j, i)]:
                raise ArithmeticError(f"fusion not commutative at cell ({i},{j})")
    return table
