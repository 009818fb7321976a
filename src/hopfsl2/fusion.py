"""Tensor products of modules and exact decomposition into composition factors.

decompose() identifies composition multiplicities by matching exact traces of
the monomial family a^j x^u y^u against the complete candidate list of
simples sharing the central character (the characteristic-0 Brauer-Nesbitt
principle: trace functions determine composition factors).

* Weight-space traces.  Delta(a) = a (x) a, so a is diagonal on every simple
  and every tensor product of simples; trace_vector then forms only the
  diagonal of x^u y^u and sums it over the a-weight spaces, and the traces
  are power sums of the weights.  A non-diagonal a takes the dense products.
  trace_vector traces a module's own matrices; on a tensor product that is
  the materialised path, which the test oracles use.
* Tensor products from their factors.  tensor() keeps the factors V and W
  and builds the five matrices of V (x) W only when they are read.
  decompose reads its numbers from the factors instead: b, c and a are
  group-like, so b, c and a^n act on V (x) W by the products of the
  factors' scalars, and its n^2 trace rows come from the factors' rows:

      tr_VW(a^j x^u y^u) = sum_(k=0..u) [u choose k]_Q^2 (gamma2 gamma3)^(u-k)
                           tr_V(a^j x^k y^k) tr_W(a^(j + 2 n1 k) x^(u-k) y^(u-k))

  with Q = q^n1 and gamma2, gamma3 the scalars of b, c on V; on W, a^n acts
  as gamma1(W), so a^e reads as gamma1(W)^(e div n) a^(e mod n).  Proof.
  Delta(x) = X1 + X2 with X1 = x (x) a^n1 and X2 = b (x) x, and X2 X1 =
  Q X1 X2 (b is central and x a^n1 = Q a^n1 x), so the q-binomial theorem
  for q-commuting summands (Kassel, Quantum Groups, Prop. IV.2.2) gives
  x^u = sum_k [u choose k]_Q X1^k X2^(u-k), and likewise y^u = sum_l
  [u choose l]_(Q^-1) Y1^l Y2^(u-l) with Y1 = y (x) a^n1, Y2 = c (x) y.
  The term (k, l) acts on V by gamma2^(u-k) gamma3^(u-l) a^j x^k y^l,
  which conjugation by a scales by q^(l-k) != 1 for k != l (|l - k| < n),
  so its trace is 0.  At k = l it acts on W by a^(j + n1 k) x^(u-k)
  a^(n1 k) y^(u-k) = q^(n1 k (u-k)) a^(j + 2 n1 k) x^(u-k) y^(u-k), and
  [u choose k]_(Q^-1) = Q^(-k (u-k)) [u choose k]_Q cancels that phase.
  A module's scalars and traces are read once, into the ModuleTraces kept
  on it; the squared q-binomials are made once per AlgebraParams.
* One trace basis per character.  The candidates of a central character are
  build_simple's modules for their labels; their classes and trace rows are
  kept in a CharacterBasis owned by the AlgebraParams.
* One factorization per character, made once.  a^n acts as the scalar
  gamma1 on m and on every candidate, so tr(a^(j+n) x^u y^u) = gamma1
  tr(a^j x^u y^u) and the rows j < n span every trace row.  The first
  decompose against a character row-reduces the n^2 x ncand block of
  candidate traces once and keeps its row operations in the CharacterBasis;
  every decompose reads the n^2 traces of m into the candidates' field by
  extfield.read_in (a module over another tower must have traces that are
  constants of that field).  Every candidate column must hold a pivot (else
  RankDeficient, recorded with the factorization).
* Over Q(zeta_M), replay.  decompose replays the row operations on the
  traces of m: the replayed traces below the first ncand must all be zero
  (else NoIntegerSolution: the verdict rref([C | v]) gives), and the first
  ncand, the multiplicities, must be a nonnegative integer vector matching
  the dimension.
* Over a tower, an integer check first.  An element of a tower of degree D
  over Q is a vector of D rational coordinates (extfield.coordinates), and
  flattening is a Q-linear bijection, so integer multiplicities m prove
  sum_i m_i C_i = v in the tower when they do on every coordinate of every
  row, with no tower product.  The factorization keeps the candidates'
  columns flattened and the inverse of an invertible ncand x ncand block of
  their coordinates (a FlatBlock); decompose reads m off that block and
  checks it on all coordinates.  The candidates are independent, so m is
  the only solution and replay would return it too.  When the check fails,
  decompose replays as above, so every error is replay's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraParams
from .cyclo import rational
from .extfield import ExtScalar, base_constant, coordinates, field_zero, lift, read_in
# rank is not used here: perfbench/test_bench.py checks that its tracer wraps
# this from-import binding, so it stays until that check names another one
from .linalg import factor, identity, kron, mat_add, mat_inv, mat_mul, mat_pow, rank, replay, rref, trace  # noqa: F401
from .modules import (
    ModuleRep,
    SimpleLabel,
    WrongType,
    build_simple,
    kind_conditions,
    solve_k_seed,
    verify_module,
)

__all__ = [
    "RankDeficient",
    "NoIntegerSolution",
    "CanonLabel",
    "CharacterBasis",
    "Factorization",
    "FusionVector",
    "ModuleTraces",
    "TensorProduct",
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
    """Iso-class identity of a simple: kind, dimension, exact trace data and
    `bc`, the keys of the scalars (gamma2, gamma3) by which b and c act, or
    () when both are 1; the traces of a^j x^u y^u do not see them.

    Equal labels mean isomorphic simples (Brauer-Nesbitt); the display label
    carries human-readable parameters.  Equality and order are those of
    (kind, dim, fingerprint, bc); the order sets the printed order of fusion
    results.
    """

    kind: str
    dim: int
    fingerprint: tuple
    display: SimpleLabel = field(default=None, compare=False)
    bc: tuple = ()
    # labels key the dicts of fusion and Grothendieck-ring products, and the
    # fingerprint nests one scalar key per trace: hash it once, at construction
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
        self.entries: dict[CanonLabel, int] = {l: m for l, m in (entries or {}).items() if m}

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


class TensorProduct(ModuleRep):
    """m1 (x) m2 through the coproduct: a ModuleRep that keeps its two factors.

    `zero` is the zero of the one field that holds both factors.  The five
    dim x dim matrices are built on the first read of `mats` (or `mat`);
    decompose reads the scalars and traces of the product from its factors
    instead, so a fuse never builds them.
    """

    def __init__(self, p: AlgebraParams, m1: ModuleRep, m2: ModuleRep, zero):
        self.dim = m1.dim * m2.dim
        self.label = ("tensor", m1.label, m2.label)
        self.params = p
        self.factors = (m1, m2)
        self.zero = zero
        self._mats = None

    @property
    def mats(self):
        if self._mats is None:
            self._mats = _tensor_mats(self.params, *self.factors, self.zero)
        return self._mats

    def zero_scalar(self):
        return self.zero


def _tensor_mats(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep, zero) -> dict:
    """The images of a, b, c, x, y on m1 (x) m2, over the field of `zero`."""
    mats1 = {g: [[lift(x, zero) for x in row] for row in m1.mat(g)] for g in "abcxy"}
    mats2 = {g: [[lift(x, zero) for x in row] for row in m2.mat(g)] for g in "abcxy"}
    a2n1 = mat_pow(mats2["a"], p.n1)
    return {
        "a": kron(mats1["a"], mats2["a"]),
        "b": kron(mats1["b"], mats2["b"]),
        "c": kron(mats1["c"], mats2["c"]),
        "x": mat_add(kron(mats1["x"], a2n1), kron(mats1["b"], mats2["x"])),
        "y": mat_add(kron(mats1["y"], a2n1), kron(mats1["c"], mats2["y"])),
    }


def tensor(p: AlgebraParams, m1: ModuleRep, m2: ModuleRep, check: bool = True) -> TensorProduct:
    """Module structure on m1 (x) m2 through the coproduct.

    The factors' fields are checked here (RankDeficient when no tower holds
    both); the matrices are built on first read, or here when `check` asks
    verify_module for them.
    """
    try:
        zero = field_zero(p.zero, m1.zero_scalar(), m2.zero_scalar())
    except TypeError:
        raise RankDeficient("factors live over incompatible towers") from None
    out = TensorProduct(p, m1, m2, zero)
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


@dataclass(frozen=True)
class ModuleTraces:
    """The numbers that decompose and class_of read, kept in ModuleRep.record.

    `gamma2`, `gamma3` and `gamma1` are the scalars by which b, c and a^n
    act, and `traces` is trace_vector(p, m, 2n), whose first n^2 entries are
    the module's trace rows (a tensor product's record holds only those).
    """

    gamma2: object
    gamma3: object
    gamma1: object
    traces: list


def _built_traces(p: AlgebraParams, m: ModuleRep) -> ModuleTraces:
    """The ModuleTraces of m, made on the first read and kept in `m.record`,
    so a module that fusion has read must not be changed afterwards.

    A tensor product's comes from its factors' (b, c and a are group-like).
    A module build_simple made for p has a diagonal with entries mu q^(-+j),
    whose n-th powers are all mu^n, so its scalars are its first diagonal
    entries; on any other module b, c and a^n must act as scalars (else
    WrongType, checked in that order).
    """
    if m.record is None and isinstance(m, TensorProduct):
        v, w = (_built_traces(p, f) for f in m.factors)
        pairs = ((v.gamma2, w.gamma2), (v.gamma3, w.gamma3), (v.gamma1, w.gamma1))
        gammas = [lift(x, m.zero) * lift(y, m.zero) for x, y in pairs]
        m.record = ModuleTraces(*gammas, _tensor_rows(p, v, w, m.zero))
    elif m.record is None:
        if m.built and m.params is p:
            gammas = [m.mat(g)[0][0] for g in "bc"] + [m.mat("a")[0][0] ** p.n]
        else:
            gammas = [_scalar_action(m.mat(g), g) for g in "bc"]
            gammas.append(_scalar_action(mat_pow(m.mat("a"), p.n), "a^n"))
        m.record = ModuleTraces(*gammas, trace_vector(p, m, 2 * p.n))
    return m.record


def _trace_rows(p: AlgebraParams, m: ModuleRep) -> list:
    """The n^2 trace rows of m, tr(a^j x^u y^u) for j < n, row-major in
    (j, u): the first n^2 traces of its record."""
    return _built_traces(p, m).traces[: p.n * p.n]


def _qbinomial_squares(p: AlgebraParams) -> list:
    """[u choose k]_Q^2 at [u][k] for 0 <= k <= u < n, Q = q^n1; made once
    per AlgebraParams and kept in `p.caches.qbinomial_squares`."""
    table = p.caches.qbinomial_squares
    if not table:
        Q = p.qpow(p.n1)
        rows = [[p.one]]
        for u in range(1, p.n):
            prev = rows[-1]
            # [u choose k] = [u-1 choose k-1] + Q^k [u-1 choose k]
            rows.append([p.one] + [prev[k - 1] + Q**k * prev[k] for k in range(1, u)] + [p.one])
        table.extend([c * c for c in row] for row in rows)
    return table


def _tensor_rows(p: AlgebraParams, v: ModuleTraces, w: ModuleTraces, zero) -> list:
    """The n^2 trace rows of V (x) W over `zero` from the factors' records,
    by the q-binomial formula of the module docstring; about n^3 / 2 products."""
    n, n1 = p.n, p.n1
    tv = [lift(t, zero) for t in v.traces[: n * n]]
    tw = [lift(t, zero) for t in w.traces[: n * n]]
    # W's traces at a^e for e < n + 2 n1 (n - 1): a^n acts on W as gamma1(W)
    gamma1_w = lift(w.gamma1, zero)
    while len(tw) < (n + 2 * n1 * (n - 1)) * n:
        tw.extend(t if t.is_zero() else gamma1_w * t for t in tw[-n * n :])
    # coef[u][k] = [u choose k]_(q^n1)^2 (gamma2 gamma3)^(u-k), gammas of V
    g23 = lift(v.gamma2 * v.gamma3, zero)
    g23_pows = [zero.one()]
    for _ in range(1, n):
        g23_pows.append(g23_pows[-1] * g23)
    coef = [[lift(c, zero) * g23_pows[u - k] for k, c in enumerate(row)] for u, row in enumerate(_qbinomial_squares(p))]
    out = []
    for j in range(n):
        for u in range(n):
            acc = zero
            for k in range(u + 1):
                x, y = tv[j * n + k], tw[(j + 2 * n1 * k) * n + u - k]
                if not (x.is_zero() or y.is_zero() or coef[u][k].is_zero()):
                    acc = acc + coef[u][k] * x * y
            out.append(acc)
    return out


class FlatBlock(NamedTuple):
    """A tower character's candidate block over Q, for decompose's integer
    check.

    `columns` holds each candidate's n^2 trace rows flattened to their
    rational coordinates (extfield.coordinates, row after row), as ints over
    the one denominator `den`.  `rows` names ncand coordinates whose
    ncand x ncand block is invertible over Q, and `inverse` is that block's
    inverse, as ints over `inverse_den`.
    """

    columns: tuple
    den: int
    rows: tuple
    inverse: tuple
    inverse_den: int


@dataclass(frozen=True)
class Factorization:
    """The one elimination of a character's n^2 x ncand candidate block.

    `zero` is the zero of the candidates' field, `steps` the row operations
    (linalg.PivotStep) of the elimination over that field, and `independent`
    whether every candidate column holds a pivot.  `flat` is the block over
    Q when the field is a tower and the candidates are independent, else
    None.
    """

    zero: object
    steps: tuple
    independent: bool
    flat: FlatBlock | None = None


def _flat_block(cols) -> FlatBlock | None:
    """The FlatBlock of independent tower columns, or None when their
    coordinates cannot be read.

    Columns independent over the tower are independent over Q, so some
    ncand coordinates give an invertible block.  They are the pivots of the
    ncand x w matrix of the first w coordinates that are not zero in every
    column, w doubled until all ncand are found.
    """
    try:
        flat, den = coordinates(*(t for col in cols for t in col))
    except ValueError:
        return None
    size = len(flat) // len(cols)
    columns = tuple(flat[i : i + size] for i in range(0, len(flat), size))
    nonzero = [k for k, entries in enumerate(zip(*columns)) if any(entries)]
    ncand = width = len(columns)
    while True:
        head = nonzero[:width]
        _red, pivots = rref([[rational(col[k]) for k in head] for col in columns])
        if len(pivots) == ncand:
            break
        if width >= len(nonzero):
            return None
        width *= 2
    rows = tuple(head[c] for c in pivots)
    inverse = mat_inv([[rational(Fraction(col[k], den)) for col in columns] for k in rows])
    inverse_den = math.lcm(*(x.den for row in inverse for x in row))
    return FlatBlock(
        columns,
        den,
        rows,
        tuple(tuple(x.num[0] * (inverse_den // x.den) for x in row) for row in inverse),
        inverse_den,
    )


def _flat_multiplicities(flat: FlatBlock, traces) -> list[int] | None:
    """The multiplicities m with sum_i m_i col_i = traces, found over Q, or
    None when there is no such nonnegative integer vector (or the traces'
    coordinates cannot be read).

    m is the block's inverse times the traces' coordinates at `flat.rows`;
    it is accepted only when every m_i is a nonnegative integer and the sum
    matches the traces on every coordinate of every row.  Flattening is a
    Q-linear bijection of the tower onto Q^D, so that check proves the
    identity in the tower, and with independent columns m is its only
    solution.
    """
    try:
        v, vden = coordinates(*traces)
    except ValueError:
        return None
    if len(v) != len(flat.columns[0]):
        return None
    scale = flat.inverse_den * vden
    mults = []
    for row in flat.inverse:
        k, r = divmod(sum(a * v[w] for a, w in zip(row, flat.rows)), scale)
        if r or k < 0:
            return None
        mults.append(k)
    acc = [0] * len(v)
    for k, col in zip(mults, flat.columns):
        if k:
            acc = [a + k * c for a, c in zip(acc, col)]
    if [a * vden for a in acc] != [x * flat.den for x in v]:
        return None
    return mults


class CharacterBasis(list):
    """The simples of one central character, their trace rows and the
    factorization of those rows.

    The list itself holds the (CanonLabel, ModuleRep) pairs that
    candidate_simples returns; `rows` maps each label to the n^2 traces of
    its module at j < n, the first n^2 traces of its record, the only rows
    decompose works on.  The label's fingerprint holds the keys of the
    traces at j < 2n.  `factorization` is None until the first decompose
    against the character fills it.  One basis per character is kept in
    `p.caches.character_bases`, so it lives as long as p.
    """

    def __init__(self, cands, rows: dict):
        super().__init__(cands)
        self.rows = rows
        self.factorization: Factorization | None = None

    def factorize(self, p: AlgebraParams) -> Factorization:
        """The factorization of the candidate block, made on the first call."""
        if self.factorization is None:
            zero = field_zero(p.zero, *(cm.zero_scalar() for _, cm in self))
            cols = [[lift(t, zero) for t in self.rows[lab]] for lab, _ in self]
            _red, pivots, steps = factor([[col[w] for col in cols] for w in range(p.n * p.n)])
            independent = pivots == list(range(len(self)))
            flat = _flat_block(cols) if independent and isinstance(zero, ExtScalar) else None
            self.factorization = Factorization(zero, tuple(steps), independent, flat)
        return self.factorization


def candidate_simples(p: AlgebraParams, g1, gamma2, gamma3) -> CharacterBasis:
    """All iso-classes of simples with central character (g1^n, gamma2, gamma3).

    Returns the cached CharacterBasis, a list of (CanonLabel, ModuleRep)
    deduplicated by exact trace fingerprint.  VI/VII k-seeds are solved
    exactly; when no cyclotomic seed exists, the seed polynomial is split
    over an extension tower.  Each candidate is build_simple's module for
    its label, and its class and rows come from that module's trace record.
    """
    g1, gamma2, gamma3 = p.scalar(g1), p.scalar(gamma2), p.scalar(gamma3)
    key = (g1.key(), gamma2.key(), gamma3.key())
    basis = p.caches.character_bases.get(key)
    if basis is not None:
        return basis
    b1pp, b2pp, _b3pp, _mu = kind_conditions(p, g1, gamma2, gamma3, 0)
    if b1pp.is_zero() and b2pp.is_zero():
        kinds = ("V0" if kind_conditions(p, g1, gamma2, gamma3, i)[2].is_zero() else "Vr" for i in range(p.n))
        labels = [SimpleLabel(kind, g1, gamma2, gamma3, i) for i, kind in enumerate(kinds)]
    else:
        kind = "VII" if b1pp.is_zero() else "VI"
        seeds = solve_k_seed(p, kind, g1, gamma2, gamma3, 0, allow_extension=True)
        labels = [SimpleLabel(kind, g1, gamma2, gamma3, 0, kseed=s) for s in _sorted_seeds(seeds)]
    cands = []
    rows = {}
    for m in (build_simple(p, lab) for lab in labels):
        label = class_of(p, m)
        if label not in rows:
            rows[label] = _trace_rows(p, m)
            cands.append((label, m))
    cands.sort(key=lambda cm: cm[0])
    basis = CharacterBasis(cands, rows)
    p.caches.character_bases[key] = basis
    return basis


# the basis function's former private name, which tests still call it by
_character_basis = candidate_simples


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


def _scalar_action(mat, name: str):
    """The scalar by which `mat` acts; WrongType when it is not a scalar."""
    s = mat[0][0]
    for i, row in enumerate(mat):
        for j, x in enumerate(row):
            if not (x - s if i == j else x).is_zero():
                raise WrongType(f"{name} does not act as a scalar")
    return s


def decompose(p: AlgebraParams, m: ModuleRep, g1) -> FusionVector:
    """Composition multiplicities of m by exact trace matching.

    Preconditions: b, c and a^n act as scalars on m; g1 is an n-th root of
    the a^n scalar (used to enumerate candidate simples).  Since a^n acts as
    that scalar on m and on every candidate, the n^2 trace rows at j < n
    decide rank, consistency and the multiplicities: the character's
    factorization of its candidate block is made once.  Over a tower the
    multiplicities are read from the rational coordinates of the rows and
    checked on all of them; otherwise, or when that check fails, the
    factorization is replayed on the rows in the candidates' field, and
    replay raises every error.  The scalars and rows are m's record; a
    TensorProduct's comes from its factors', and its matrices are not built.
    """
    known = _built_traces(p, m)
    g1n = p.scalar(g1)
    if not (lift(g1n, m.zero_scalar()) ** p.n - known.gamma1).is_zero():
        raise WrongType("g1^n does not match the a^n scalar")
    # over a tower, b and c act by tower constants of Q(zeta_M) character data
    cands = candidate_simples(p, g1n, base_constant(known.gamma2), base_constant(known.gamma3))
    if not isinstance(cands, CharacterBasis):
        # a substituted candidate list: its block is factored for this call only
        cands = CharacterBasis(cands, {lab: _trace_rows(p, cm) for lab, cm in cands})
    plan = cands.factorize(p)
    try:
        traces = [read_in(t, plan.zero) for t in _trace_rows(p, m)]
    except TypeError:
        raise RankDeficient("candidates live over incompatible towers") from None
    ncand = len(cands)
    if not plan.independent:
        raise RankDeficient(f"candidate trace vectors are linearly dependent (rank < {ncand})")
    mults = None if plan.flat is None else _flat_multiplicities(plan.flat, traces)
    if mults is None:
        # the candidates are independent, so [candidate traces | traces of m]
        # is consistent iff every replayed trace past the first ncand is zero
        w = replay(plan.steps, traces)
        if any(not x.is_zero() for x in w[ncand:]):
            raise NoIntegerSolution("trace system is inconsistent (missing candidate?)")
        mults = []
        for x in w[:ncand]:
            k = _as_nonneg_int(x)
            if k is None:
                raise NoIntegerSolution(f"non-integer multiplicity {x!r}")
            mults.append(k)
    if sum(mult * cm.dim for mult, (_, cm) in zip(mults, cands)) != m.dim:
        raise NoIntegerSolution("dimension bookkeeping failed")
    return FusionVector({lab: mult for mult, (lab, _) in zip(mults, cands) if mult})


def class_of(p: AlgebraParams, m: ModuleRep) -> CanonLabel:
    """CanonLabel of a simple module, read from its record as decompose reads
    it, so the class depends on the module alone."""
    known = _built_traces(p, m)
    bc = tuple(p.scalar(base_constant(g)).key() for g in (known.gamma2, known.gamma3))
    bc = () if bc == (p.one.key(),) * 2 else bc
    return CanonLabel(m.label.kind, m.dim, tuple(t.key() for t in known.traces), m.label, bc)


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
