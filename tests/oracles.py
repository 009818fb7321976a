"""Independent oracles for the test suite.

The word rewriter below normalizes products letter by letter (one adjacent
rewrite per step, no caching, no power bookkeeping) and is kept deliberately
separate from the package's straightening engine so the two can check each
other.  The scalar oracle at the end computes in Q[x]/(x^M - 1) over
Fraction coefficients and folds into the Phi_M basis only at the end, so it
shares no code with the integer-vector arithmetic of hopfsl2.cyclo.  The
reference decomposition at the very end eliminates on all 2n*n trace rows,
re-traced per call, where fusion.decompose keeps only the n^2 rows at j < n.
The reference tensor traces trace the materialised tensor product, where
fusion.decompose reads them from the factors' traces.
"""

from fractions import Fraction

from hopfsl2.algebra import Element, Monomial
from hopfsl2.cyclo import CycScalar
from hopfsl2.extfield import base_constant, field_zero, lift
from hopfsl2.fusion import FusionVector, NoIntegerSolution, RankDeficient, candidate_simples, tensor, trace_vector
from hopfsl2.linalg import rref


def word_of_monomial(mono: Monomial) -> str:
    out = []
    for letter, inv, e in (("a", "A", mono.i), ("b", "B", mono.j), ("c", "C", mono.k)):
        out.append((letter if e > 0 else inv) * abs(e))
    out.append("x" * mono.u)
    out.append("y" * mono.v)
    return "".join(out)


def slow_multiply(p, e1: Element, e2: Element) -> Element:
    """Normal-form product computed by single-step word rewriting."""
    words: dict[str, CycScalar] = {}
    for m1, c1 in e1.terms.items():
        for m2, c2 in e2.terms.items():
            w = word_of_monomial(m1) + word_of_monomial(m2)
            words[w] = words.get(w, p.zero) + c1 * c2
    words = _normalize_words(p, words)
    out = Element()
    for w, coeff in words.items():
        if coeff.is_zero():
            continue
        mono = _monomial_of_word(w)
        cur = out.terms.get(mono)
        s = coeff if cur is None else cur + coeff
        if s.is_zero():
            out.terms.pop(mono, None)
        else:
            out.terms[mono] = s
    return out


ORDER = {"a": 0, "A": 0, "b": 1, "B": 1, "c": 2, "C": 2, "x": 3, "y": 4}


def _normalize_words(p, words):
    n, n1 = p.n, p.n1
    q = p.q
    b1, b2, b3 = p.beta
    queue = dict(words)
    done: dict[str, CycScalar] = {}
    guard = 0
    while queue:
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("word rewriting did not terminate")
        w, coeff = queue.popitem()
        if coeff.is_zero():
            continue
        step = _one_step(p, w)
        if step is None:
            done[w] = done.get(w, p.zero) + coeff
            continue
        for w2, factor in step:
            queue[w2] = queue.get(w2, p.zero) + coeff * factor
    return done


def _one_step(p, w):
    """One rewrite of the leftmost reducible spot, or None if normal."""
    n, n1 = p.n, p.n1
    q = p.q
    b1, b2, b3 = p.beta
    # inverse-pair cancellation
    for pair in ("aA", "Aa", "bB", "Bb", "cC", "Cc"):
        idx = w.find(pair)
        if idx >= 0:
            return [(w[:idx] + w[idx + 2 :], p.one)]
    # power reduction x^n, y^n
    idx = w.find("x" * n)
    if idx >= 0:
        rest = w[:idx] + w[idx + n :]
        out = []
        if not b1.is_zero():
            out.append((w[:idx] + "a" * (n * n1) + w[idx + n :], b1))
            out.append((w[:idx] + "b" * n + w[idx + n :], -b1))
        return out or [(rest, p.zero)]
    idx = w.find("y" * n)
    if idx >= 0:
        out = []
        if not b2.is_zero():
            out.append((w[:idx] + "a" * (n * n1) + w[idx + n :], b2))
            out.append((w[:idx] + "c" * n + w[idx + n :], -b2))
        return out or [(w[:idx] + w[idx + n :], p.zero)]
    for i in range(len(w) - 1):
        l1, l2 = w[i], w[i + 1]
        if ORDER[l1] > ORDER[l2]:
            head, tail = w[:i], w[i + 2 :]
            swapped = head + l2 + l1 + tail
            if l1 == "x" and l2 in "aA":
                # xa = q ax, xA = q^-1 Ax
                return [(swapped, q if l2 == "a" else q.inv())]
            if l1 == "y" and l2 in "aA":
                return [(swapped, q.inv() if l2 == "a" else q)]
            if l1 == "y" and l2 == "x":
                out = [(swapped, q ** (-n1))]
                if not b3.is_zero():
                    out.append((head + "a" * (2 * n1) + tail, b3))
                    out.append((head + "bc" + tail, -b3))
                return out
            # all other out-of-order pairs commute on the nose
            return [(swapped, p.one)]
    return None


def _monomial_of_word(w) -> Monomial:
    i = w.count("a") - w.count("A")
    j = w.count("b") - w.count("B")
    k = w.count("c") - w.count("C")
    u = w.count("x")
    v = w.count("y")
    return Monomial(i, j, k, u, v)


def brute_tensor_square_of_x(p):
    """(x (x) a^n1 + b (x) x)^2 computed with two explicit tensor multiplies."""
    from hopfsl2.algebra import TensorElement

    dx = TensorElement(
        {
            (Monomial(0, 0, 0, 1, 0), Monomial(p.n1, 0, 0, 0, 0)): p.one,
            (Monomial(0, 1, 0, 0, 0), Monomial(0, 0, 0, 1, 0)): p.one,
        }
    )
    return p.tensor_mul(dx, dx)


# -- scalar oracle: Q[x]/(x^M - 1) with Fraction coefficients ----------------
#
# Arithmetic modulo x^M - 1 needs no cyclotomic polynomial at all; only the
# final fold into the basis 1, zeta, ..., zeta^(phi(M)-1) divides by Phi_M,
# which is built here from the Moebius product formula rather than by the
# package's recursive division.


def _moebius(k: int) -> int:
    out, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            out = -out
        d += 1
    return -out if k > 1 else out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    """Quotient and remainder of Fraction polynomials (little-endian), den monic."""
    num = list(num)
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    return q, num[: len(den) - 1]


def oracle_cyclotomic(M: int) -> list:
    """Phi_M = prod over d | M of (x^d - 1)^moebius(M/d)."""
    top, bottom = [Fraction(1)], [Fraction(1)]
    for d in range(1, M + 1):
        if M % d == 0:
            mu = _moebius(M // d)
            factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
            if mu == 1:
                top = _poly_mul(top, factor)
            elif mu == -1:
                bottom = _poly_mul(bottom, factor)
    q, r = _poly_divmod(top, bottom)
    assert not any(r)
    return q


class CyclicOracle:
    """An element of Q[x]/(x^M - 1) whose image in Q(zeta_M) is the scalar."""

    def __init__(self, M: int, coeffs):
        self.M = M
        self.c = [Fraction(0)] * M
        for e, x in enumerate(coeffs):
            self.c[e % M] += Fraction(x)

    def __add__(self, other):
        return CyclicOracle(self.M, [x + y for x, y in zip(self.c, other.c)])

    def __sub__(self, other):
        return CyclicOracle(self.M, [x - y for x, y in zip(self.c, other.c)])

    def __neg__(self):
        return CyclicOracle(self.M, [-x for x in self.c])

    def __mul__(self, other):
        out = [Fraction(0)] * self.M
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    out[(i + j) % self.M] += x * y
        return CyclicOracle(self.M, out)

    def embed(self, M2: int) -> "CyclicOracle":
        """zeta_M = zeta_M2^(M2/M)."""
        step = M2 // self.M
        out = [Fraction(0)] * M2
        for e, x in enumerate(self.c):
            out[e * step] += x
        return CyclicOracle(M2, out)

    def fold(self) -> tuple:
        """Coordinates in the basis 1, zeta_M, ..., zeta_M^(phi(M)-1)."""
        _q, r = _poly_divmod(self.c, oracle_cyclotomic(self.M))
        return tuple(r)


def reference_decompose(p, m, g1):
    """Composition multiplicities of m from the full trace system.

    One elimination of [candidate traces | traces of m] on every row
    tr(a^j x^u y^u), j < 2n, with the candidate traces computed afresh; when
    the candidates look dependent, once more with j < 4n.  Takes the
    preconditions of fusion.decompose for granted.
    """
    gamma2, gamma3 = base_constant(m.mat("b")[0][0]), base_constant(m.mat("c")[0][0])
    cands = candidate_simples(p, g1, gamma2, gamma3)
    ambient = field_zero(m.zero_scalar(), *(cm.zero_scalar() for _, cm in cands))
    ncand = len(cands)
    jmax = 2 * p.n
    while True:
        cols = [[lift(t, ambient) for t in trace_vector(p, cm, jmax)] for _, cm in cands]
        v = [lift(t, ambient) for t in trace_vector(p, m, jmax)]
        red, pivots = rref([[col[w] for col in cols] + [v[w]] for w in range(len(v))])
        if pivots[:ncand] == list(range(ncand)):
            break
        if jmax >= 4 * p.n:
            raise RankDeficient(f"candidate trace vectors are linearly dependent (rank < {ncand})")
        jmax *= 2
    if ncand in pivots:
        raise NoIntegerSolution("trace system is inconsistent (missing candidate?)")
    mults = []
    for c in range(ncand):
        x = base_constant(red[c][ncand])
        if not x.is_rational() or x.as_fraction().denominator != 1 or x.as_fraction() < 0:
            raise NoIntegerSolution(f"non-integer multiplicity {x!r}")
        mults.append(int(x.as_fraction()))
    return FusionVector({lab: k for k, (lab, _) in zip(mults, cands) if k})


def reference_tensor_traces(p, m1, m2):
    """The n^2 trace rows of m1 (x) m2 (traces of a^j x^u y^u at j < n):
    trace_vector reads, and so builds, the product's own matrices."""
    return trace_vector(p, tensor(p, m1, m2, check=False), p.n)
