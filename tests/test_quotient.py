import random
from functools import reduce

import pytest

from hopfsl2.algebra import (
    AlgebraParams,
    BlockAlgebra,
    Element,
    IntegralCheckFailed,
    Monomial,
    PreconditionViolated,
    QuotientParams,
)


@pytest.fixture(scope="module")
def qp32():
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(12,))
    return QuotientParams(p, m=2, n2=1, n3=1)


def test_reduce_examples(qp32):
    p = qp32.p
    # b -> a^(n m n2) = a^6
    assert qp32.reduce(p.gen("b")) == p.element((1, (6, 0, 0, 0, 0)))
    # a^N -> 1
    assert qp32.reduce(p.element((1, (qp32.N, 0, 0, 0, 0)))) == p.unit()


def test_reduce_is_algebra_map(qp32):
    p = qp32.p
    rng = random.Random(17)
    for _ in range(25):
        u = p.random_element(rng)
        v = p.random_element(rng)
        assert qp32.reduce(p.mul(u, v)) == qp32.mul(qp32.reduce(u), qp32.reduce(v))


def test_quotient_basis_dimension(qp32):
    """The reduced monomials span exactly N n^2 = n^3 (n-1) m dimensions."""
    p = qp32.p
    seen = set()
    for i in range(qp32.N):
        for j in (0, 1):
            for k in (0, 1):
                for u in range(p.n):
                    for v in range(p.n):
                        red = qp32.reduce(Element.monomial(Monomial(i, j, k, u, v), p.one))
                        assert len(red.terms) == 1
                        seen.add(next(iter(red.terms)))
    assert len(seen) == qp32.N * p.n**2 == p.n**3 * (p.n - 1) * qp32.m


def test_central_idempotents_are_built_and_verified_once(monkeypatch):
    """Every block of one QuotientParams reads the same verified list."""
    p = AlgebraParams(3, 1, beta=(1, 1, 0), extra_orders=(12,))
    qp = QuotientParams(p, m=2, n2=1, n3=1)
    builds = []
    build = qp._verified_idempotents
    monkeypatch.setattr(qp, "_verified_idempotents", lambda: builds.append(1) or build())
    idems = qp.central_idempotents()
    blocks = [BlockAlgebra(qp, index) for index in range(len(idems))]
    assert builds == [1] and qp.central_idempotents() is idems
    assert [blk.idem for blk in blocks] == idems


def test_central_idempotents(qp32):
    p = qp32.p
    idems = qp32.central_idempotents()
    assert len(idems) == qp32.m * (p.n - 1) == 4
    total = Element()
    for e in idems:
        total = total + e
    assert total == p.unit()
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            assert qp32.mul(ei, ej) == (ei if i == j else Element())
    # centrality against the generators
    for gname in "axy":
        g = p.gen(gname)
        for e in idems:
            assert qp32.mul(e, g) == qp32.mul(g, e)


def test_block_dimensions(qp32):
    dims = [qp32.block_dimension(e) for e in qp32.central_idempotents()]
    assert dims == [27, 27, 27, 27]


def test_idempotents_smallest_config():
    """(n, m) = (2, 2): m(n-1) = 2 idempotents.  (m = 1 leaves no admissible
    n1: the standing assumption 1 <= n1 < m(n-1) is enforced.)"""
    p = AlgebraParams(2, 1, beta=(1, 1, 1), extra_orders=(4,))
    with pytest.raises(PreconditionViolated):
        QuotientParams(p, m=1)
    qp = QuotientParams(p, m=2)
    idems = qp.central_idempotents()
    assert len(idems) == 2
    total = Element()
    for e in idems:
        total = total + e
    assert total == p.unit()


def test_integral_at_31():
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(6,))
    qp = QuotientParams(p, m=1)
    lam = qp.integral()
    assert p.counit(lam).is_zero()
    # spot identities from the definition
    a = p.gen("a")
    assert qp.mul(a, lam) == lam
    assert qp.mul(p.gen("x"), lam).is_zero()
    # the full basis sweep
    qp.check_integral()


def test_integral_detects_corruption():
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(6,))
    qp = QuotientParams(p, m=1)

    class Broken(QuotientParams):
        def integral(self):
            lam = super().integral()
            lam.terms[Monomial(0, 0, 0, 1, 1)] = p.one
            return lam

    with pytest.raises(IntegralCheckFailed):
        Broken(p, m=1).check_integral()


def test_block_params_and_weight_idempotents():
    p = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(6,))
    qp = QuotientParams(p, m=1)
    blk = BlockAlgebra(qp, 1)
    n = p.n
    fs = blk.weight_idempotents()
    one = {(0, 0, 0): p.one}
    total = {}
    for f in fs:
        for key, val in f.items():
            total[key] = total.get(key, p.zero) + val
    assert {k: v for k, v in total.items() if not v.is_zero()} == one
    for i in range(n):
        for j in range(n):
            prod = blk.multiply(fs[i], fs[j])
            assert prod == (fs[i] if i == j else {})
    # the shift identities f_i x = x f_(i-1), f_i y = y f_(i+1)
    xm = {(0, 1, 0): p.one}
    ym = {(0, 0, 1): p.one}
    for i in range(n):
        assert blk.multiply(fs[i], xm) == blk.multiply(xm, fs[(i - 1) % n])
        assert blk.multiply(fs[i], ym) == blk.multiply(ym, fs[(i + 1) % n])


def test_block_abstract_vs_quotient_products():
    """The abstract block product agrees with honest quotient arithmetic."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(6,))
    qp = QuotientParams(p, m=1)
    blk = BlockAlgebra(qp, 1)
    reps = {
        (0, 0, 0): blk.idem,
        (1, 0, 0): blk.g_elem,
        (0, 1, 0): blk.x_elem,
        (0, 0, 1): blk.y_elem,
    }

    def realize(d):
        out = Element()
        for (a, b, c), coeff in d.items():
            term = blk.idem
            for _ in range(a):
                term = qp.mul(term, blk.g_elem)
            for _ in range(b):
                term = qp.mul(term, blk.x_elem)
            for _ in range(c):
                term = qp.mul(term, blk.y_elem)
            out = out + term.scale(coeff)
        return out

    samples = [
        {(1, 0, 0): p.one},
        {(0, 1, 0): p.one},
        {(0, 0, 1): p.one},
        {(2, 1, 1): p.q},
        {(1, 2, 0): p.one, (0, 0, 2): -p.one},
    ]
    for e1 in samples:
        for e2 in samples:
            assert realize(blk.multiply(e1, e2)) == qp.mul(realize(e1), realize(e2))


def test_block_with_nontrivial_rho():
    """Abstract block arithmetic vs quotient products at beta3 != 0 with
    nonzero n2, n3 (the commutator constant rho is a nontrivial root of unity)."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(12,))
    qp = QuotientParams(p, m=2, n2=1, n3=1)
    blk = BlockAlgebra(qp, 1)
    assert not blk.cg.is_zero()

    def realize(d):
        out = Element()
        for (a, b, c), coeff in d.items():
            term = blk.idem
            for _ in range(a):
                term = qp.mul(term, blk.g_elem)
            for _ in range(b):
                term = qp.mul(term, blk.x_elem)
            for _ in range(c):
                term = qp.mul(term, blk.y_elem)
            out = out + term.scale(coeff)
        return out

    samples = [
        {(1, 0, 0): p.one},
        {(0, 1, 0): p.one},
        {(0, 0, 1): p.one},
        {(0, 1, 1): p.q},
        {(2, 0, 2): p.one},
    ]
    for e1 in samples:
        for e2 in samples:
            assert realize(blk.multiply(e1, e2)) == qp.mul(realize(e1), realize(e2))


def test_radical_check_degenerate_blocks():
    # all blocks degenerate at beta = 0
    p0 = AlgebraParams(3, 1, beta=(0, 0, 0), extra_orders=(6,))
    qp0 = QuotientParams(p0, m=1)
    blk0 = BlockAlgebra(qp0, 0)
    assert blk0.degenerate()
    assert blk0.radical_check()
    # beta = (1,1,0) at (3, m=2, n2=n3=1): block 0 degenerate, block 1 not
    p = AlgebraParams(3, 1, beta=(1, 1, 0), extra_orders=(12,))
    qp = QuotientParams(p, m=2, n2=1, n3=1)
    b0 = BlockAlgebra(qp, 0)
    assert b0.degenerate() and b0.radical_check()
    b1 = BlockAlgebra(qp, 1)
    assert not b1.degenerate()
    with pytest.raises(PreconditionViolated):
        b1.radical_check()


@pytest.mark.parametrize(
    "n, beta, m, n2, n3",
    [(4, (1, 1, 0), 1, 0, 0), (4, (1, 2, 1), 2, 1, 2), (3, (2, 1, 1), 2, 1, 1)],
)
def test_block_products_satisfy_the_weight_presentation(n, beta, m, n2, n3):
    """g^n = 1, x^n = beta1', y^n = beta2', gx = q^-1 xg, gy = q yg and
    yx - q^-n1 xy = cg g^(2 n1) + c0, in every block."""
    N = n * (n - 1) * m
    p = AlgebraParams(n, 1, beta=beta, extra_orders=(N,))
    qp = QuotientParams(p, m=m, n2=n2, n3=n3)

    def power(e, mul):
        return reduce(mul, [e] * n)

    def const(s):
        return {} if s.is_zero() else {(0, 0, 0): s}

    def plus(d1, d2, s):
        """d1 + s d2, without zero terms."""
        out = dict(d1)
        for key, c in d2.items():
            out[key] = out.get(key, p.zero) + s * c
        return {key: c for key, c in out.items() if not c.is_zero()}

    g, x, y = {(1, 0, 0): p.one}, {(0, 1, 0): p.one}, {(0, 0, 1): p.one}
    for index in range(m * (n - 1)):
        blk = BlockAlgebra(qp, index)
        mul = blk.multiply
        assert power(g, mul) == const(p.one)
        assert power(x, mul) == const(blk.beta1p)
        assert power(y, mul) == const(blk.beta2p)
        assert plus(mul(g, x), mul(x, g), -p.qpow(-1)) == {}
        assert plus(mul(g, y), mul(y, g), -p.q) == {}
        comm = plus(mul(y, x), mul(x, y), -p.qpow(-p.n1))
        rhs = plus(const(blk.c0), {((2 * p.n1) % n, 0, 0): p.one}, blk.cg)
        assert comm == rhs
        # the primed parameters are those of x' = x e and y' = s y e in the quotient
        assert power(blk.x_elem, qp.mul) == blk.idem.scale(blk.beta1p)
        assert power(blk.y_elem, qp.mul) == blk.idem.scale(blk.beta2p)
        # beta3 != 0 normalizes the commutator to g^(2 n1) + c0
        assert blk.cg == (p.zero if p.beta[2].is_zero() else p.one)
