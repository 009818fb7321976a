import functools
import itertools
import random
from fractions import Fraction

import pytest

from hopfsl2.algebra import AlgebraParams, Element, Monomial, TensorElement

from oracles import slow_multiply


def test_generator_relations(p311):
    p = p311
    a, b, c, x, y = (p.gen(g) for g in "abcxy")
    # xa = q ax
    assert p.mul(x, a) == p.mul(a, x).scale(p.q)
    assert p.mul(y, a) == p.mul(a, y).scale(p.q.inv())
    for u, v in [(a, b), (a, c), (b, c), (b, x), (c, x), (b, y), (c, y)]:
        assert p.mul(u, v) == p.mul(v, u)
    # yx = q^-1 xy + b3 (a^2 - bc)
    yx = p.mul(y, x)
    expected = p.element(
        (p.qpow(-1), (0, 0, 0, 1, 1)), (1, (2, 0, 0, 0, 0)), (-1, (0, 1, 1, 0, 0))
    )
    assert yx == expected
    # unit
    e = p.random_element(random.Random(0))
    assert p.mul(p.unit(), e) == e and p.mul(e, p.unit()) == e


def test_power_relations(p311):
    p = p311
    x, y = p.gen("x"), p.gen("y")
    x3 = p.mul_many(x, x, x)
    assert x3 == p.element((1, (3, 0, 0, 0, 0)), (-1, (0, 3, 0, 0, 0)))
    y3 = p.mul_many(y, y, y)
    assert y3 == p.element((1, (3, 0, 0, 0, 0)), (-1, (0, 0, 3, 0, 0)))


@pytest.mark.parametrize("n,n1", [(3, 1), (4, 1), (5, 1), (5, 2)])
def test_eq1_corrected_form_against_slow_oracle(n, n1):
    """y^k x = q^(-k n1) x y^k + b3 u_k (q^(-(k-1)n1) a^(2n1) - bc) y^(k-1)."""
    p = AlgebraParams(n, n1, beta=(1, 1, 1))
    x, y = p.gen("x"), p.gen("y")
    for k in range(1, n):
        yk = p.power(y, k)
        lhs = p.mul(yk, x)
        assert lhs == slow_multiply(p, yk, x)
        u_k = p.zero
        for j in range(k):
            u_k = u_k + p.qpow(-j * n1)
        lead = p.mul(x, yk).scale(p.qpow(-k * n1))
        rem = p.element(
            (p.beta[2] * u_k * p.qpow(-(k - 1) * n1), (2 * n1, 0, 0, 0, k - 1)),
            (-(p.beta[2] * u_k), (0, 1, 1, 0, k - 1)),
        )
        assert lhs == lead + rem


def test_multiply_matches_slow_oracle_random(p311):
    p = p311
    rng = random.Random(21)
    for _ in range(15):
        e1 = p.random_element(rng, degree_bound=3)
        e2 = p.random_element(rng, degree_bound=3)
        assert p.mul(e1, e2) == slow_multiply(p, e1, e2)


def test_associativity_random(p311):
    rng = random.Random(13)
    for _ in range(40):
        e1, e2, e3 = (p311.random_element(rng) for _ in range(3))
        assert p311.mul(p311.mul(e1, e2), e3) == p311.mul(e1, p311.mul(e2, e3))


def test_distributivity_random(p311):
    rng = random.Random(14)
    for _ in range(25):
        e1, e2, e3 = (p311.random_element(rng) for _ in range(3))
        assert p311.mul(e1, e2 + e3) == p311.mul(e1, e2) + p311.mul(e1, e3)
        assert p311.mul(e1 + e2, e3) == p311.mul(e1, e3) + p311.mul(e2, e3)


def test_coproduct_of_generators(p311):
    p = p311
    da = p.coproduct(p.gen("a"))
    assert da == TensorElement({(Monomial(1, 0, 0, 0, 0), Monomial(1, 0, 0, 0, 0)): p.one})
    d1 = p.coproduct(p.unit())
    assert d1 == TensorElement({(Monomial(0, 0, 0, 0, 0), Monomial(0, 0, 0, 0, 0)): p.one})


def test_coproduct_x_squared_frozen(p311):
    """Expansion of (x (x) a + b (x) x)^2, frozen from the brute-force oracle."""
    p = p311
    expected = TensorElement(
        {
            (Monomial(0, 0, 0, 2, 0), Monomial(2, 0, 0, 0, 0)): p.one,
            (Monomial(0, 1, 0, 1, 0), Monomial(1, 0, 0, 1, 0)): p.one + p.q,
            (Monomial(0, 2, 0, 0, 0), Monomial(0, 0, 0, 2, 0)): p.one,
        }
    )
    assert p.coproduct(p.gen("x", 2)) == expected
    from oracles import brute_tensor_square_of_x

    assert brute_tensor_square_of_x(p) == expected


def test_q_binomial_coproduct_of_x_powers():
    """Delta(x^k) = sum C(k,l)_(q^n1) b^l x^(k-l) (x) a^((k-l) n1) x^l."""
    p = AlgebraParams(5, 1, beta=(1, 1, 1))
    for k in range(1, 5):
        got = p.coproduct(p.gen("x", k))
        expected = TensorElement()
        for l in range(k + 1):
            coeff = _gauss_binomial(p, k, l)
            key = (Monomial(0, l, 0, k - l, 0), Monomial((k - l) * p.n1, 0, 0, l, 0))
            if not coeff.is_zero():
                expected.terms[key] = coeff
        assert got == expected


def _gauss_binomial(p, k, l):
    def qint(m):
        s = p.zero
        for j in range(m):
            s = s + p.qpow(j * p.n1)
        return s

    num = p.one
    den = p.one
    for j in range(1, k + 1):
        num = num * qint(j)
    for j in range(1, l + 1):
        den = den * qint(j)
    for j in range(1, k - l + 1):
        den = den * qint(j)
    return num * den.inv()


def test_counit(p311):
    p = p311
    assert p.counit(p.element((1, (5, -2, 0, 0, 0)))) == 1
    assert p.counit(p.gen("x")).is_zero()
    assert p.counit(p.mul(p.gen("y"), p.gen("x"))).is_zero()


def test_antipode_values(p311):
    p = p311
    assert p.antipode(p.gen("a")) == p.element((1, (-1, 0, 0, 0, 0)))
    assert p.antipode(p.unit()) == p.unit()
    # s(s(x)) = q^(-n1) x
    ssx = p.antipode(p.antipode(p.gen("x")))
    assert ssx == p.gen("x").scale(p.qpow(-1))


def test_antipode_antihomomorphism_random(p311):
    rng = random.Random(31)
    p = p311
    for _ in range(10):
        u = p.random_element(rng)
        v = p.random_element(rng)
        assert p.antipode(p.mul(u, v)) == p.mul(p.antipode(v), p.antipode(u))


@pytest.mark.parametrize("beta", [(0, 0, 0), (1, 1, 1)])
def test_hopf_axioms_small(beta):
    p = AlgebraParams(3, 1, beta=beta)
    rep = p.check_hopf_axioms(n_random=10, seed=4)
    assert rep.ok, rep.failures()


def test_antipode_axiom_on_basis_monomials(p311):
    """m(s (x) id) Delta(h) = eps(h) 1 for all basis monomials of degree <= 3."""
    p = p311
    from hopfsl2.algebra import Element, Monomial

    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            for u in (0, 1, 2):
                for v in (0, 1):
                    h = Element.monomial(Monomial(i, j, 0, u, v), p.one)
                    target = p.unit().scale(p.counit(h))
                    acc = Element()
                    for (l, r), c in p.coproduct(h).terms.items():
                        sl = p.antipode(Element.monomial(l, p.one))
                        acc = acc + p.mul(sl, Element.monomial(r, c))
                    assert acc == target


def test_element_serialize_roundtrip(p311):
    import random

    from hopfsl2.algebra import parse_element

    p = p311
    rng = random.Random(8)
    for _ in range(20):
        e = p.mul(p.random_element(rng), p.random_element(rng))
        text = e.serialize()
        back = parse_element(text)
        assert back == e and back.serialize() == text
    assert parse_element("0").is_zero()


def test_axiom_checker_flags_bad_parity_and_gcd():
    # n even with n1 even: the displayed coproduct is not even an algebra map
    rep = AlgebraParams(4, 2, beta=(1, 1, 1)).check_hopf_axioms(n_random=3, seed=1)
    assert not rep.ok
    assert "delta_algebra_map" in rep.failures()
    # n even, n1 odd is fine
    rep2 = AlgebraParams(4, 3, beta=(1, 1, 1)).check_hopf_axioms(n_random=3, seed=1)
    assert rep2.ok


def test_axiom_checker_failure_witnesses_pinned():
    """The whole failures() dict of a parity-violating algebra, witness text
    included: each failing axiom keeps its first failing pair."""
    rep = AlgebraParams(4, 2, beta=(1, 1, 1)).check_hopf_axioms(n_random=3, seed=1)
    u = "(cyc(8; -1, 0, 0, 0)) a*b^-1*y^2 + (cyc(8; 0, 0, -1, 0)) a*b^-1*c*y"
    v = "(cyc(8; 1, 0, 0, 0)) c^-1*x*y^2 + (cyc(8; 0, 0, 1, 0)) a*c*x^2"
    assert rep.failures() == {"delta_algebra_map": (u, v), "antipode_antihom": (u, v)}


def test_power_by_squaring_matches_repeated_product(p311):
    e = p311.random_element(random.Random(5))
    for k in range(8):
        assert p311.power(e, k) == p311.mul_many(*[e] * k)


def test_power_matches_repeated_product_and_unit_below_one():
    p = AlgebraParams(4, 1, beta=(1, 1, 1))
    e = p.random_element(random.Random(11)) + p.gen("x")
    for k in range(-2, 7):
        expected = p.unit()
        for _ in range(k):
            expected = p.mul(expected, e)
        assert p.power(e, k) == expected, k


def test_coproduct_repr_is_pinned(p311):
    """The text of a coproduct, as the separate H (x) H class printed it."""
    x, y = p311.gen("x"), p311.gen("y")
    assert repr(p311.coproduct(x)) == "(cyc(6; 1, 0)) x (x) a + (cyc(6; 1, 0)) b (x) x"
    assert repr(p311.coproduct(p311.mul(x, y))) == (
        "(cyc(6; 1, 0)) x*y (x) a^2 + (cyc(6; 1, 0)) c*x (x) a*y"
        " + (cyc(6; -1, 1)) b*y (x) a*x + (cyc(6; 1, 0)) b*c (x) x*y"
    )
    assert repr(p311.coproduct(x) - p311.coproduct(x)) == "0"


def test_every_table_lives_in_caches():
    p = AlgebraParams(3, 1, beta=(1, 1, 1))
    p.check_hopf_axioms(n_random=2, seed=0)
    assert not [name for name, value in vars(p).items() if isinstance(value, dict)]
    assert p.caches.product and p.caches.delta and p.caches.antipode
    # at most n^5 product entries, each keyed (u1, v1, a-exponent mod n, u2, v2)
    assert all(0 <= r < p.n for (_u1, _v1, r, _u2, _v2) in p.caches.product)


# -- properties of the table-driven engine (needs hypothesis) ------------------

AXIOM_GRID = [(2, 1), (3, 1), (3, 2), (4, 3)]  # the criterion-01 grid
BETAS = list(itertools.product((0, 1), repeat=3))


@functools.lru_cache(maxsize=None)
def _params(n, n1, beta):
    return AlgebraParams(n, n1, beta=beta)


def _element_pairs():
    """(hypothesis, strategy of (p, e1, e2)) over the criterion-01 grid and
    every beta in {0,1}^3; skips the calling test without hypothesis.  The
    a, b, c exponents range over [-3, 3], so the a-exponent of the right
    factor is often negative or at least n."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exps = st.integers(-3, 3)

    def elements(p):
        mono = st.tuples(exps, exps, exps, st.integers(0, p.n - 1), st.integers(0, p.n - 1))
        coeff = st.sampled_from([1, -1, p.q, -p.qpow(2), Fraction(1, 2), p.one + p.q])
        return st.lists(st.tuples(coeff, mono), min_size=1, max_size=3).map(lambda ts: p.element(*ts))

    params = st.tuples(st.sampled_from(AXIOM_GRID), st.sampled_from(BETAS)).map(
        lambda g: _params(*g[0], g[1])
    )
    return hypothesis, params.flatmap(lambda p: st.tuples(st.just(p), elements(p), elements(p)))


def test_mul_matches_word_rewriter_property():
    hypothesis, pairs = _element_pairs()

    @hypothesis.settings(hypothesis.settings.get_profile("hopfsl2"), max_examples=120)
    @hypothesis.given(pairs)
    def check(data):
        p, e1, e2 = data
        assert p.mul(e1, e2) == slow_multiply(p, e1, e2)

    check()


def test_equality_agrees_with_a_zero_difference_property():
    """Element == compares stored terms; it must agree with a - b == 0 on
    elements and on tensor elements, equal or not."""
    hypothesis, pairs = _element_pairs()

    @hypothesis.settings(hypothesis.settings.get_profile("hopfsl2"), max_examples=80)
    @hypothesis.given(pairs)
    def check(data):
        p, u, v = data
        du, dv = p.coproduct(u), p.coproduct(v)
        for a, b in ((u, v), (u, u + v - v), (u + v, v + u), (du, dv), (du, p.coproduct(u + v) - dv)):
            assert (a == b) == (a - b).is_zero() == (b == a)
        assert (u == v + (u - v)) and not (u == u + p.unit().scale(p.q))

    check()


def test_coproduct_and_antipode_on_generated_pairs():
    hypothesis, pairs = _element_pairs()

    @hypothesis.settings(hypothesis.settings.get_profile("hopfsl2"), max_examples=80)
    @hypothesis.given(pairs)
    def check(data):
        p, u, v = data
        uv = p.mul(u, v)
        assert p.coproduct(uv) == p.tensor_mul(p.coproduct(u), p.coproduct(v))
        assert p.antipode(uv) == p.mul(p.antipode(v), p.antipode(u))

    check()


def test_t_and_u_in_closed_form():
    """t = n / gcd(n, n1) is the order of q^n1 and u = n / t."""
    for n in range(2, 13):
        for n1 in range(1, 3 * n):
            p = AlgebraParams(n, n1)
            assert p.t == (p.q**n1).multiplicative_order()
            assert p.t * p.u == n
