import math
import random
from fractions import Fraction

import pytest
from oracles import CyclicOracle

from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import (
    CycScalar,
    DivisionByZero,
    IncompatibleModulus,
    cyclotomic_polynomial,
    euler_phi,
    nth_root_of_unity_multiple,
    parse_scalar,
    rational,
    root_of_unity,
)
from hopfsl2.extfield import ExtScalar
from hopfsl2.modules import solve_k_seed


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(36) == 12


def test_root_of_unity_basics():
    i = root_of_unity(4, 1)
    assert i * i == -1
    assert root_of_unity(3, 3) == 1
    # compatibility of embeddings
    assert root_of_unity(12, 4) == root_of_unity(3, 1)


def test_vanishing_sum_of_fifth_roots():
    s = rational(1)
    for k in range(1, 5):
        s = s + root_of_unity(5, k)
    assert s.is_zero()


def test_inverse_of_root():
    for n in (3, 5, 8):
        z = root_of_unity(n, 1)
        assert z.inv() == root_of_unity(n, n - 1)


def _random_scalar(rng, m):
    phi = euler_phi(m)
    return CycScalar(m, [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(phi)])


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.choice([4, 5, 6, 12])
        x, y, z = (_random_scalar(rng, m) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_inverse_random():
    rng = random.Random(5)
    count = 0
    while count < 100:
        x = _random_scalar(rng, rng.choice([5, 8, 12]))
        if x.is_zero():
            continue
        count += 1
        assert x * x.inv() == 1
    with pytest.raises(DivisionByZero):
        rational(0).inv()


def test_embed_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        x = _random_scalar(rng, 6)
        y = _random_scalar(rng, 6)
        assert (x * y).embed(24) == x.embed(24) * y.embed(24)
        assert (x + y).embed(24) == x.embed(24) + y.embed(24)
    with pytest.raises(IncompatibleModulus):
        _random_scalar(rng, 6).embed(8)


def test_multiplicative_order():
    assert (-rational(1)).multiplicative_order() == 2
    assert root_of_unity(6, 1).multiplicative_order() == 6
    assert root_of_unity(12, 8).multiplicative_order() == 3
    assert rational(2).multiplicative_order() is None
    assert (root_of_unity(5, 1) + 1).multiplicative_order() is None


def test_serialize_roundtrip_random():
    rng = random.Random(3)
    for _ in range(50):
        x = _random_scalar(rng, rng.choice([1, 4, 9, 12]))
        text = x.serialize()
        y = parse_scalar(text)
        assert y == x
        assert y.serialize() == text


def test_rational_multiple_decomposition():
    z = root_of_unity(8, 3) * Fraction(3, 7)
    r, k, L = z.as_rational_multiple_of_root()
    assert rational(r) * root_of_unity(L, k) == z
    assert (root_of_unity(5, 1) + 1).as_rational_multiple_of_root() is None


def test_nth_root_helper():
    x = rational(8) * root_of_unity(3, 1)
    y = nth_root_of_unity_multiple(x, 3)
    assert y is not None and y**3 == x
    assert nth_root_of_unity_multiple(rational(2), 3) is None


def test_canonical_zero_and_equality_across_moduli():
    a = root_of_unity(12, 4) - root_of_unity(3, 1)
    assert a.is_zero()
    assert rational(Fraction(1, 2), 8) == rational(Fraction(1, 2), 6)


def test_hash_agrees_with_equality_across_moduli():
    i4 = root_of_unity(4, 1)
    i8, i12 = i4.embed(8), i4.embed(12)
    assert i4 == i8 == i12
    assert hash(i4) == hash(i8) == hash(i12)
    assert len({i4, i8, i12}) == 1
    assert hash(rational(3, 12)) == hash(3) == hash(rational(3))
    rng = random.Random(5)
    for m in (3, 4, 6, 10):
        x = CycScalar(m, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(euler_phi(m))])
        for k in (2, 3, 4):
            assert hash(x.embed(k * m)) == hash(x)


def _thm519_tower_seed():
    """A VI k-seed of z9 at the thm5.19 point: it lives in a quadratic tower
    over a cubic tower over Q(zeta_36)."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    seed = solve_k_seed(p, "VI", root_of_unity(9, 1), 1, 1, 0, allow_extension=True)[-1]
    assert isinstance(seed.tower.base_zero(), ExtScalar)
    return p, seed


def test_tower_constants_hash_as_their_base_values():
    p, seed = _thm519_tower_seed()
    top = seed.tower
    low = top.base_zero().tower
    for x in (p.q, p.sqrt_q, rational(Fraction(-2, 3), p.M)):
        for lifted in (top.lift(x), low.lift(x)):
            assert lifted == x and hash(lifted) == hash(x)
            assert len({lifted, x}) == 1
    assert hash(top.lift(3)) == hash(3) == hash(low.lift(3))
    # a non-constant of the cubic level, lifted as a constant of the quadratic one
    g = low.gen() + p.q
    assert top.lift(g) == g and hash(top.lift(g)) == hash(g)
    assert hash(seed * 1) == hash(seed)


def _repeated_power(x, k):
    out = x.one()
    for _ in range(abs(k)):
        out = out * (x if k > 0 else x.inv())
    return out


def test_pow_matches_repeated_product_and_inverse():
    x = CycScalar(12, [Fraction(1, 2), 0, -3, Fraction(2, 5)])
    for k in range(-4, 10):
        assert (x**k).key() == _repeated_power(x, k).key()
    _p, seed = _thm519_tower_seed()
    y = seed + seed.tower.gen() * 2 - 1
    for k in range(-4, 10):
        assert (y**k).key() == _repeated_power(y, k).key()


def test_key_is_modulus_and_fraction_coefficients():
    # fingerprints, seed order and fusion output order sort on key()
    rng = random.Random(17)
    for m in (1, 2, 3, 4, 6, 9, 12, 36):
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(euler_phi(m))]
            assert CycScalar(m, coeffs).key() == (m, tuple(coeffs))


# -- properties against the Q[x]/(x^M - 1) oracle (needs hypothesis) ----------

MODULI = (1, 2, 3, 4, 6, 9, 12, 36)


def _strategies():
    """(hypothesis, scalar_data strategy); skips the calling test when
    hypothesis is not installed, so the rest of this file runs without it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # 0, 1 and unit fractions hit the short paths of the rational factor
    units = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(1, 3)])
    coeff = st.one_of(units, st.fractions(min_value=-30, max_value=30, max_denominator=12))

    def coeff_list(m):
        phi = euler_phi(m)
        full = st.lists(coeff, min_size=phi, max_size=phi)
        rational = coeff.map(lambda c: [c] + [Fraction(0)] * (phi - 1))
        return st.one_of(full, rational)

    scalar_data = st.sampled_from(MODULI).flatmap(
        lambda m: st.tuples(st.just(m), coeff_list(m), coeff_list(m))
    )
    return hypothesis, scalar_data


def _assert_normal(x):
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def test_ring_operations_match_cyclic_oracle():
    hypothesis, scalar_data = _strategies()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(scalar_data, hypothesis.strategies.fractions(max_denominator=9))
    @hypothesis.example((6, [Fraction(1, 2), Fraction(1)], [Fraction(0), Fraction(0)]), Fraction(1, 3))
    def check(data, f):
        m, a, b = data
        x, y = CycScalar(m, a), CycScalar(m, b)
        ox, oy = CyclicOracle(m, a), CyclicOracle(m, b)
        for got, want in (
            (x * y, ox * oy),
            (x + y, ox + oy),
            (x - y, ox - oy),
            (-x, -ox),
            (x * f, ox * CyclicOracle(m, [f])),
            (x * rational(f, m), ox * CyclicOracle(m, [f])),
            (rational(f, m) * x, ox * CyclicOracle(m, [f])),
            (x - x, ox - ox),
        ):
            _assert_normal(got)
            assert got.coefficients() == want.fold()
        for k in (2, 3):
            got = x.embed(k * m)
            _assert_normal(got)
            assert got.coefficients() == ox.embed(k * m).fold()
        if not x.is_zero():
            xi = x.inv()
            _assert_normal(xi)
            assert (ox * CyclicOracle(m, xi.coefficients())).fold() == CyclicOracle(m, [1]).fold()

    check()


def test_serialize_roundtrip_property():
    hypothesis, scalar_data = _strategies()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(scalar_data)
    def check(data):
        m, a, _b = data
        x = CycScalar(m, a)
        y = parse_scalar(x.serialize())
        assert (y.m, y.num, y.den) == (x.m, x.num, x.den)
        assert y.serialize() == x.serialize()

    check()


def test_hash_agrees_with_equality_property():
    hypothesis, scalar_data = _strategies()

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(scalar_data, hypothesis.strategies.sampled_from(MODULI))
    def check(data, m2):
        m, a, b = data
        x, y = CycScalar(m, a), CycScalar(m, b)
        for k in (2, 3, 4):
            assert x.embed(k * m) == x and hash(x.embed(k * m)) == hash(x)
        # x + 0 lands in lcm(m, m2): equal to x, so it hashes alike
        z = x + rational(0, m2)
        assert z == x and hash(z) == hash(x)
        if x.is_rational():
            assert x == x.as_fraction() and hash(x) == hash(x.as_fraction())
        assert (x == y) == (x.coefficients() == y.coefficients())
        if x == y:
            assert hash(x) == hash(y)

    check()
