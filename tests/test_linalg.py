import random
from fractions import Fraction

import pytest

from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import CycScalar, IncompatibleModulus, euler_phi, rational, root_of_unity
from hopfsl2.extfield import (
    ExtScalar,
    Tower,
    base_constant,
    field_zero,
    find_field_roots,
    lift,
    poly_eval,
    read_in,
    split_roots,
)
from hopfsl2.modules import build_VI, solve_k_seed
from hopfsl2.linalg import (
    factor,
    identity,
    kron,
    mat_eq,
    mat_add,
    mat_inv,
    mat_mul,
    mat_pow,
    nullspace,
    rank,
    replay,
    rref,
    solve,
)


def _rand_mat(rng, m, rows, cols):
    phi = euler_phi(m)
    return [
        [CycScalar(m, [Fraction(rng.randint(-2, 2)) for _ in range(phi)]) for _ in range(cols)]
        for _ in range(rows)
    ]


def test_inverse_and_identity():
    rng = random.Random(2)
    done = 0
    while done < 10:
        a = _rand_mat(rng, 4, 3, 3)
        try:
            inv = mat_inv(a)
        except ArithmeticError:
            continue
        done += 1
        assert mat_eq(mat_mul(a, inv), identity(a[0][0].one(), 3))


def test_mat_pow_matches_repeated_product_and_inverse():
    """x + y of a V_I module over Q(zeta_18) and of one over the thm5.19
    tower, raised to k in -2..6."""
    z9 = root_of_unity(9, 1)
    p1 = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    p3 = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    seed = solve_k_seed(p3, "VI", z9, 1, 1, 0, allow_extension=True)[-1]
    for m in (build_VI(p1, z9, 1, 1, 0, p1.zero), build_VI(p3, z9, 1, 1, 0, seed)):
        a = mat_add(m.mat("x"), m.mat("y"))
        one = identity(m.one_scalar(), m.dim)
        for k in range(-2, 7):
            expected = one
            for _ in range(abs(k)):
                expected = mat_mul(expected, a if k > 0 else mat_inv(a))
            assert mat_eq(mat_pow(a, k), expected), k


def test_nullspace_exact():
    rng = random.Random(9)
    a = _rand_mat(rng, 4, 3, 5)
    basis = nullspace(a)
    assert len(basis) >= 2
    zero = a[0][0].zero()
    for v in basis:
        out = [sum((a[i][j] * v[j] for j in range(5)), zero) for i in range(3)]
        assert all(x.is_zero() for x in out)


def test_solve_consistent_and_inconsistent():
    one = rational(1)
    zero = rational(0)
    a = [[one, zero], [one, zero]]
    assert solve(a, [one, one]) is not None
    assert solve(a, [one, zero]) is None


def test_rank_and_kron():
    one = rational(1)
    zero = rational(0)
    a = [[one, zero], [zero, one]]
    b = [[one, one], [zero, one]]
    k = kron(a, b)
    assert rank(k) == 4
    assert len(k) == 4 and len(k[0]) == 4


def test_tower_arithmetic():
    # Q(zeta_12)[s]/(s^3 + 2)
    base_one = rational(1, 12)
    minpoly = (rational(2, 12), rational(0, 12), rational(0, 12), base_one)
    tw = Tower.make(minpoly)
    s = tw.gen()
    assert s**3 == tw.lift(-2)
    x = s * s + tw.lift(root_of_unity(12, 1))
    assert x * x.inv() == tw.lift(1)
    assert Tower.make(minpoly) is tw  # interning


def test_split_roots_cubic_radical():
    # x^3 + 2 over Q(zeta_6): irreducible, splits over one tower step
    one = rational(1, 6)
    poly = [rational(2, 6), rational(0, 6), rational(0, 6), one]
    roots, sample = split_roots(poly)
    assert len(roots) == 3
    tower = sample.tower
    lifted = [tower.lift(c) for c in poly]
    for r in roots:
        assert poly_eval(lifted, r).is_zero()


def test_find_field_roots_binomial():
    # x^2 - q over Q(zeta_3): root is the canonical 2n-th root
    q = root_of_unity(3, 1)
    poly = [-q, q.zero(), q.one()]
    roots, rem = find_field_roots(poly)
    assert len(roots) == 2
    for r in roots:
        assert (r * r - q).is_zero()


def test_tower_lift_rejects_scalar_outside_base_field():
    # Q(zeta_12)[s]/(s^3 + 2) does not contain zeta_5
    tw = Tower.make((rational(2, 12), rational(0, 12), rational(0, 12), rational(1, 12)))
    with pytest.raises(IncompatibleModulus):
        tw.lift(root_of_unity(5, 1))


def test_lift_and_base_constant_round_trip_nested_tower():
    # the VI seeds at g1 = zeta_9, beta = (1, 1, 1) need two tower steps
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    seeds = solve_k_seed(p, "VI", root_of_unity(9, 1), 1, 1, 0, allow_extension=True)
    zero = field_zero(p.zero, *seeds)
    assert isinstance(zero, ExtScalar) and isinstance(zero.tower.base_zero(), ExtScalar)
    for x in (p.sqrt_q, p.beta[0], root_of_unity(9, 2), rational(-3, 4)):
        y = lift(x, zero)
        assert y.tower is zero.tower
        assert base_constant(y) == x
    assert base_constant(p.q) is p.q


def test_field_zero_picks_the_one_tower():
    p = AlgebraParams(3, 1)
    assert field_zero(p.zero) is p.zero
    assert field_zero(p.zero, p.q, p.one) is p.zero
    t1 = Tower.make((rational(2, 6), rational(0, 6), rational(0, 6), rational(1, 6)))
    t2 = Tower.make((rational(3, 6), rational(0, 6), rational(0, 6), rational(1, 6)))
    assert field_zero(p.zero, p.q, t1.gen()).tower is t1
    with pytest.raises(TypeError):
        field_zero(p.zero, t1.gen(), t2.gen())
    with pytest.raises(TypeError):
        field_zero(t1.lift(0), t2.gen())


def test_read_in_lifts_from_below_and_reads_tower_constants_down():
    # the VI seeds at g1 = zeta_9, beta = (1, 1, 1) need two tower steps
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    seeds = solve_k_seed(p, "VI", root_of_unity(9, 1), 1, 1, 0, allow_extension=True)
    zero = field_zero(p.zero, *seeds)
    inner = zero.tower.base_zero()
    s = inner.tower.gen()
    # from below: a Q(zeta_M) value and a value of the inner tower step
    assert read_in(p.sqrt_q, zero) == lift(p.sqrt_q, zero) and read_in(p.sqrt_q, zero).tower is zero.tower
    assert read_in(s, zero) == zero.tower.lift(s) and read_in(s, zero).tower is zero.tower
    assert read_in(s, inner) is s and read_in(p.q, p.zero) == p.q
    # down: constants of the nested tower, and a constant of another tower
    assert read_in(zero.tower.lift(s), inner) == s
    assert read_in(zero.tower.lift(p.q), p.zero) == p.q
    other = Tower.make((rational(2, p.M), rational(0, p.M), rational(0, p.M), rational(1, p.M)))
    moved = read_in(other.lift(p.sqrt_q), zero)
    assert moved.tower is zero.tower and base_constant(moved) == p.sqrt_q
    # a value that is no constant of the target field
    for x, target in ((other.gen(), zero), (zero.tower.gen(), inner), (s, p.zero), (zero.tower.lift(s), p.zero)):
        with pytest.raises(TypeError):
            read_in(x, target)
    # a foreign modulus
    for target in (p.zero, inner, zero):
        with pytest.raises(IncompatibleModulus):
            read_in(root_of_unity(5, 1), target)
    with pytest.raises(IncompatibleModulus):
        read_in(Tower.make((rational(2, 5), rational(0, 5), rational(1, 5))).lift(root_of_unity(5, 1)), zero)


def _replay_cases():
    """(C, right-hand sides) over Q(zeta_12) and over the nested tower of the
    VI seeds at g1 = zeta_9, beta = (1, 1, 1): for a C of full column rank and
    for one whose last column repeats its first, a consistent v = C x and an
    inconsistent v."""
    rng = random.Random(5)
    cyc = _rand_mat(rng, 12, 6, 3)
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    seeds = solve_k_seed(p, "VI", root_of_unity(9, 1), 1, 1, 0, allow_extension=True)
    zero = field_zero(p.zero, *seeds)
    s = [lift(x, zero) for x in seeds]
    tower = [[s[0] ** i * s[1] ** j + lift(rational(i - j), zero) for j in range(3)] for i in range(5)]
    for c in (cyc, tower):
        one = c[0][0].one()
        dependent = [row[:-1] + row[:1] for row in c]
        for mat in (c, dependent):
            x = [one, one + one, -one]
            consistent = [sum((a * b for a, b in zip(row, x)), one.zero()) for row in mat]
            inconsistent = consistent[:-1] + [consistent[-1] + one]
            yield mat, [consistent, inconsistent]


def test_replayed_factorization_matches_rref_of_the_augmented_matrix():
    """factor(C) gives rref(C), and replaying its steps on v gives the last
    column and the consistency verdict of rref([C | v])."""
    seen = set()
    for c, rhs in _replay_cases():
        ncols = len(c[0])
        red_c, pivots_c, steps = factor(c)
        assert (red_c, pivots_c) == rref(c)
        for v in rhs:
            red, pivots = rref([row + [x] for row, x in zip(c, v)])
            assert pivots[: len(pivots_c)] == pivots_c
            w = replay(steps, v)
            consistent = ncols not in pivots
            assert consistent == all(x.is_zero() for x in w[len(pivots_c) :])
            if consistent:
                assert [row[ncols] for row in red] == w
            seen.add((type(c[0][0]).__name__, len(pivots_c) == ncols, consistent))
    assert seen == {(t, full, ok) for t in ("CycScalar", "ExtScalar") for full in (True, False) for ok in (True, False)}
