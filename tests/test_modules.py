import dataclasses
import hashlib
import itertools

import pytest

from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import CycScalar, rational, root_of_unity
from hopfsl2.extfield import ExtScalar, split_roots
from hopfsl2.modules import (
    ParameterConstraint,
    SeedConstraintViolated,
    SimpleLabel,
    WrongType,
    build_extension_prop46,
    build_extension_prop47,
    build_simple,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    direct_sum_extension,
    dual_module,
    intertwiner_space,
    is_simple,
    is_split,
    is_split_triple,
    kind_conditions,
    modules_isomorphic,
    prop46_hypothesis,
    solve_k_seed,
    verify_module,
)


@pytest.fixture(scope="module")
def pb3():
    return AlgebraParams(3, 1, beta=(0, 0, 1))


def test_trivial_module(pb3):
    m = build_V0(pb3, 1, 1, 1, 0)
    assert verify_module(pb3, m) == []
    # counit-compatible: a, b, c act by 1
    assert m.mat("a")[0][0] == 1


def test_v0_any_parameters_at_beta_zero():
    p = AlgebraParams(3, 1, beta=(0, 0, 0), extra_orders=(5,))
    z5 = root_of_unity(5, 1)
    m = build_V0(p, z5, z5**2, z5**3, 2)
    assert verify_module(p, m) == []


def test_v0_beta3_constraint_solved(pb3):
    """beta = (0,0,1): valid iff gamma2 gamma3 = mu^(2 n1)."""
    p = pb3
    m = build_V0(p, 1, p.q, p.qpow(2), 0)
    assert verify_module(p, m) == []
    with pytest.raises(WrongType):
        build_V0(p, 1, p.q, p.q, 0)


def test_vr_canonical_z2_and_z3(pb3):
    p = pb3
    z2 = build_Vr(p, p.sqrt_q, 1, 1, 0)
    assert z2.dim == 2 and z2.label.r == 2
    assert verify_module(p, z2) == []
    assert is_simple(p, z2)
    # k_1 = beta3 (mu^2 - 1) with mu = q^(1/2) = q^2
    assert z2.mat("y")[0][1] == p.q - p.one
    z3 = build_Vr(p, p.q, 1, 1, 0)
    assert z3.dim == 3 and verify_module(p, z3) == [] and is_simple(p, z3)


def test_vr_spec_example_is_invalid(pb3):
    # (g1, gamma2, gamma3, i) = (1,1,1,0) has beta3''(0) = 0: not a V_r
    with pytest.raises(WrongType):
        build_Vr(pb3, 1, 1, 1, 0)


def test_vr_minimality_scan(pb3):
    p = pb3
    # gamma3 = q: minimal v with q^(1-v) = q is v = 0 mod 3 -> r = 3 = t
    m = build_Vr(p, 1, 1, p.q, 0)
    assert m.label.r == 3 and m.dim == 3
    assert verify_module(p, m) == [] and is_simple(p, m)
    # x^r = 0 and y^r = 0 as matrices
    from hopfsl2.linalg import mat_is_zero, mat_pow

    assert mat_is_zero(mat_pow(m.mat("x"), m.dim))
    assert mat_is_zero(mat_pow(m.mat("y"), m.dim))
    # y x^(r-1) m0 != 0, column 0 of Y X^(r-1)
    from hopfsl2.linalg import mat_mul

    yx2 = mat_mul(m.mat("y"), mat_pow(m.mat("x"), m.dim - 1))
    assert not all(yx2[r][0].is_zero() for r in range(m.dim))


def test_vr_a_spectrum(pb3):
    p = pb3
    m = build_Vr(p, p.q, 1, 1, 0)
    A = m.mat("a")
    for j in range(m.dim):
        assert A[j][j] == p.q * p.qpow(-j)


def test_vi_zero_seed_y_kills():
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    z9 = root_of_unity(9, 1)
    seeds = solve_k_seed(p, "VI", z9, 1, 1, 0)
    assert all(s.is_zero() for s in seeds)
    m = build_VI(p, z9, 1, 1, 0, seeds[0])
    assert verify_module(p, m) == [] and is_simple(p, m)
    from hopfsl2.linalg import mat_is_zero

    assert mat_is_zero(m.mat("y"))
    # x^n acts as beta1 (gamma1^n1 - gamma2^n)
    from hopfsl2.linalg import mat_pow

    xn = mat_pow(m.mat("x"), p.n)
    expect = z9**3 - 1
    for j in range(m.dim):
        assert xn[j][j] == expect


def test_vi_nonzero_seed_product_constraint():
    """beta2 = q - 1 makes the seed cube constraint k^3 = 1: three seeds."""
    p0 = AlgebraParams(3, 1, beta=(1, 0, 0))
    p = AlgebraParams(3, 1, beta=(1, p0.q - p0.one, 0), extra_orders=(9,))
    z9 = root_of_unity(9, 1)
    seeds = solve_k_seed(p, "VI", z9, 1, 1, 0)
    assert len(seeds) == 3
    mods = [build_VI(p, z9, 1, 1, 0, s) for s in seeds]
    for m in mods:
        assert verify_module(p, m) == [] and is_simple(p, m)
    # measured: the three seeds give pairwise non-isomorphic simples
    assert not modules_isomorphic(p, mods[0], mods[1])
    assert not modules_isomorphic(p, mods[0], mods[2])
    # and a wrong seed is rejected exactly
    with pytest.raises(SeedConstraintViolated):
        build_VI(p, z9, 1, 1, 0, p.q + p.one)


def test_vii_mirror():
    p = AlgebraParams(3, 1, beta=(0, 1, 0), extra_orders=(9,))
    z9 = root_of_unity(9, 1)
    seeds = solve_k_seed(p, "VII", z9, 1, 1, 0)
    m = build_VII(p, z9, 1, 1, 0, seeds[0])
    assert verify_module(p, m) == [] and is_simple(p, m)
    from hopfsl2.linalg import mat_is_zero, mat_pow

    assert mat_is_zero(m.mat("x"))
    yn = mat_pow(m.mat("y"), p.n)
    expect = z9**3 - 1
    for j in range(m.dim):
        assert yn[j][j] == expect
    with pytest.raises(WrongType):
        build_VII(p, 1, 1, 1, 0, p.zero)  # beta2'' = 0 there


@pytest.mark.parametrize("kind, message", [("VI", "VI requires beta1'' != 0"), ("VII", "VII requires beta2'' != 0")])
def test_solve_k_seed_refuses_a_kind_the_character_lacks(kind, message):
    """At beta = 0 every beta'' vanishes, so neither cyclic kind exists and
    the constraint target is zero: the solve raises, not returns s = 0."""
    p = AlgebraParams(3, 1)
    with pytest.raises(WrongType) as info:
        solve_k_seed(p, kind, 1, 1, 1, 0)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind, beta", [("VI", (1, 0, 1)), ("VII", (0, 1, 1))])
def test_target_zero_seed_solve_inverts_once(monkeypatch, n, kind, beta):
    """With target zero the n seeds are -k_j / (L q^(-j n1)) over the
    seed-0 chain: one inverse of L serves every position."""
    p = AlgebraParams(n, 1, beta=beta, extra_orders=(n * n,))
    calls = []
    inv = CycScalar.inv

    def counting_inv(self):
        if not self.is_rational():
            calls.append(self)
        return inv(self)

    monkeypatch.setattr(CycScalar, "inv", counting_inv)
    seeds = solve_k_seed(p, kind, root_of_unity(n * n, 1), 1, 1, 0)
    assert len(seeds) == n
    assert len(calls) <= 1


def test_solve_k_seed_extension():
    """At beta = (1,1,0), character (-1,1,1): the seed is a cube root of -1/2."""
    p = AlgebraParams(3, 1, beta=(1, 1, 0), extra_orders=(6,))
    minus1 = root_of_unity(6, 3)
    from hopfsl2.modules import FieldTooSmall

    with pytest.raises(FieldTooSmall):
        solve_k_seed(p, "VI", minus1, 1, 1, 0)
    seeds = solve_k_seed(p, "VI", minus1, 1, 1, 0, allow_extension=True)
    assert len(seeds) == 3
    assert any(isinstance(s, ExtScalar) for s in seeds)
    m = build_VI(p, minus1, 1, 1, 0, seeds[0])
    assert verify_module(p, m) == [] and is_simple(p, m)


@pytest.mark.parametrize(
    "coeffs, in_field",
    [
        ((4, 0, 0, -4, 0, 0, 1), []),  # (x^3 - 2)^2
        ((4, -8, 4, -4, 8, -4, 1, -2, 1), [1]),  # (x - 1)^2 (x^3 - 2)^2
    ],
)
def test_split_roots_returns_distinct_roots(coeffs, in_field):
    """Over Q(zeta_6) = Q(zeta_3): a repeated field root once, and three
    distinct cube roots of 2 in a cubic tower, not a degree-6 level with
    zero divisors."""
    roots, sample = split_roots([rational(c, 6) for c in coeffs])
    assert sample.tower.degree == 3 and isinstance(sample.tower.base_zero(), CycScalar)
    assert roots[: len(in_field)] == in_field
    cube_roots = roots[len(in_field):]
    assert len(cube_roots) == 3 and all(r**3 == 2 for r in cube_roots)
    assert all(not (r - s).is_zero() for i, r in enumerate(roots) for s in roots[:i])


def test_split_roots_of_the_square_of_a_cubic_with_no_radical_root():
    """(x^3 - x - 1)^2 over Q(zeta_6): the squarefree step leaves the cubic,
    whose three distinct roots need a quadratic level over a cubic one."""
    coeffs = (1, 2, 1, -2, -2, 0, 1)  # (x^3 - x - 1)^2
    roots, sample = split_roots([rational(c, 6) for c in coeffs])
    assert sample.tower.degree == 2 and sample.tower.base_zero().tower.degree == 3
    assert len(roots) == 3 and all(r**3 - r - 1 == 0 for r in roots)
    assert all(not (r - s).is_zero() for i, r in enumerate(roots) for s in roots[:i])


@pytest.mark.parametrize("m", [1, 3, 5, 6])
def test_split_roots_cube_roots_of_two_at_any_base_modulus(m):
    """x^3 - 2 splits over a tower on Q(zeta_m) whether m is odd or even:
    the unit multiples of a level's generator that the root search tries
    are read at the base modulus.  Q(zeta_m) holds the cube roots of unity
    for m = 3, 6, so one cubic level splits it there; for m = 1, 5 a
    quadratic level follows."""
    roots, sample = split_roots([rational(c, m) for c in (-2, 0, 0, 1)])
    assert base_constant_modulus(sample) == m
    degrees = []
    tower = sample.tower
    while True:
        degrees.append(tower.degree)
        if not isinstance(tower.base_zero(), ExtScalar):
            break
        tower = tower.base_zero().tower
    assert degrees == ([3] if m % 3 == 0 else [2, 3])
    assert len(roots) == 3 and all(r.tower is sample.tower and r**3 == 2 for r in roots)
    assert all(not (r - s).is_zero() for i, r in enumerate(roots) for s in roots[:i])


def base_constant_modulus(x):
    while isinstance(x, ExtScalar):
        x = x.tower.base_zero()
    return x.m


def test_character_data_must_be_cyclotomic():
    """Only a k-seed may lie in a tower: kind_conditions rejects tower-valued
    g1, gamma2 or gamma3."""
    p = AlgebraParams(3, 1, beta=(1, 1, 0), extra_orders=(6,))
    seeds = solve_k_seed(p, "VI", root_of_unity(6, 3), 1, 1, 0, allow_extension=True)
    ext_one = next(s for s in seeds if isinstance(s, ExtScalar)).one()
    for data in ((ext_one, 1, 1), (1, ext_one, 1), (1, 1, ext_one)):
        with pytest.raises(TypeError):
            kind_conditions(p, *data, 0)


def test_mutated_module_fails_verification(pb3):
    p = pb3
    m = build_Vr(p, p.sqrt_q, 1, 1, 0)
    m.mats["y"][0][1] = m.mats["y"][0][1] + p.one
    bad = verify_module(p, m)
    assert "yx-q^-n1.xy=b3(a^2n1-bc)" in bad


def test_dual_module_involution():
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    z9 = root_of_unity(9, 1)
    m = build_VI(p, z9, 1, 1, 0, p.zero)
    d = dual_module(p, m)
    assert verify_module(p, d) == []
    assert is_simple(p, d) == is_simple(p, m) == True
    dd = dual_module(p, d)
    assert modules_isomorphic(p, m, dd)
    t = build_V0(p, 1, 1, 1, 0)
    assert modules_isomorphic(p, t, dual_module(p, t))


def test_intertwiner_space_schur(pb3):
    p = pb3
    z2 = build_Vr(p, p.sqrt_q, 1, 1, 0)
    z3 = build_Vr(p, p.q, 1, 1, 0)
    assert len(intertwiner_space(p, z2, z2)) == 1
    assert len(intertwiner_space(p, z2, z3)) == 0


def test_prop46_extension():
    p = AlgebraParams(3, 1, beta=(1, 0, 0))
    ext = build_extension_prop46(p, 1, i=0)
    assert verify_module(p, ext.total) == []
    assert not is_split(p, ext)
    ext0 = build_extension_prop46(p, 0, i=0)
    assert verify_module(p, ext0.total) == []
    assert is_split(p, ext0)
    # the printed i != 0 variant violates x^n (documented defect)
    bad = build_extension_prop46(p, 1, i=1)
    assert "x^n=b1(a^nn1-b^n)" in verify_module(p, bad.total)
    assert prop46_hypothesis(p, 0) and not prop46_hypothesis(p, 1)
    with pytest.raises(ParameterConstraint):
        build_extension_prop46(p, 1, i=1, enforce_hypothesis=True)


def test_isomorphism_with_repeated_summands():
    """V0 (+) V0 (+) V0: every Hom basis map and every prefix sum of the
    basis is singular, but the module is isomorphic to itself and splits."""
    p = AlgebraParams(3, 1)
    v0 = build_V0(p, p.one, p.one, p.one, 0)
    v00 = direct_sum_extension(p, v0, v0).total
    m = direct_sum_extension(p, v0, v00).total
    assert len(intertwiner_space(p, m, m)) == 9
    assert modules_isomorphic(p, m, m)
    assert is_split_triple(p, m, v0, v00) and is_split_triple(p, m, v00, v0)
    vq = build_V0(p, p.q, p.one, p.one, 0)
    assert not modules_isomorphic(p, m, direct_sum_extension(p, v00, vq).total)
    # 20 Hom maps against 25 endomorphisms: answered without the 2^20-point grid
    v04 = direct_sum_extension(p, v00, v00).total
    v05 = direct_sum_extension(p, v04, v0).total
    assert not modules_isomorphic(p, v05, direct_sum_extension(p, v04, vq).total)


def test_prop47_extension():
    p = AlgebraParams(4, 2, beta=(0, 0, 1), extra_orders=(8,))
    z8 = root_of_unity(8, 1)
    assert p.t == 2 and p.u == 2
    for i in (1, 2, 3):
        ext = build_extension_prop47(p, 1, 1, z8, i)
        assert verify_module(p, ext.total) == []
        assert verify_module(p, ext.sub) == [] and verify_module(p, ext.quot) == []
        assert not is_split(p, ext)
        assert not is_split_triple(p, ext.total, ext.sub, ext.quot)
    # direct sums do split
    m1 = build_Vr(p, 1, 1, z8, 1)
    m2 = build_Vr(p, 1, 1, z8, 2)
    ds = direct_sum_extension(p, m1, m2)
    assert is_split(p, ds)
    assert is_split_triple(p, ds.total, m1, m2)
    # u = 1 configurations are rejected (the displayed chain breaks x^n = 0)
    p31 = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(8,))
    with pytest.raises(ParameterConstraint):
        build_extension_prop47(p31, 1, 1, z8, 1)


def test_build_simple_dispatch_and_label_normalization(pb3):
    p = pb3
    lbl = SimpleLabel("Vr", p.sqrt_q, 1, 1, 3)  # i = 3 = 0 mod n
    m = build_simple(p, lbl)
    assert m.label.i == 0 and m.label.r == 2
    with pytest.raises(WrongType):
        build_simple(p, SimpleLabel("Vr", p.sqrt_q, 1, 1, 0, r=3))
    with pytest.raises(WrongType):
        build_simple(p, SimpleLabel("VI", p.q, 1, 1, 0))  # seedless VI


def test_stray_label_fields_raise_wrong_type():
    """Only the V_r builder reads r and only the VI/VII builders read a
    k-seed; a label carrying the other field would name the same module
    under a second cache key, so it is refused instead."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    v0 = SimpleLabel("V0", p.one, p.one, p.one, 0)
    base = build_simple(p, v0)
    for stray, match in [({"r": 3}, "takes no r"), ({"kseed": 2}, "takes no k-seed")]:
        for _ in range(2):
            with pytest.raises(WrongType, match=match):
                build_simple(p, dataclasses.replace(v0, **stray))
    with pytest.raises(WrongType, match="takes no k-seed"):
        build_simple(p, SimpleLabel("Vr", p.sqrt_q, p.one, p.one, 0, kseed=0))
    assert list(p.caches.modules.values()).count(base) == 1
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    (vi,) = solve_k_seed(p, "VI", root_of_unity(9, 1), 1, 1, 0)
    label = SimpleLabel("VI", root_of_unity(9, 1), p.one, p.one, 0, kseed=vi)
    build_simple(p, label)
    with pytest.raises(WrongType, match="takes no r"):
        build_simple(p, dataclasses.replace(label, r=5))
    assert len(p.caches.modules) == 1


# recorded from the chain builders before the k-chain was rewritten to start
# at seed 0
CHAIN_MODULES_SHA256 = "fed782d6384b3155360c4aa9faf82dc0db4ad8165260d5e708052cda99bf5e4c"


def _pinned(build):
    """build(), or the class and message of the exception it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the error is the pinned output
        return f"{type(exc).__name__}: {exc}"


def _mats_text(*modules) -> str:
    return " | ".join(repr([m.mats[g] for g in "abcxy"]) for m in modules)


def _chain_modules_text() -> str:
    """Every chain module over (n, n1) in {(2,1), (3,1), (3,2), (4,1),
    (4,2), (4,3)}, beta in {0,1}^3, extra order n^2, g1 over the n^2-th
    roots of unity and gamma2 = gamma3 = 1: per case the five matrices of
    V0 and V_r at every i < n, of the Prop 4.7 extension at every i < n
    (total, sub, quot), the VI and VII seeds at i = 0 with the simple of
    each, and the Prop 4.6 extension at varsigma in {0, 1, 2} and every
    i < n; or the exception's class and message."""
    lines = []
    for n, n1 in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
        for beta in itertools.product((0, 1), repeat=3):
            p = AlgebraParams(n, n1, beta=beta, extra_orders=(n * n,))
            head = f"{n} {n1} {beta}"
            for g in range(n * n):
                g1 = root_of_unity(n * n, g)
                for i in range(n):
                    for kind in ("V0", "Vr"):
                        label = SimpleLabel(kind, g1, p.one, p.one, i)
                        lines.append(f"{head} {kind} {g} {i}: " + _pinned(lambda: _mats_text(build_simple(p, label))))
                    ext = _pinned(lambda: build_extension_prop47(p, g1, 1, 1, i))
                    text = ext if isinstance(ext, str) else _mats_text(ext.total, ext.sub, ext.quot)
                    lines.append(f"{head} prop47 {g} {i}: {text}")
                for kind in ("VI", "VII"):
                    seeds = _pinned(lambda: solve_k_seed(p, kind, g1, 1, 1, 0, allow_extension=True))
                    lines.append(f"{head} {kind} {g} seeds: {seeds!r}")
                    for s in seeds if isinstance(seeds, list) else ():
                        label = SimpleLabel(kind, g1, p.one, p.one, 0, kseed=s)
                        lines.append(f"{head} {kind} {g} {s!r}: " + _pinned(lambda: _mats_text(build_simple(p, label))))
            for varsigma in range(3):
                for i in range(n):
                    ext = build_extension_prop46(p, varsigma, i)
                    lines.append(f"{head} prop46 {varsigma} {i}: " + _mats_text(ext.total, ext.sub, ext.quot))
    return "\n".join(lines) + "\n"


def test_chain_modules_and_seeds_are_pinned():
    """Every chain module and k-seed list over 8,412 cases, 422 of them
    over a tower, hashes to the text recorded before the chain rewrite."""
    text = _chain_modules_text()
    assert text.count("\n") == 8412
    assert sum("ext[" in line for line in text.splitlines()) == 422
    assert hashlib.sha256(text.encode()).hexdigest() == CHAIN_MODULES_SHA256
