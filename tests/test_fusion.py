import dataclasses
import gc
import weakref

import pytest

from hopfsl2 import fusion
from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import root_of_unity
from hopfsl2.extfield import ExtScalar, base_constant, lift
from hopfsl2.fusion import (
    CanonLabel,
    FusionVector,
    NoIntegerSolution,
    RankDeficient,
    _dense_traces,
    candidate_simples,
    class_of,
    decompose,
    fuse,
    fusion_table,
    tensor,
    trace_vector,
)
from hopfsl2.grothendieck import canonical_zr_label
from hopfsl2.linalg import mat_inv, mat_mul, rref
from hopfsl2.modules import (
    ModuleRep,
    SimpleLabel,
    build_simple,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    dual_module,
    modules_isomorphic,
    solve_k_seed,
    verify_module,
)
from oracles import reference_decompose


@pytest.fixture(scope="module")
def pb3():
    return AlgebraParams(3, 1, beta=(0, 0, 1))


def z2_label(p):
    return SimpleLabel("Vr", p.sqrt_q, p.one, p.one, 0)


def z3_label(p):
    return SimpleLabel("Vr", p.q, p.one, p.one, 0)


def test_tensor_structure_and_verification(pb3):
    p = pb3
    m2 = build_simple(p, z2_label(p))
    m3 = build_simple(p, z3_label(p))
    t = tensor(p, m2, m3)
    assert t.dim == 6
    assert verify_module(p, t) == []


def test_trivial_tensor_identity(pb3):
    p = pb3
    triv = build_V0(p, 1, 1, 1, 0)
    m = build_simple(p, z3_label(p))
    t = tensor(p, triv, m)
    assert t.dim == m.dim
    # equal matrices under the canonical identification
    for g in "abcxy":
        assert t.mat(g) == m.mat(g)


def test_candidate_simples_character_111(pb3):
    """At (3,1,(0,0,1)): the (1,1,1)-character carries exactly T, V2, V3."""
    cands = candidate_simples(pb3, pb3.one, pb3.one, pb3.one)
    kinds = sorted((lab.kind, lab.dim) for lab, _ in cands)
    assert kinds == [("V0", 1), ("Vr", 2), ("Vr", 3)]


def test_decompose_simple_input(pb3):
    p = pb3
    m = build_simple(p, z3_label(p))
    fv = decompose(p, m, p.q)
    assert fv == FusionVector({class_of(p, m): 1})


def test_z2_squared(pb3):
    """z2^2 = z3 + [1-dim]: the 1-dim constituent is the trivial class."""
    p = pb3
    fv = fuse(p, z2_label(p), z2_label(p))
    z3 = class_of(p, build_simple(p, z3_label(p)))
    triv = class_of(p, build_V0(p, 1, 1, 1, 0))
    assert fv == FusionVector({z3: 1, triv: 1})


def test_zt_z2(pb3):
    p = pb3
    fv = fuse(p, z3_label(p), z2_label(p))
    z2 = class_of(p, build_simple(p, z2_label(p)))
    triv = class_of(p, build_V0(p, 1, 1, 1, 0))
    assert fv == FusionVector({z2: 2, triv: 2})


def test_v0_times_v0_multiplies_characters(pb3):
    """V0 x V0 multiplies the character data (five tuples)."""
    p = pb3
    cases = [
        ((p.one, p.q, p.qpow(2), 0), (p.one, p.qpow(2), p.q, 0)),
        ((p.one, p.q, p.qpow(2), 0), (p.one, p.q, p.qpow(2), 0)),
        ((p.sqrt_q, p.q, p.one, 0), (p.sqrt_q, p.one, p.q, 0)),
        ((p.q, p.one, p.qpow(2), 0), (p.qpow(2), p.one, p.q, 0)),
        ((p.sqrt_q, p.one, p.q, 0), (p.sqrt_q, p.q, p.one, 0)),
    ]
    for (g1a, a2, a3, ia), (g1b, b2, b3, ib) in cases:
        la = SimpleLabel("V0", g1a, a2, a3, ia)
        lb = SimpleLabel("V0", g1b, b2, b3, ib)
        fv = fuse(p, la, lb)
        expected = class_of(p, build_V0(p, g1a * g1b, a2 * b2, a3 * b3, ia + ib))
        assert fv == FusionVector({expected: 1})


def test_vr_times_v0_shifts_character(pb3):
    """V_r x V0 shifts the character (five tuples; one intertwiner check)."""
    p = pb3
    cases = [
        (z2_label(p), (p.one, p.q, p.qpow(2), 0)),
        (z2_label(p), (p.one, p.qpow(2), p.q, 0)),
        (z3_label(p), (p.one, p.q, p.qpow(2), 0)),
        (SimpleLabel("Vr", p.sqrt_q, p.q, p.qpow(2), 0), (p.one, p.q, p.qpow(2), 0)),
        (z3_label(p), (p.sqrt_q, p.one, p.qpow(2) * p.sqrt_q, 0)),
    ]
    for vr_lab, (g1, c2, c3, i) in cases:
        v0 = SimpleLabel("V0", g1, c2, c3, i)
        fv = fuse(p, vr_lab, v0)
        mv = build_simple(p, vr_lab)
        expected_mod = build_Vr(
            p, vr_lab.g1 * g1, mv.label.gamma2 * c2, mv.label.gamma3 * c3, vr_lab.i + i
        )
        assert fv == FusionVector({class_of(p, expected_mod): 1})
        # the two-sided version
        fv2 = fuse(p, v0, vr_lab)
        assert fv2 == fv
    # explicit intertwiner confirmation on the first case
    m1 = build_simple(p, cases[0][0])
    m0 = build_V0(p, p.one, p.q, p.qpow(2), 0)
    t = tensor(p, m1, m0)
    expected = build_Vr(p, p.sqrt_q, p.q, p.qpow(2), 0)
    assert modules_isomorphic(p, t, expected)


def test_vi_and_vii_times_v0_shift_character():
    """V_I x V0 and V_II x V0 (five tuples each, intertwiners on two)."""
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9, 5))
    z9 = root_of_unity(9, 1)
    z5 = root_of_unity(5, 1)
    vi = SimpleLabel("VI", z9, p.one, p.one, 0, kseed=p.zero)
    v0s = [
        (p.one, p.one, z5, 0),
        (p.one, p.one, z5**2, 1),
        (p.one, p.one, p.q, 2),
        (p.one, p.one, p.one, 1),
        (p.one, p.one, z5**4, 0),
    ]
    for g1, c2, c3, i in v0s:
        # V0 validity at beta = (1,0,0): gamma1^n1 = gamma2^n
        v0 = SimpleLabel("V0", g1, c2, c3, i)
        fv = fuse(p, vi, v0)
        assert fv.total_dim() == 3
        (lab, mult), = fv.entries.items()
        assert lab.kind == "VI" and mult == 1
        exp_g1 = (z9 * g1 * p.qpow(i)).key()
        got_gamma1 = (lab.display.g1 ** 3).key()
        assert got_gamma1 == ((z9 * g1 * p.qpow(i)) ** 3).key()
        assert lab.display.gamma3.key() == (c3 * p.one).key()
    m_vi = build_simple(p, vi)
    m0 = build_V0(p, p.one, p.one, z5, 0)
    t = tensor(p, m_vi, m0)
    from hopfsl2.modules import build_VI

    expected = build_VI(p, z9, p.one, z5, 0, p.zero)
    assert modules_isomorphic(p, t, expected)

    p2 = AlgebraParams(3, 1, beta=(0, 1, 0), extra_orders=(9, 5))
    z9b = root_of_unity(9, 1)
    vii = SimpleLabel("VII", z9b, p2.one, p2.one, 0, kseed=p2.zero)
    for g1, c2, c3, i in [
        (p2.one, z5, p2.one, 0),
        (p2.one, z5**3, p2.one, 2),
        (p2.one, p2.q, p2.one, 1),
        (p2.one, p2.one, p2.one, 2),
        (p2.one, z5**2, p2.one, 1),
    ]:
        v0 = SimpleLabel("V0", g1, c2, c3, i)
        fv = fuse(p2, vii, v0)
        assert fv.total_dim() == 3
        (lab, mult), = fv.entries.items()
        assert lab.kind == "VII" and mult == 1
    m_vii = build_simple(p2, vii)
    m0b = build_V0(p2, p2.one, z5, p2.one, 0)
    t2 = tensor(p2, m_vii, m0b)
    from hopfsl2.modules import build_VII

    expected2 = build_VII(p2, z9b, z5, p2.one, 0, p2.zero)
    assert modules_isomorphic(p2, t2, expected2)


def test_duality_contains_trivial(pb3):
    p = pb3
    m = build_simple(p, z2_label(p))
    d = dual_module(p, m)
    t = tensor(p, m, d)
    g1 = p.sqrt_q * (p.sqrt_q ** (2 * p.n - 1))  # g1 * g1^(-1) as roots
    fv = decompose(p, t, p.one)
    triv = class_of(p, build_V0(p, 1, 1, 1, 0))
    assert fv.entries.get(triv, 0) >= 1


def test_fusion_table_commutative(pb3):
    p = pb3
    labels = [
        SimpleLabel("V0", p.one, p.one, p.one, 0),
        z2_label(p),
        z3_label(p),
    ]
    table = fusion_table(p, labels)
    assert table[(1, 2)] == table[(2, 1)]
    assert table[(0, 1)].total_dim() == 2


def test_dimension_conservation(pb3):
    p = pb3
    fv = fuse(p, z3_label(p), z3_label(p))
    assert fv.total_dim() == 9


# -- the two trace paths, the decompose error paths, the cache owner -----------


def _conjugate(m, P, Pinv):
    """m with every generator replaced by P g P^-1 (an isomorphic module)."""
    mats = {g: mat_mul(mat_mul(P, m.mat(g)), Pinv) for g in "abcxy"}
    return ModuleRep(m.dim, mats, m.label, m.params)


def _trace_path_modules():
    """(params, module) pairs: V0, Vr, VI, VII, a tensor product, and a VI
    whose k-seed lives in the cubic tower of the thm5.19 point."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    z2, z3 = build_simple(p, z2_label(p)), build_simple(p, z3_label(p))
    out = [(p, build_V0(p, 1, 1, 1, 0)), (p, z2), (p, z3), (p, tensor(p, z2, z3))]
    z9 = root_of_unity(9, 1)
    p1 = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    out.append((p1, build_VI(p1, z9, 1, 1, 0, p1.zero)))
    p2 = AlgebraParams(3, 1, beta=(0, 1, 0), extra_orders=(9,))
    out.append((p2, build_VII(p2, z9, 1, 1, 0, p2.zero)))
    p3 = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z36 = root_of_unity(36, 1)
    seeds = solve_k_seed(p3, "VI", z36, 1, 1, 0, allow_extension=True)
    tower_seed = next(s for s in seeds if isinstance(s, ExtScalar))
    out.append((p3, build_VI(p3, z36, 1, 1, 0, tower_seed)))
    return out


def test_weight_space_traces_match_dense_traces():
    """trace_vector on a diagonal a (weight spaces) agrees entry by entry with
    the dense products, both on the module itself and, through the dense path
    that a non-diagonal a takes, on a conjugate of it."""
    seen_tower = False
    for p, m in _trace_path_modules():
        jmax = 2 * p.n
        keys = [t.key() for t in trace_vector(p, m, jmax)]
        assert keys == [t.key() for t in _dense_traces(p, m, jmax)], m.label
        seen_tower |= isinstance(m.zero_scalar(), ExtScalar)
        if m.dim == 1:
            continue  # every 1x1 a is diagonal
        one = m.one_scalar()
        P = [[one if j >= i else one.zero() for j in range(m.dim)] for i in range(m.dim)]
        conj = _conjugate(m, P, mat_inv(P))
        A = conj.mat("a")
        assert any(not A[i][j].is_zero() for i in range(m.dim) for j in range(m.dim) if i != j)
        assert [t.key() for t in trace_vector(p, conj, jmax)] == keys, m.label
    assert seen_tower


def test_decompose_raises_rank_deficient_on_repeated_candidate(monkeypatch):
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    listed = fusion.candidate_simples
    monkeypatch.setattr(fusion, "candidate_simples", lambda *a, **kw: listed(*a, **kw) + listed(*a, **kw)[:1])
    with pytest.raises(RankDeficient, match="linearly dependent"):
        fuse(p, z3_label(p), z3_label(p))


def test_decompose_raises_no_integer_solution_on_missing_candidate(monkeypatch):
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    summand = next(iter(fuse(p, z3_label(p), z3_label(p)).entries))
    listed = fusion.candidate_simples
    monkeypatch.setattr(
        fusion, "candidate_simples", lambda *a, **kw: [c for c in listed(*a, **kw) if c[0] != summand]
    )
    with pytest.raises(NoIntegerSolution, match="inconsistent"):
        fuse(p, z3_label(p), z3_label(p))


def test_candidate_simples_die_with_their_params():
    """The trace bases are cached in the AlgebraParams, not in the module:
    dropping the parameters frees the candidate simples."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    ref = weakref.ref(candidate_simples(p, p.one, p.one, p.one)[0][1])
    del p
    gc.collect()
    assert ref() is None


def test_canon_label_hash_is_computed_once_from_the_data(pb3):
    (label, _), (other, _) = candidate_simples(pb3, pb3.one, pb3.one, pb3.one)[:2]
    assert hash(label) == hash((label.kind, label.dim, label.fingerprint))
    bare = CanonLabel(label.kind, label.dim, label.fingerprint)
    assert str(bare) != str(label)
    assert bare == label and hash(bare) == hash(label)
    moved = dataclasses.replace(label, kind=other.kind, dim=other.dim, fingerprint=other.fingerprint)
    assert moved != label and moved == other
    assert hash(moved) == hash((other.kind, other.dim, other.fingerprint))


def test_candidate_simples_label_order_is_pinned():
    # candidates sort on (kind, dim, fingerprint) and fingerprints compare
    # key() tuples of Fractions; these orders were recorded when scalars
    # still stored Fraction coefficients and set the CLI's fusion output order
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    assert [lab.display.i for lab, _ in candidate_simples(p, p.one, p.one, p.one)] == [1, 2, 0]
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9,))
    cands = candidate_simples(p, root_of_unity(9, 1), p.one, p.one)
    z, one, zeta, minus_one = (f"cyc(18; {c}, 0, 0, 0, 0)" for c in ("0, 0", "1, 0", "0, 1", "-1, 0"))
    assert [repr(lab.display.kseed) for lab, _ in cands] == [
        f"ext[ext[{z}, {z}, {z}], ext[{one}, {z}, {z}]]",
        f"ext[ext[{z}, {one}, {z}], ext[{z}, {z}, {z}]]",
        f"ext[ext[cyc(18; 1, -1, 0, 0, 0, 0), {minus_one}, {z}], ext[{minus_one}, {z}, {z}]]",
    ]


# -- the n^2 trace rows that decompose eliminates on ---------------------------


def _character_cases():
    """(params, g1, candidates of the character of g1, tensor product, its g1):
    one cyclotomic point, and the thm5.19 point, whose VI candidates live in
    a nested tower, with a VI candidate times the trivial module."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    z3 = build_simple(p, z3_label(p))
    g1 = p.q * p.q
    yield p, g1, candidate_simples(p, g1, p.one, p.one), tensor(p, z3, z3), g1
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    cands = candidate_simples(p, z9, p.one, p.one)
    assert all(isinstance(cm.zero_scalar(), ExtScalar) for _, cm in cands)
    yield p, z9, cands, tensor(p, cands[0][1], build_V0(p, 1, 1, 1, 0)), z9


def test_trace_rows_past_n_are_gamma1_times_the_rows_below_n():
    """a^n acts as gamma1 = g1^n, so row (j + n, u) is gamma1 times row
    (j, u) on every candidate and on a tensor product; the basis keeps the
    n^2 rows at j < n and the fingerprint the 2n*n keys."""
    for p, g1, cands, mt, mt_g1 in _character_cases():
        n = p.n
        basis = fusion._character_basis(p, g1, p.one, p.one)
        for m, root in [(cm, g1) for _, cm in cands] + [(mt, mt_g1)]:
            row = trace_vector(p, m, 2 * n)
            gamma1 = lift(root, m.zero_scalar()) ** n
            assert [t.key() for t in row[n * n :]] == [(gamma1 * t).key() for t in row[: n * n]]
        for lab, cm in cands:
            row = trace_vector(p, cm, 2 * n)
            assert [t.key() for t in basis.rows[lab]] == [t.key() for t in row[: n * n]]
            assert lab.fingerprint == tuple(t.key() for t in row)


def test_decompose_makes_one_rref_on_n_squared_rows(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(fusion, "rref", spy)
    for p, _g1, _cands, mt, mt_g1 in _character_cases():
        calls.clear()
        fv = decompose(p, mt, mt_g1)
        assert calls == [p.n**2]
        assert fv.total_dim() == mt.dim


def test_decompose_product_of_tower_candidates_with_constant_traces():
    """Two VI candidates of z9 at the thm5.19 point each live in their own
    tower, so their tensor product lives in neither the factors' tower nor
    that of the candidates at z9^2.  Every trace of the product is a
    constant of Q(zeta_M), which lets decompose match it against those
    candidates: three VI classes, each once, on all 2n*n trace rows."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    (_, c0), (_, c1), _ = candidate_simples(p, z9, p.one, p.one)
    mt = tensor(p, c0, c1, check=False)
    fv = decompose(p, mt, z9 * z9)
    assert sorted(fv.entries.values()) == [1, 1, 1]
    assert {lab.kind for lab in fv.entries} == {"VI"} and fv.total_dim() == 9
    assert decompose(p, tensor(p, c1, c0, check=False), z9 * z9) == fv
    cands = dict(candidate_simples(p, z9 * z9, p.one, p.one))
    ambient = cands[next(iter(fv.entries))].zero_scalar()
    expected = [ambient] * (2 * p.n * p.n)
    for lab, mult in fv.entries.items():
        rows = trace_vector(p, cands[lab], 2 * p.n)
        expected = [e + t * mult for e, t in zip(expected, rows)]
    traces = [lift(base_constant(t), ambient) for t in trace_vector(p, mt, 2 * p.n)]
    assert [t.key() for t in traces] == [e.key() for e in expected]


def test_tensor_of_factors_over_incompatible_towers_raises_rank_deficient():
    """A VI candidate of z9 and one of z9^2 at the thm5.19 point each live in
    their own tower; no field holds both."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)

    def tower_candidate(g1):
        return next(m for _, m in candidate_simples(p, g1, 1, 1) if isinstance(m.zero_scalar(), ExtScalar))

    m1, m2 = tower_candidate(z9), tower_candidate(z9**2)
    assert m1.zero_scalar().tower is not m2.zero_scalar().tower
    with pytest.raises(RankDeficient, match="factors live over incompatible towers"):
        tensor(p, m1, m2)


def _simple_pairs(kind):
    """(hypothesis, strategy of (p, l1, l2)) for n <= 4: z_r x z_s at
    beta = (0,0,1) (kind "z"), V0 pairs at beta = (0,0,0) and VI pairs with
    in-field k-seeds at beta = (1,0,0); skips the calling test without
    hypothesis."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        n = draw(st.sampled_from([3, 4, 2]))
        if kind == "z":
            p = AlgebraParams(n, 1, beta=(0, 0, 1))
            r, s = (draw(st.sampled_from(range(p.t, 1, -1))) for _ in range(2))
            return p, canonical_zr_label(p, r), canonical_zr_label(p, s)
        p = AlgebraParams(n, 1, beta=(1, 0, 0) if kind == "VI" else (0, 0, 0), extra_orders=(n * n,))
        labels = []
        for _ in range(2):
            i = draw(st.integers(0, n - 1))
            gamma3 = root_of_unity(n, draw(st.integers(0, n - 1)))
            if kind == "V0":
                g1 = root_of_unity(n * n, draw(st.integers(0, n * n - 1)))
                gamma2 = root_of_unity(n, draw(st.integers(0, n - 1)))
                labels.append(SimpleLabel("V0", g1, gamma2, gamma3, i))
            else:
                g1 = root_of_unity(n * n, draw(st.sampled_from([e for e in range(1, n * n) if e % n])))
                seeds = solve_k_seed(p, "VI", g1, 1, gamma3, i)
                kseed = draw(st.sampled_from(seeds))
                labels.append(SimpleLabel("VI", g1, p.one, gamma3, i, kseed=kseed))
        return (p, *labels)

    return hypothesis, pairs()


@pytest.mark.parametrize("kind", ["z", "V0", "VI"])
def test_decompose_matches_full_trace_system_property(kind):
    """decompose on the n^2 rows agrees with the elimination on all 2n*n
    rows, and the composition factors account for every dimension."""
    hypothesis, pairs = _simple_pairs(kind)

    @hypothesis.settings(hypothesis.settings.get_profile("hopfsl2"), max_examples=15)
    @hypothesis.given(pairs)
    def check(case):
        p, l1, l2 = case
        m1, m2 = build_simple(p, l1), build_simple(p, l2)
        mt = tensor(p, m1, m2, check=False)
        g1 = m1.label.g1 * m2.label.g1
        fv = decompose(p, mt, g1)
        assert fv == reference_decompose(p, mt, g1)
        assert fv.total_dim() == m1.dim * m2.dim

    check()
