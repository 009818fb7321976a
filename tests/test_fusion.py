import gc
import weakref

import pytest

from hopfsl2 import fusion
from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import root_of_unity
from hopfsl2.extfield import ExtScalar
from hopfsl2.fusion import (
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
from hopfsl2.linalg import mat_inv, mat_mul
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
