import dataclasses
import gc
import itertools
import re
import weakref
from fractions import Fraction

import pytest

from hopfsl2 import fusion
from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import CycScalar, euler_phi, root_of_unity
from hopfsl2.cyclo import rational
from hopfsl2.extfield import ExtScalar, Tower, base_constant, coordinates, lift, read_in
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
from hopfsl2.grothendieck import canonical_zr_label, cls, default_suite_instances, one, verify_relation
from hopfsl2.linalg import mat_inv, mat_mul
from hopfsl2.modules import (
    ModuleRep,
    SimpleLabel,
    WrongType,
    build_simple,
    build_V0,
    build_VI,
    build_VII,
    build_Vr,
    dual_module,
    kind_conditions,
    modules_isomorphic,
    solve_k_seed,
    verify_module,
)
from oracles import reference_decompose, reference_tensor_traces


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


def test_decompose_errors_hold_on_a_second_decompose_of_the_character(monkeypatch):
    """The factorization recorded by a first decompose belongs to the cached
    candidates: a duplicated or a missing candidate still raises its error,
    with the same message, on every later decompose of the character."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    expected = fuse(p, z3_label(p), z3_label(p))
    summand = next(iter(expected.entries))
    listed = fusion.candidate_simples
    patches = [
        (lambda *a, **kw: listed(*a, **kw) + listed(*a, **kw)[:1], RankDeficient, "linearly dependent"),
        (lambda *a, **kw: [c for c in listed(*a, **kw) if c[0] != summand], NoIntegerSolution, "inconsistent"),
    ]
    for patched, error, message in patches:
        with monkeypatch.context() as patch:
            patch.setattr(fusion, "candidate_simples", patched)
            for _ in range(2):
                with pytest.raises(error, match=message):
                    fuse(p, z3_label(p), z3_label(p))
        assert fuse(p, z3_label(p), z3_label(p)) == expected


def test_x_times_y_decomposes_match_the_reference_at_the_thm519_point(monkeypatch):
    """Every decompose of the thm5.19 x_times_y relation, whose candidates
    live over a nested tower, equals the full trace system of the oracle."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    (bindings,) = [b for rid, b in default_suite_instances(p, "thm5.19") if rid == "x_times_y"]
    seen = []
    real = fusion.decompose

    def spy(p, m, g1):
        fv = real(p, m, g1)
        seen.append((m, g1, fv))
        return fv

    monkeypatch.setattr(fusion, "decompose", spy)
    assert verify_relation(p, "x_times_y", **bindings).passed
    assert len(seen) == 18
    for m, g1, fv in seen:
        assert fv == reference_decompose(p, m, g1)
        gammas = (base_constant(m.mat(g)[0][0]) for g in "bc")
        assert all(isinstance(cm.zero_scalar(), ExtScalar) for _, cm in candidate_simples(p, g1, *gammas))


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


def test_classes_that_differ_only_in_b_and_c_are_unequal():
    """The traces of a^j x^u y^u do not see gamma2, gamma3; the class does."""
    p = AlgebraParams(3, 1)
    w, trivial = cls(p, SimpleLabel("V0", p.one, root_of_unity(3, 1), p.one, 0)), one(p)
    p19 = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    sq, q = p19.sqrt_q, p19.q
    v, v_swapped = (cls(p19, SimpleLabel("V0", sq, *gammas, 0)) for gammas in ((p19.one, q), (q, p19.one)))
    for a, b in ((w, trivial), (v, v_swapped)):
        (la,), (lb,) = a.entries, b.entries
        assert la.fingerprint == lb.fingerprint and hash(la) == hash(lb)
        assert a != b and la != lb
        assert sorted((a + b).entries.values()) == [1, 1]


def _bc(p, gamma2, gamma3):
    """The bc field of a class whose b and c act by gamma2 and gamma3."""
    gamma2, gamma3 = p.scalar(gamma2), p.scalar(gamma3)
    return () if gamma2 == gamma3 == p.one else (gamma2.key(), gamma3.key())


def _v0_pairs_over_mu3():
    p = AlgebraParams(3, 1)
    mu3 = [root_of_unity(3, e) for e in range(3)]
    labels = [SimpleLabel("V0", p.one, g2, g3, 0) for g2, g3 in itertools.product(mu3, repeat=2)]
    return p, list(itertools.combinations_with_replacement(labels, 2))


def _thm519_vi_pairs():
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    vi = [lab.display for lab, _ in candidate_simples(p, root_of_unity(9, 1), p.one, p.one)]
    v0 = []
    for g2, g3 in itertools.product([p.qpow(e) for e in range(3)], repeat=2):
        try:
            build_simple(p, SimpleLabel("V0", p.one, g2, g3, 0))
        except WrongType:
            continue
        v0.append(SimpleLabel("V0", p.one, g2, g3, 0))
    assert len(vi) == 3 and len(v0) == 3
    return p, list(itertools.product(vi, vi + v0))


@pytest.mark.parametrize("case", [_v0_pairs_over_mu3, _thm519_vi_pairs], ids=["v0-mu3", "thm519-vi"])
def test_every_class_of_a_product_carries_the_product_of_the_factors_bc(case):
    p, pairs = case()
    seen = set()
    for l1, l2 in pairs:
        want = _bc(p, p.scalar(l1.gamma2) * p.scalar(l2.gamma2), p.scalar(l1.gamma3) * p.scalar(l2.gamma3))
        fv = fuse(p, l1, l2)
        assert fv.entries and all(lab.bc == want for lab in fv.entries)
        seen.add(want)
    assert () in seen and len(seen) > 1


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
    """The first decompose against a character makes its one elimination,
    on the n^2 rows at j < n; a second decompose replays it and makes none."""
    calls = []
    factor = fusion.factor

    def spy(rows):
        calls.append(len(rows))
        return factor(rows)

    monkeypatch.setattr(fusion, "factor", spy)
    for p, _g1, _cands, mt, mt_g1 in _character_cases():
        calls.clear()
        fv = decompose(p, mt, mt_g1)
        assert calls == [p.n**2]
        assert fv.total_dim() == mt.dim
        calls.clear()
        assert decompose(p, mt, mt_g1) == fv
        assert calls == []


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


# -- the module and class caches ----------------------------------------------


def _vi_params():
    return AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))


def test_build_simple_hit_prints_as_a_fresh_build():
    """Five equal labels carry the k-seed 0 as an int, at three moduli and as
    a tower constant; each builds the module and class a fresh build gives,
    whichever of them filled the caches first."""
    z9 = root_of_unity(9, 1)
    tower = Tower.make((rational(2, 18), rational(0, 18), rational(0, 18), rational(1, 18)))
    seeds = [0, rational(0, 3), rational(0, 9), rational(0, 18), tower.lift(rational(0, 18))]
    labels = [SimpleLabel("VI", z9, 1, 1, 0, kseed=s) for s in seeds]
    assert len(set(labels)) == 1

    def printed(p, label):
        return str(build_simple(p, label).label), repr(cls(p, label))

    fresh = [printed(_vi_params(), label) for label in labels]
    assert len(set(fresh)) == 2
    for first in labels:
        p = _vi_params()
        printed(p, first)
        for _ in range(2):
            assert [printed(p, label) for label in labels] == fresh


def test_vr_label_with_the_wrong_r_raises_on_every_call(pb3):
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    good = z3_label(p)
    bad = dataclasses.replace(good, r=2)
    for _ in range(2):
        assert build_simple(p, good).label.r == 3
        assert repr(cls(p, good)) == repr(cls(p, dataclasses.replace(good, r=3)))
        with pytest.raises(WrongType, match="label says r = 2"):
            build_simple(p, bad)
        with pytest.raises(WrongType, match="label says r = 2"):
            cls(p, bad)


def test_module_and_class_tables_die_with_their_params():
    """The built modules and their classes are cached in the AlgebraParams:
    dropping the parameters frees them."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    module = weakref.ref(build_simple(p, z3_label(p)))
    (label,) = cls(p, z2_label(p)).entries
    label = weakref.ref(label)
    assert module() in p.caches.modules.values() and label() in p.caches.classes.values()
    del p
    gc.collect()
    assert module() is None and label() is None


def test_tower_product_replays_in_the_cyclotomic_field_of_its_candidates(monkeypatch):
    """Two VI candidates of z6 at beta = (1, 1, 0) live over a cubic tower,
    while the candidates at z6^2 are cyclotomic.  decompose reads the
    product's traces down into Q(zeta_6) and replays the recorded steps
    there: every scalar that replay sees is a CycScalar, and the result is
    that of the full trace system of the oracle."""
    p = AlgebraParams(3, 1, beta=(1, 1, 0))
    z6 = root_of_unity(6, 1)
    (_, c0), (_, c1), _ = candidate_simples(p, z6, p.one, p.one)
    assert all(isinstance(c.zero_scalar(), ExtScalar) for c in (c0, c1))
    seen = set()
    replay = fusion.replay

    def spy(steps, v):
        seen.update(type(x) for x in v)
        for step in steps:
            seen.add(type(step.scale))
            seen.update(type(f) for _, f in step.eliminate)
        return replay(steps, v)

    monkeypatch.setattr(fusion, "replay", spy)
    mt = tensor(p, c0, c1, check=False)
    fv = decompose(p, mt, z6 * z6)
    assert seen == {CycScalar}
    assert fv == reference_decompose(p, mt, z6 * z6) and fv.total_dim() == 9


def test_decompose_preconditions_raise_wrong_type(pb3):
    """Non-scalar b, c or a^n, and a g1 whose n-th power is not the a^n
    scalar, raise WrongType; b is checked before c."""
    p = pb3
    m = build_simple(p, z2_label(p))
    zero, one = p.zero, p.one

    def changed(**mats):
        return ModuleRep(m.dim, {**m.mats, **mats}, m.label, p)

    not_scalar = [[one, zero], [zero, p.q]]
    off_diagonal = [[one, one], [zero, one]]
    cases = [
        (changed(b=not_scalar), "b does not act as a scalar"),
        (changed(c=off_diagonal), "c does not act as a scalar"),
        (changed(b=off_diagonal, c=off_diagonal), "b does not act as a scalar"),
        (changed(b=not_scalar, c=off_diagonal), "b does not act as a scalar"),
        (changed(a=off_diagonal), "a\\^n does not act as a scalar"),
    ]
    for module, message in cases:
        with pytest.raises(WrongType, match=message):
            decompose(p, module, m.label.g1)
    with pytest.raises(WrongType, match="g1\\^n does not match the a\\^n scalar"):
        decompose(p, m, -p.one)


# -- tensor-product traces from the factors' traces ----------------------------


def _one_module_per_kind(n, n1, beta):
    """(params, {kind: module}): build_simple of one candidate per kind, from
    the first character of each of the classes V0/Vr, VI and VII that
    builds.  The characters are
    scanned over g1 in mu_(n^2) and gamma2, gamma3 in {1, zeta_(n^2)}, and a
    VI character with a nonzero seed target is passed over, so every k-seed
    is exact and no tower is built."""
    p = AlgebraParams(n, n1, beta=beta, extra_orders=(n * n,))
    found, built = {}, set()
    classes = {"V0/Vr", *(["VI"] if beta[0] else []), *(["VII"] if beta[1] else [])}
    for e2, e3, e1 in itertools.product((0, 1), (0, 1), range(n * n)):
        if built == classes:
            break
        g1, gamma2, gamma3 = (root_of_unity(n * n, e) for e in (e1, e2, e3))
        b1, b2, _b3, _mu = kind_conditions(p, g1, gamma2, gamma3, 0)
        if not (b1.is_zero() or b2.is_zero()):
            continue
        kinds = "VI" if not b1.is_zero() else "VII" if not b2.is_zero() else "V0/Vr"
        if kinds in built:
            continue
        try:
            cands = candidate_simples(p, g1, gamma2, gamma3)
        except (ArithmeticError, ValueError):
            continue  # e.g. a V_r whose r falls outside [2, t]
        built.add(kinds)
        for _, m in cands:
            if m.label.kind not in found:
                found[m.label.kind] = build_simple(p, m.label)
    return p, found


def _assert_rows_match_reference(p, v, w):
    """The n^2 traces decompose reads of v (x) w equal the oracle's, key for
    key, and reading them builds none of the product's matrices."""
    mt = tensor(p, v, w, check=False)
    rows = fusion._trace_rows(p, mt)
    assert mt._mats is None
    assert [t.key() for t in rows] == [t.key() for t in reference_tensor_traces(p, v, w)], (v.label, w.label)


def test_tensor_traces_from_the_factors_match_the_materialised_product():
    """The q-binomial formula equals trace_vector of the materialised tensor
    product on every ordered pair of kinds over n <= 5, n1 in {1, 2, 3} and
    beta in {0,1}^3; on the VI factors of the thm5.19 point, which live in a
    nested tower; and with a factor conjugated so that a is not diagonal."""
    kind_pairs = set()
    for n, n1, beta in itertools.product(range(2, 6), (1, 2, 3), itertools.product((0, 1), repeat=3)):
        p, found = _one_module_per_kind(n, n1, beta)
        for v, w in itertools.product(found.values(), repeat=2):
            _assert_rows_match_reference(p, v, w)
            kind_pairs.add((v.label.kind, w.label.kind))
    assert kind_pairs == set(itertools.product(("V0", "Vr", "VI", "VII"), repeat=2))
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    (_, c0), (_, c1), _ = candidate_simples(p, z9, p.one, p.one)
    assert all(isinstance(c.zero_scalar(), ExtScalar) for c in (c0, c1))
    triv = build_V0(p, 1, 1, 1, 0)
    for v, w in [(c0, c1), (c1, c0), (c0, c0), (c0, triv), (triv, c1)]:
        _assert_rows_match_reference(p, v, w)
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    z2, z3 = build_simple(p, z2_label(p)), build_simple(p, z3_label(p))
    one = p.one
    P = [[one if j >= i else p.zero for j in range(3)] for i in range(3)]
    conj = _conjugate(z3, P, mat_inv(P))
    for v, w in [(conj, z2), (z2, conj), (conj, conj)]:
        _assert_rows_match_reference(p, v, w)


def test_fuse_builds_no_tensor_matrices(monkeypatch):
    """Once its factors are built, fuse(z7, z7) calls neither kron nor
    mat_pow: decompose reads the product's scalars and traces from the
    factors.  Its result is that of the oracle on the 49-dimensional
    matrices."""
    p = AlgebraParams(7, 1, beta=(0, 0, 1))
    z7 = canonical_zr_label(p, 7)
    m = build_simple(p, z7)
    calls = []
    for name in ("kron", "mat_pow"):
        real = getattr(fusion, name)
        monkeypatch.setattr(fusion, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args))
    fv = fuse(p, z7, z7)
    assert calls == []
    monkeypatch.undo()
    assert fv.total_dim() == 49
    assert fv == reference_decompose(p, tensor(p, m, m, check=False), m.label.g1 * m.label.g1)


def test_tensor_check_still_verifies_the_product(pb3):
    """tensor(check=True) builds the product's matrices and verifies them:
    a factor with x doubled gives a product that is not a module."""
    p = pb3
    m = build_simple(p, z3_label(p))
    doubled = ModuleRep(m.dim, {**m.mats, "x": [[x + x for x in row] for row in m.mat("x")]}, m.label, p)
    assert verify_module(p, doubled)
    with pytest.raises(WrongType, match="tensor product violates relations"):
        tensor(p, doubled, m)
    assert verify_module(p, tensor(p, m, m)) == []


@pytest.mark.parametrize("first", ["no_r", "with_r"])
def test_vr_label_without_r_shares_the_built_module(monkeypatch, first):
    """A V_r label without r and the same label with its r name one module
    with one trace record, in either build order, so a repeated fuse of the
    r-less label traces nothing."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    with_r = canonical_zr_label(p, 3)
    labels = {"with_r": with_r, "no_r": dataclasses.replace(with_r, r=None)}
    m = build_simple(p, labels[first])
    assert build_simple(p, labels["no_r"]) is m
    assert build_simple(p, labels["with_r"]) is m
    assert fusion._built_traces(p, m) is not None
    no_r = labels["no_r"]
    want = fuse(p, no_r, no_r)
    calls = []
    real = fusion.trace_vector
    monkeypatch.setattr(fusion, "trace_vector", lambda *args: calls.append(args) or real(*args))
    assert fuse(p, no_r, no_r) == want and fuse(p, no_r, no_r) == want
    assert calls == []


def _candidate_points():
    """(params, g1) of four characters whose 13 candidates are of kinds V0,
    Vr, VI and VII; those of the thm5.19 point live two tower steps deep."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    yield p, p.q * p.q
    yield AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4)), root_of_unity(9, 1)
    yield AlgebraParams(3, 1, beta=(0, 1, 1), extra_orders=(9,)), root_of_unity(9, 1)
    yield AlgebraParams(4, 1, beta=(1, 0, 1), extra_orders=(16,)), root_of_unity(16, 1)


def test_built_simples_read_as_their_unmarked_copies():
    """A built simple's scalars are read off its first diagonal entries; an
    unmarked copy of its matrices is read through the scalar checks.  Both
    readings give one class, with one bc, and one decompose of the product
    with the trivial module."""
    kinds, nested, count = set(), 0, 0
    for p, g1 in _candidate_points():
        trivial = build_simple(p, SimpleLabel("V0", p.one, p.one, p.one, 0))
        for lab, m in candidate_simples(p, g1, p.one, p.one):
            copy = ModuleRep(m.dim, m.mats, m.label, p)
            assert class_of(p, copy) == class_of(p, m) == lab
            assert class_of(p, copy).bc == lab.bc
            via_copy = decompose(p, tensor(p, copy, trivial, check=False), m.label.g1)
            assert via_copy == decompose(p, tensor(p, m, trivial, check=False), m.label.g1)
            kinds.add(m.label.kind)
            zero = m.zero_scalar()
            nested += isinstance(zero, ExtScalar) and isinstance(zero.tower.base_zero(), ExtScalar)
            count += 1
    assert kinds == {"V0", "Vr", "VI", "VII"} and count == 13 and nested == 3


# -- multiplicities from rational coordinates over a tower ---------------------


def _tower_products():
    """(params, module, g1) decomposed against candidates that live over a
    tower: at the thm5.19 point, each VI candidate of z9 times the trivial
    module, on either side; at beta = (1, 1, 0), each VI candidate of z6
    times the trivial module."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    trivial = build_V0(p, 1, 1, 1, 0)
    for _, c in candidate_simples(p, z9, p.one, p.one):
        yield p, tensor(p, c, trivial, check=False), z9
        yield p, tensor(p, trivial, c, check=False), z9
    p = AlgebraParams(3, 1, beta=(1, 1, 0))
    z6 = root_of_unity(6, 1)
    trivial = build_V0(p, 1, 1, 1, 0)
    for _, c in candidate_simples(p, z6, p.one, p.one):
        yield p, tensor(p, c, trivial, check=False), z6


def test_tower_decompose_matches_the_full_trace_system():
    """Over a tower, decompose reads the multiplicities from the rational
    coordinates of the traces; they equal the oracle's on all 2n*n rows."""
    cases = list(_tower_products())
    assert len(cases) == 9
    for p, mt, g1 in cases:
        fv = decompose(p, mt, g1)
        assert fv == reference_decompose(p, mt, g1) and fv.total_dim() == mt.dim
        plan = candidate_simples(p, g1, p.one, p.one).factorize(p)
        assert isinstance(plan.zero, ExtScalar) and plan.flat is not None


def test_consistent_tower_decompose_never_replays(monkeypatch):
    """A tower decompose whose traces are a nonnegative integer combination
    of the candidates' is decided by the integer check alone: the products
    of _tower_products, and the products of two VI candidates of z9, whose
    constant traces are read down into the tower of the candidates at
    z9^2."""

    def refuse(steps, v):
        raise AssertionError("replay called")

    monkeypatch.setattr(fusion, "replay", refuse)
    cases = list(_tower_products())
    p = cases[0][0]
    z9 = root_of_unity(9, 1)
    for (_, c0), (_, c1) in itertools.combinations(candidate_simples(p, z9, p.one, p.one), 2):
        cases.append((p, tensor(p, c0, c1, check=False), z9 * z9))
    for p, mt, g1 in cases:
        assert decompose(p, mt, g1).total_dim() == mt.dim


def _basis_element(zero, k):
    """The power-basis element of the field of `zero` at index k of
    extfield.coordinates."""
    if isinstance(zero, CycScalar):
        return root_of_unity(zero.m, k)
    tower = zero.tower
    base = tower.base_zero()
    size = len(coordinates(base)[0]) if isinstance(base, ExtScalar) else euler_phi(base.m)
    i, rest = divmod(k, size)
    return tower.gen() ** i * tower.lift(_basis_element(base, rest))


def _thm519_vi_case():
    """The thm5.19 point, the VI candidates of z9 and the first of them
    times the trivial module, whose traces live in the candidates' tower."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    cands = candidate_simples(p, z9, p.one, p.one)
    return p, z9, cands, tensor(p, cands[0][1], build_V0(p, 1, 1, 1, 0), check=False)


def _patch_rows(monkeypatch, mt, change):
    """Make decompose read change(rows) as the trace rows of mt."""
    real = fusion._trace_rows
    monkeypatch.setattr(fusion, "_trace_rows", lambda p, m: change(list(real(p, m))) if m is mt else real(p, m))


INCONSISTENT = re.escape("trace system is inconsistent (missing candidate?)")


def test_tower_decompose_missing_candidate_falls_back_to_replay(monkeypatch):
    """Without one summand among the tower candidates the integer check
    fails, and replay raises the inconsistency error."""
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    z9 = root_of_unity(9, 1)
    (_, c0), (_, c1), _ = candidate_simples(p, z9, p.one, p.one)
    mt = tensor(p, c0, c1, check=False)
    summand = next(iter(decompose(p, mt, z9 * z9).entries))
    listed = fusion.candidate_simples
    monkeypatch.setattr(
        fusion, "candidate_simples", lambda *a, **kw: [c for c in listed(*a, **kw) if c[0] != summand]
    )
    replayed = []
    replay = fusion.replay
    monkeypatch.setattr(fusion, "replay", lambda steps, v: replayed.append(v) or replay(steps, v))
    with pytest.raises(NoIntegerSolution, match=INCONSISTENT):
        decompose(p, mt, z9 * z9)
    assert len(replayed) == 1 and all(isinstance(x, ExtScalar) for x in replayed[0])


def test_tower_decompose_checks_every_coordinate_of_every_row(monkeypatch):
    """A trace changed at a coordinate that the invertible block does not
    read leaves the block's multiplicities as they were, so only the check
    of every coordinate sees the change.  On every row, decompose raises
    the error of replay alone; where the changed traces leave the
    candidates' span, that is the inconsistency error."""
    p, z9, cands, mt = _thm519_vi_case()
    expected = decompose(p, mt, z9)
    plan = cands.factorize(p)
    size = len(plan.flat.columns[0]) // (p.n * p.n)
    messages = []
    for t in range(p.n * p.n):
        k = max(set(range(t * size, (t + 1) * size)) - set(plan.flat.rows))
        e = _basis_element(plan.zero, k - t * size)
        unit = [0] * size
        unit[k - t * size] = 1
        assert coordinates(e) == (unit, 1)

        def perturbed(rows, t=t, e=e):
            rows[t] = rows[t] + e
            return rows

        raised = []
        for replay_only in (True, False):
            with monkeypatch.context() as patch:
                _patch_rows(patch, mt, perturbed)
                if replay_only:
                    patch.setattr(cands, "factorization", dataclasses.replace(plan, flat=None))
                with pytest.raises(NoIntegerSolution) as error:
                    decompose(p, mt, z9)
            raised.append(str(error.value))
        assert raised[0] == raised[1]
        messages.append(raised[0])
    assert re.fullmatch(INCONSISTENT, messages[-1])
    assert decompose(p, mt, z9) == expected


def test_integer_check_reads_every_coordinate():
    """The integer check accepts the traces of a candidate times the trivial
    module and declines them changed at any one coordinate that the
    invertible block does not read."""
    p, z9, cands, mt = _thm519_vi_case()
    plan = cands.factorize(p)
    traces = [read_in(t, plan.zero) for t in fusion._trace_rows(p, mt)]
    assert fusion._flat_multiplicities(plan.flat, traces) == [1, 0, 0]
    size = len(plan.flat.columns[0]) // len(traces)
    basis = [_basis_element(plan.zero, k) for k in range(size)]
    for k in set(range(len(plan.flat.columns[0]))) - set(plan.flat.rows):
        t, i = divmod(k, size)
        changed = list(traces)
        changed[t] = changed[t] + basis[i]
        assert fusion._flat_multiplicities(plan.flat, changed) is None, k


@pytest.mark.parametrize("weights", [(Fraction(1, 2), Fraction(1, 2), 0), (1, -1, 1)])
def test_tower_decompose_refuses_non_integer_and_negative_multiplicities(monkeypatch, weights):
    """Traces that are a consistent combination of the candidates' with a
    non-integer or a negative weight, and the right total dimension, raise
    replay's non-integer error."""
    p, z9, cands, mt = _thm519_vi_case()
    zero = cands.factorize(p).zero
    rows = [[lift(t, zero) for t in cands.rows[lab]] for lab, _ in cands]
    assert sum(w * cm.dim for w, (_, cm) in zip(weights, cands)) == mt.dim
    combination = [sum((w * col[i] for w, col in zip(weights, rows)), zero) for i in range(p.n * p.n)]
    _patch_rows(monkeypatch, mt, lambda _rows: combination)
    with pytest.raises(NoIntegerSolution, match="non-integer multiplicity"):
        decompose(p, mt, z9)
