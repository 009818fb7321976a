import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hopfsl2 import cyclo, fusion, grothendieck, modules
from hopfsl2.algebra import AlgebraParams
from hopfsl2.cyclo import root_of_unity
from hopfsl2.fusion import FusionVector, candidate_simples, fuse
from hopfsl2.grothendieck import (
    GelakiContext,
    UnboundGenerator,
    chebyshev_z,
    cls,
    compare_fusion_rings,
    default_suite_instances,
    g_class,
    gr_mul,
    gr_pow,
    one,
    radford_context,
    run_suite,
    verify_relation,
    z_class,
)
from hopfsl2.modules import SimpleLabel, simple_key


@pytest.fixture(scope="module")
def pb3():
    return AlgebraParams(3, 1, beta=(0, 0, 1))


def test_fuse_cache_keeps_apart_classes_that_differ_in_b_and_c_scalars():
    """[V0(1, z3, 1; 0)] and [1] share a CanonLabel; a cached product of the
    one must not answer for the other."""
    p = AlgebraParams(3, 1)
    label = SimpleLabel("V0", p.one, root_of_unity(3, 1), p.one, 0)
    w = cls(p, label)
    gr_mul(p, one(p), one(p))
    assert gr_mul(p, w, w).as_dict() == fuse(p, label, label).as_dict()


def test_fuse_cache_keeps_one_result_per_class_pair():
    """[V0(1, z3, 1; 0)] and [1] differ only in b and c: two class pairs,
    each with one FusionVector."""
    p = AlgebraParams(3, 1)
    w = cls(p, SimpleLabel("V0", p.one, root_of_unity(3, 1), p.one, 0))
    assert gr_mul(p, w + one(p), one(p)) == w + one(p)
    (lw,), (l1,) = w.entries, one(p).entries
    assert all(isinstance(fv, FusionVector) for fv in p.caches.fuse.values())
    assert p.caches.fuse == {(lw, l1): w, (l1, l1): one(p)}


def test_z2_zdprime_with_swapped_gamma_slots_does_not_hold():
    """The thm5.8 z_2 z''_xi relation with its right side read on the V_II
    side, (gamma2, gamma3) = (c, 1) in place of (1, c), names other
    classes, so its reading fails while the printed one holds."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(9, 4))
    (bindings,) = [b for rid, b in default_suite_instances(p, "thm5.8") if rid == "thm5.8.z2_zdprime"]
    assert verify_relation(p, "thm5.8.z2_zdprime", **bindings).passed
    xi = p.scalar(bindings["xi"])
    xiq = xi * p.qpow(-p.n1)

    def vt(gammas, i):
        return cls(p, SimpleLabel("Vr", p.one, *gammas, i, r=p.t))

    eta = cls(p, SimpleLabel("V0", p.sqrt_q, p.qpow(p.n1), p.one, 0))
    reading = grothendieck._try_reading(
        "swapped",
        lambda: gr_mul(p, z_class(p, 2), vt((p.one, xi), 0)),
        lambda: gr_mul(p, eta, vt((xiq, p.one), 0) + vt((xiq, p.one), p.n - 1)),
    )
    assert reading.applicable and reading.holds is False


def test_integral_keys_make_no_fraction(monkeypatch):
    """A candidate basis at an integer-trace character, and a fuse-cache hit
    whose stored key is an equal label of another object, build no Fraction:
    integral scalars key on their numerators."""
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    monkeypatch.setattr(cyclo, "Fraction", CountingFraction)
    basis = candidate_simples(p, p.one, p.one, p.one)
    assert made == []
    monkeypatch.undo()
    label = basis[-1][0]
    w = cls(p, label.display)
    assert next(iter(w.entries)) is not label
    want = gr_mul(p, w, w)
    monkeypatch.setattr(cyclo, "Fraction", CountingFraction)
    got = gr_mul(p, FusionVector({label: 1}), FusionVector({label: 1}))
    assert made == []
    assert got.as_dict() == want.as_dict()


def test_g_power_and_unbound(pb3):
    p0 = AlgebraParams(3, 1, beta=(1, 0, 0))
    assert gr_pow(p0, g_class(p0), 3) == one(p0)
    with pytest.raises(UnboundGenerator):
        g_class(pb3)  # beta3 != 0, n does not divide 2 n1


def test_gr_ring_axioms_random():
    """Associativity and commutativity of the fusion product on classes."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1))
    gens = [
        cls(p, SimpleLabel("V0", p.one, p.one, p.one, 0)),
        cls(p, SimpleLabel("V0", p.one, p.q, p.qpow(2), 0)),
        z_class(p, 2),
        z_class(p, 3),
    ]
    rng = random.Random(1)
    for _ in range(6):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert gr_mul(p, a, b) == gr_mul(p, b, a)
        assert gr_mul(p, gr_mul(p, a, b), c) == gr_mul(p, a, gr_mul(p, b, c))


def test_chebyshev_equals_vr(pb3):
    for r in (2, 3):
        assert chebyshev_z(pb3, r) == z_class(pb3, r)
    p41 = AlgebraParams(4, 1, beta=(0, 0, 1))
    for r in (2, 3, 4):
        assert chebyshev_z(p41, r) == z_class(p41, r)


def test_thm55_relations(pb3):
    rep = verify_relation(pb3, "thm5.5.zr_z2", r=2)
    assert rep.ok
    rep = verify_relation(pb3, "thm5.5.zr_z2", r=3)
    assert rep.ok
    rep = verify_relation(pb3, "thm5.5.star1")
    assert rep.ok
    # at (4,1) only the half-shift reading of (*1) holds
    p41 = AlgebraParams(4, 1, beta=(0, 0, 1))
    rep41 = verify_relation(p41, "thm5.5.star1")
    states = {r.name: (r.applicable, r.holds) for r in rep41.readings}
    assert states["r:=t, RHS printed g^(n-t)+1 (g collapsed to 1)"] == (True, False)
    assert states["r:=t, RHS half-shift [q^(t/2)]+[q^(-t/2)]"] == (True, True)


def test_thm55_zprime_relations():
    p = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(4, 8))
    z4 = root_of_unity(4, 1)
    z8 = root_of_unity(8, 1)
    assert verify_relation(p, "thm5.5.z2_zprime", g1xi=z4).ok
    assert verify_relation(p, "thm5.5.zprime_zprime", g1a=z8, g1b=z8).ok
    assert verify_relation(p, "thm5.5.zprime_zprime", g1a=z4, g1b=z4).ok  # q-power case


def test_thm58_suite():
    p = AlgebraParams(3, 1, beta=(1, 0, 1), extra_orders=(9, 4))
    for rid, bindings in default_suite_instances(p, "thm5.8"):
        rep = verify_relation(p, rid, **bindings)
        assert rep.ok, rep.summary()


def test_thm510_and_513_suites():
    p1 = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(9,))
    for rid, bindings in default_suite_instances(p1, "thm5.10"):
        assert verify_relation(p1, rid, **bindings).ok
    p2 = AlgebraParams(3, 1, beta=(0, 1, 0), extra_orders=(9,))
    for rid, bindings in default_suite_instances(p2, "thm5.13"):
        assert verify_relation(p2, rid, **bindings).ok


def test_thm515_suite():
    p0 = AlgebraParams(3, 1, beta=(1, 0, 0))
    p = AlgebraParams(3, 1, beta=(1, p0.q - p0.one, 0), extra_orders=(9,))
    for rid, bindings in default_suite_instances(p, "thm5.15"):
        rep = verify_relation(p, rid, **bindings)
        assert rep.ok, rep.summary()


def test_thm517_suite():
    p = AlgebraParams(3, 1, beta=(0, 1, 1), extra_orders=(9, 4))
    for rid, bindings in default_suite_instances(p, "thm5.17"):
        rep = verify_relation(p, rid, **bindings)
        assert rep.ok, rep.summary()


def test_thm519_suite():
    p = AlgebraParams(3, 1, beta=(1, 1, 1), extra_orders=(9, 4))
    for rid, bindings in default_suite_instances(p, "thm5.19"):
        rep = verify_relation(p, rid, **bindings)
        assert rep.ok, rep.summary()


def test_thm519_x_zprime_report():
    """thm5.19.x_zprime has a z'-generator only when gamma1^n1 = 1 leaves
    g1^(2 n1) outside <q^n1>; the first default point with one is n = 6,
    n1 = 3, where the V_I character of x has two seed-classes."""
    p = AlgebraParams(6, 3, beta=(1, 1, 1), extra_orders=(36,))
    [bindings] = [b for rid, b in default_suite_instances(p, "thm5.19") if rid == "thm5.19.x_zprime"]
    name = "printed(g^(n-t) s'' x_(zeta1 xi, zeta2))"
    detail = "2 seed-class(es) at this character"
    assert verify_relation(p, "thm5.19.x_zprime", **bindings).as_dict() == {
        "relation": "thm5.19.x_zprime",
        "bindings": "g1xi=cyc(36; 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "
        "g1z=cyc(36; 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "
        "zeta2=cyc(36; 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)",
        "ok": True,
        "inapplicable": False,
        "passed": True,
        "readings": [
            {"name": f"{name} [class#{k}]", "applicable": True, "holds": True, "detail": detail} for k in range(2)
        ],
    }


@pytest.mark.parametrize(
    "suite, beta, extra", [("thm5.8", (1, 0, 0), ()), ("thm5.19", (1, 1, 1), (4,))]
)
def test_each_simple_is_built_once(monkeypatch, suite, beta, extra):
    """Over a suite's default instances each simple is built once: named
    generators, tensor factors and the candidates of every character all
    come from build_simple."""
    p = AlgebraParams(3, 1, beta=beta, extra_orders=extra)
    built = []

    def spy(real):
        def build(*args):
            m = real(*args)
            built.append(simple_key(p, m.label))
            return m

        return build

    for mod in (modules, fusion):
        for name in ("build_V0", "build_Vr", "build_VI", "build_VII"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(getattr(mod, name)))
    for rid, bindings in default_suite_instances(p, suite):
        assert verify_relation(p, rid, **bindings).passed
    assert built and len(built) == len(set(built))


def test_star1_at_larger_t():
    """(5,1): t = 5 odd, both readings; (4,2): u = 2, only the half-shift."""
    p51 = AlgebraParams(5, 1, beta=(0, 0, 1))
    rep = verify_relation(p51, "thm5.5.star1")
    assert all(r.holds for r in rep.readings if r.applicable)
    for r in (2, 3, 4, 5):
        assert chebyshev_z(p51, r) == z_class(p51, r)
    p42 = AlgebraParams(4, 2, beta=(0, 0, 1))
    rep42 = verify_relation(p42, "thm5.5.star1")
    states = {r.name: r.holds for r in rep42.readings if r.applicable}
    assert states["r:=t, RHS half-shift [q^(t/2)]+[q^(-t/2)]"] is True
    assert states["r:=t, RHS printed g^(n-t)+1 (g collapsed to 1)"] is False
    # fusion of the nilpotent-kind modules stays valid at gcd(n, n1) = 2
    assert verify_relation(p42, "thm5.5.zr_z2", r=2).ok


def test_associativity_over_extension_tower():
    """(x* x*) x* = x* (x* x*) when the k-seeds live in a cubic extension."""
    from hopfsl2.fusion import FusionVector

    pA = AlgebraParams(3, 1, beta=(1, 1, 0), extra_orders=(6,))
    ctx = GelakiContext(pA, 6)
    labels = [lab for lab, _key in ctx.labels() if lab.kind == "VI"]
    assert len(labels) == 3  # three non-isomorphic seed-classes
    xs = FusionVector({labels[0]: 1})
    left = gr_mul(pA, gr_mul(pA, xs, xs), xs)
    right = gr_mul(pA, xs, gr_mul(pA, xs, xs))
    assert left == right
    # x*^3 spreads uniformly over the three conjugate classes
    assert sorted(left.entries.values()) == [3, 3, 3]


def test_gelaki_zprime_power_relation():
    """At (3,12,1,(0,0,1)) with v0 = 2, the displayed z'-power identity is an
    instance of the z' x z' product relation with xi = xi' = the canonical
    N-th-root datum; the chain-split reading verifies it."""
    p = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(12,))
    frak_q = root_of_unity(12, 1).embed(p.M)
    from hopfsl2.modules import r_value

    assert r_value(p, frak_q, p.one, p.one) is None  # a valid z'-generator
    rep = verify_relation(p, "thm5.5.zprime_zprime", g1a=frak_q, g1b=frak_q)
    assert rep.ok, rep.summary()


def test_gelaki_orders_and_xstar():
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(6,))
    ctx = GelakiContext(p, 6)
    for rep in ctx.verify_orders():
        assert rep.ok or all(not r.applicable for r in rep.readings)
    assert ctx.verify_xstar_power().ok


def test_run_suite_cor_gelaki_gives_the_golden_results():
    """run_suite at the cor-gelaki golden point returns what the CLI prints."""
    golden = (Path(__file__).parent / "golden" / "relations_gelaki.txt").read_text()
    report = json.loads(golden.split("\n", 1)[1])
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(6,))
    passed, results = run_suite(p, "cor-gelaki", N=6)
    assert passed is True
    assert json.loads(json.dumps(results, default=str)) == report["results"]


def test_gelaki_ystar_power():
    """The V_II mirror of the x*-power relation (Cor 5.14)."""
    ctx = GelakiContext(AlgebraParams(3, 1, beta=(0, 1, 0), extra_orders=(6,)), 6)
    assert ctx.verify_ystar_power().summary() == "cor5.14.ystar_power [N=6] -> y*^6 = n^5 s h: holds"


def test_gelaki_label_closure():
    """Products of quotient classes stay inside the quotient label set."""
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(6,))
    ctx = GelakiContext(p, 6)
    labels, table = ctx.fusion_table()
    label_set = {lab for lab, _key in labels}
    for fv in table.values():
        for lab in fv.entries:
            assert lab in label_set


def test_radford_context():
    ctx = radford_context(4, 1)
    assert ctx.p.n == 4 and ctx.p.beta[2] == 1
    for rep in ctx.verify_orders():
        assert rep.ok or all(not r.applicable for r in rep.readings)
    with pytest.raises(ValueError):
        radford_context(4, 2)  # N | nu^2


def test_compare_rings_identical():
    p = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(6,))
    ctx = GelakiContext(p, 6)
    rep = compare_fusion_rings(ctx, ctx)
    assert rep["equal"] and rep["class_counts_match"]


def test_compare_rings_inequal_pair():
    """beta = (1,0,0) vs (0,0,1): the label sets genuinely differ."""
    pA = AlgebraParams(3, 1, beta=(1, 0, 0), extra_orders=(6,))
    pB = AlgebraParams(3, 1, beta=(0, 0, 1), extra_orders=(6,))
    rep = compare_fusion_rings(GelakiContext(pA, 6), GelakiContext(pB, 6))
    assert not rep["equal"]


CHAIN_SPLIT = ("proof(chain split per slot)", True, True)


@pytest.mark.parametrize(
    "suite, beta, extra, relation, expected",
    [
        ("thm5.5", (0, 0, 1), (4, 8), "thm5.5.zprime_zprime", [
            [CHAIN_SPLIT, ("printed(s'' z')", True, True), ("thm5.19 variant(g^(n-t) s'' z')", True, True)],
            [CHAIN_SPLIT],
        ]),
        ("thm5.8", (1, 0, 1), (9, 4), "thm5.8.zd_zd", [
            [CHAIN_SPLIT, ("printed(s'' z''_(xi xi'))", True, True)],
            [CHAIN_SPLIT],
        ]),
        ("thm5.17", (0, 1, 1), (9, 4), "thm5.17.zt_zt", [
            [CHAIN_SPLIT, ("printed(s'' z~_(xi xi'))", True, True)],
            [CHAIN_SPLIT],
        ]),
        ("thm5.10", (1, 0, 0), (9,), "x_times_x", [
            [("[unique x unique]: n V_I constituents", True, True), ("printed(s VI class)", True, True)],
            [("[unique x unique]: n s g (V0 ladder)", True, True)],
        ]),
        ("thm5.13", (0, 1, 0), (9,), "y_times_y", [
            [("[unique x unique]: n V_II constituents", True, True), ("printed(s VII class)", True, True)],
            [("[unique x unique]: n s g (V0 ladder)", True, True)],
        ]),
        ("thm5.8", (1, 0, 1), (9, 4), "thm5.8.z2_zdprime", [
            [("printed(eta (z''_(xi q^-n1) + g^(n-1) z''))", True, True)],
        ]),
        ("thm5.17", (0, 1, 1), (9, 4), "thm5.17.z2_ztilde", [
            [("printed(eta' (z~_(xi q^-n1) + g^(n-1) z~))", True, True)],
        ]),
        ("thm5.8", (1, 0, 1), (9, 4), "thm5.8.x_zdprime", [
            [(f"printed(s'' x_(zeta1, zeta2 xi)) [class#{k}]", True, True) for k in range(3)],
        ]),
        ("thm5.17", (0, 1, 1), (9, 4), "thm5.17.y_ztilde", [
            [(f"printed(s'' y_(eps1, eps2 xi)) [class#{k}]", True, True) for k in range(3)],
        ]),
    ],
)
def test_reading_names_of_mirrored_relations(suite, beta, extra, relation, expected):
    """The readings (name, applicable, holds) each instance reports, in order."""
    p = AlgebraParams(3, 1, beta=beta, extra_orders=extra)
    got = [
        [(r.name, r.applicable, r.holds) for r in verify_relation(p, rid, **bindings).readings]
        for rid, bindings in default_suite_instances(p, suite)
        if rid == relation
    ]
    assert got == expected


# recorded from the bindings of default_suite_instances before it was
# rewritten to state each root and square pair once
SUITE_INSTANCES_SHA256 = "95934dba4da521707fe1dc44762aa70ddf8fd65766227ca294b85bee47562c30"


def _suite_instances_text() -> str:
    """default_suite_instances over n = 2..4, n1 <= n, every beta in
    {0,1}^3, five extra-order sets and every relation suite plus an unknown
    name: per case its relation ids with their sorted (name, repr(value))
    bindings, or the exception's class and message."""
    lines = []
    suites = ("thm5.5", "thm5.8", "thm5.10", "thm5.13", "thm5.15", "thm5.17", "thm5.19", "nosuch")
    for n in range(2, 5):
        for n1 in range(1, n + 1):
            for beta in itertools.product((0, 1), repeat=3):
                for extra in ((), (n * n,), (4 * n,), (9, 4), (36,)):
                    p = AlgebraParams(n, n1, beta=beta, extra_orders=extra)
                    for suite in suites:
                        try:
                            body = repr(
                                [(rid, sorted((k, repr(v)) for k, v in b.items()))
                                 for rid, b in default_suite_instances(p, suite)]
                            )
                        except Exception as exc:  # noqa: BLE001 - the error is the pinned output
                            body = f"{type(exc).__name__}: {exc}"
                        lines.append(f"{n} {n1} {beta} {extra} {suite}: {body}")
    return "\n".join(lines) + "\n"


def test_default_suite_instances_are_pinned():
    """Every binding the suites run, over 2,880 (point, suite) cases, hashes
    to the text recorded before default_suite_instances was rewritten."""
    text = _suite_instances_text()
    assert text.count("\n") == 2880
    assert text.count("UnboundGenerator") == 336
    assert hashlib.sha256(text.encode()).hexdigest() == SUITE_INSTANCES_SHA256
