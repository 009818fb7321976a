"""The three benchmark workloads: job lists drawn from a seed, job execution,
canonical serialisation of each job's result and the checks that hold for
any seed.

A job is one public library call that returns a verdict.  Job lists are plain
data (ints and tuples) drawn from the workload seed; the library only sees
the parameters and labels built from them inside the timed job.  Every round
of a run replays the same job list with freshly built ``AlgebraParams``, so
per-parameter caches start cold in each round exactly as they do in one CLI
call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from hopfsl2 import algebra, cyclo, fusion, grothendieck, modules

DEFAULT_SEED = 20261017
# Gain claims must also hold on this seed; it is never used while tuning.
HOLDOUT_SEED = 424242

WORKLOADS = ("axioms", "fusion", "relations")


@dataclass(frozen=True)
class Job:
    id: str
    kind: str
    args: tuple


# -- axioms ---------------------------------------------------------------------

AXIOM_GRID = [(2, 1), (3, 1), (3, 2), (4, 3)]  # the criterion-01 grid
AXIOM_N_RANDOM = 10
AXIOM_NAMES = frozenset({
    "coassociativity", "counit_left", "counit_right", "antipode_left",
    "antipode_right", "delta_algebra_map", "counit_algebra_map", "antipode_antihom",
})


def axioms_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"axioms:{seed}")
    jobs = []
    for (n, n1), beta in itertools.product(AXIOM_GRID, itertools.product((0, 1), repeat=3)):
        s = rng.randrange(2**31)
        jobs.append(Job(f"axioms n={n} n1={n1} beta={beta} s={s}", "axioms", (n, n1, beta, s)))
    rng.shuffle(jobs)
    return jobs


def _run_axioms(args):
    n, n1, beta, s = args
    p = algebra.AlgebraParams(n, n1, beta=beta)
    return p.check_hopf_axioms(degree_bound=4, n_random=AXIOM_N_RANDOM, seed=s)


def _serialize_axioms(rep) -> dict:
    return {"ok": rep.ok, "checked": sorted(rep.results), "failures": rep.failures()}


def _check_axioms(rep) -> bool:
    # every (n, n1) of the grid is valid (no n, n1 both even), so all axioms hold
    return rep.ok and set(rep.results) == AXIOM_NAMES


# -- fusion -------------------------------------------------------------------------
#
# Three label families in fixed strata (family, n), so that every seed gives a
# round of similar cost; the seed draws the VI and V0 labels and the job order:
#  * z: canonical z_r classes at beta = (0,0,1); for n = 3..6 the pairs
#    z_r (x) z_(n+2-r), r = 2..n, and z_7 (x) z_7.  A canonical z_r is fixed
#    by r, and a seeded pairing of r with s moved the round's cost by more
#    than the host's noise, so the pairs are fixed.
#  * VI: VI simples at beta = (1,0,0) with in-field k-seeds, n = 2..5,
#    g1 a primitive-enough n^2-th root of unity (M = lcm(2n, n^2) up to 50).
#    Of the two pairs per n, the first has a VI character as product and the
#    second a V0 one (n candidates), where n allows it: the two kinds of
#    decomposition differ in cost by half, so a seed must not pick the mix.
#  * V0: characters at beta = (0,0,0), n = 2..5, over the same fields.

FUSION_Z_N = range(3, 7)
FUSION_Z_FIXED = (7, 7, 7)
FUSION_FIELD_N = range(2, 6)
FUSION_VI_PER_N = 2
# Four V0 pairs per n put the median job inside the cluster of n = 4 jobs
# (z and V0, 0.05 to 0.1 s on a 2-vCPU Xeon) instead of on the cheapest VI n = 4 job,
# whose cost jumps with the draw.
FUSION_V0_PER_N = 4


def _vi_pair_draw(rng, n, vi_product):
    """Two VI draws (g1 exponent, gamma3 exponent, shift i).  g1 = zeta_{n^2}^e
    with n not dividing e, so beta1'' != 0 (a VI character); the product's g1^n
    is zeta_n^(e1+e2), a VI character again iff n does not divide e1 + e2."""
    exps = [e for e in range(1, n * n) if e % n]
    e1 = rng.choice(exps)
    wanted = [e for e in exps if bool((e1 + e) % n) == vi_product]
    e2 = rng.choice(wanted or exps)
    return (e1, rng.randrange(n), rng.randrange(n)), (e2, rng.randrange(n), rng.randrange(n))


def _v0_label_draw(rng, n):
    return (rng.randrange(n * n), rng.randrange(n), rng.randrange(n), rng.randrange(n))


def fusion_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"fusion:{seed}")
    jobs = []
    for n in FUSION_Z_N:
        for r in range(2, n + 1):
            jobs.append(Job(f"fusion z n={n} {r}x{n + 2 - r}", "z", (n, r, n + 2 - r)))
    n, r, s = FUSION_Z_FIXED
    jobs.append(Job(f"fusion z n={n} {r}x{s}", "z", (n, r, s)))
    for n in FUSION_FIELD_N:
        for k in range(FUSION_VI_PER_N):
            a, b = _vi_pair_draw(rng, n, vi_product=k == 0)
            jobs.append(Job(f"fusion VI n={n} {a}x{b}", "VI", (n, a, b)))
        for _ in range(FUSION_V0_PER_N):
            a, b = _v0_label_draw(rng, n), _v0_label_draw(rng, n)
            jobs.append(Job(f"fusion V0 n={n} {a}x{b}", "V0", (n, a, b)))
    rng.shuffle(jobs)
    # the same draw can repeat; a job id names one call, so keep ids unique
    seen: dict[str, int] = {}
    out = []
    for job in jobs:
        k = seen.get(job.id, 0)
        seen[job.id] = k + 1
        out.append(job if k == 0 else Job(f"{job.id} #{k}", job.kind, job.args))
    return out


def _vi_label(p, n, draw):
    e, c, i = draw
    g1 = cyclo.root_of_unity(n * n, e)
    gamma3 = cyclo.root_of_unity(n, c)
    seeds = modules.solve_k_seed(p, "VI", g1, 1, gamma3, i)
    return modules.SimpleLabel("VI", g1, p.one, gamma3, i, kseed=seeds[0])


def _v0_label(n, draw):
    e, b, c, i = draw
    return modules.SimpleLabel(
        "V0", cyclo.root_of_unity(n * n, e), cyclo.root_of_unity(n, b), cyclo.root_of_unity(n, c), i
    )


def _fusion_params(kind, n):
    if kind == "z":
        return algebra.AlgebraParams(n, 1, beta=(0, 0, 1))
    beta = (1, 0, 0) if kind == "VI" else (0, 0, 0)
    return algebra.AlgebraParams(n, 1, beta=beta, extra_orders=(n * n,))


def _run_fusion(kind, args):
    n = args[0]
    p = _fusion_params(kind, n)
    if kind == "z":
        _, r, s = args
        l1, l2 = grothendieck.canonical_zr_label(p, r), grothendieck.canonical_zr_label(p, s)
    elif kind == "VI":
        l1, l2 = _vi_label(p, n, args[1]), _vi_label(p, n, args[2])
    else:
        l1, l2 = _v0_label(n, args[1]), _v0_label(n, args[2])
    return fusion.fuse(p, l1, l2)


def _fusion_dims(job) -> int:
    if job.kind == "z":
        return job.args[1] * job.args[2]
    if job.kind == "VI":
        return job.args[0] ** 2
    return 1


def _check_fusion(job, fv) -> bool:
    # dimension bookkeeping and positive multiplicities
    return fv.total_dim() == _fusion_dims(job) and all(m > 0 for m in fv.entries.values())


# -- relations ------------------------------------------------------------------------

RELATION_POINTS = (
    ("thm5.5", 3, 1, (0, 0, 1), ()),
    ("thm5.5", 4, 1, (0, 0, 1), ()),
    ("thm5.8", 3, 1, (1, 0, 0), ()),
    ("thm5.13", 3, 1, (0, 1, 0), ()),
    # extra order 4 (M = 12) keeps x_times_y on the cubic tower at a fifth of
    # its cost at extra orders 9 and 4 (M = 36), so a run holds several rounds
    ("thm5.19", 3, 1, (1, 1, 1), (4,)),
)
# README example: compare-rings --n 3 --n1 1 --N 6 --beta-a 1,1,0 --beta-b 1,0,0
COMPARE_RINGS = (3, 1, 6, (1, 1, 0), (1, 0, 0))


def _point_params(point):
    _suite, n, n1, beta, extra = point
    return algebra.AlgebraParams(n, n1, beta=beta, extra_orders=extra)


def relations_jobs(seed: int) -> list[Job]:
    """Suite points in seeded order; within a point, its default suite instances
    in suite order, as verify-relations runs them.  Jobs of one point run on one
    AlgebraParams per round, so later jobs hit earlier jobs' caches.

    Points share no cache, so their order moves no job's cost.  The order
    within a point decides which job pays for the fuses its neighbours reuse;
    shuffling it moved the p50 and tail job times by up to a quarter between
    seeds, so it stays fixed."""
    rng = random.Random(f"relations:{seed}")
    groups = []
    for point in RELATION_POINTS:
        suite, n, n1, beta, extra = point
        instances = grothendieck.default_suite_instances(_point_params(point), suite)
        group = [
            Job(f"relations {suite} n={n} n1={n1} beta={beta} extra={extra} #{k} {rid}", "relation", (point, rid, bindings))
            for k, (rid, bindings) in enumerate(instances)
        ]
        groups.append(group)
    groups.append([Job("relations compare-rings n=3 n1=1 N=6 1,1,0 vs 1,0,0", "compare", COMPARE_RINGS)])
    rng.shuffle(groups)
    return [job for group in groups for job in group]


def _run_relation(args, ctx):
    point, rid, bindings = args
    p = ctx.get(point)
    if p is None:
        # the previous point's verify-relations call is over: drop its caches,
        # so the heap a job sees does not depend on the seeded point order
        ctx.clear()
        p = ctx[point] = _point_params(point)
    return grothendieck.verify_relation(p, rid, **bindings)


def _run_compare(args):
    n, n1, N, beta_a, beta_b = args
    ctx_a = grothendieck.GelakiContext(algebra.AlgebraParams(n, n1, beta=beta_a, extra_orders=(N,)), N)
    ctx_b = grothendieck.GelakiContext(algebra.AlgebraParams(n, n1, beta=beta_b, extra_orders=(N,)), N)
    return grothendieck.compare_fusion_rings(ctx_a, ctx_b)


# -- dispatch -------------------------------------------------------------------------

JOB_LISTS = {"axioms": axioms_jobs, "fusion": fusion_jobs, "relations": relations_jobs}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return JOB_LISTS[workload](seed)


def run_job(job: Job, ctx: dict):
    """Run one job; ctx is shared by the jobs of one round."""
    if job.kind == "axioms":
        return _run_axioms(job.args)
    if job.kind in ("z", "VI", "V0"):
        return _run_fusion(job.kind, job.args)
    if job.kind == "relation":
        return _run_relation(job.args, ctx)
    if job.kind == "compare":
        return _run_compare(job.args)
    raise ValueError(f"unknown job kind {job.kind!r}")


def serialize(job: Job, result) -> str:
    """Canonical text of a job's result (byte-identical cyc(...) included)."""
    if job.kind == "axioms":
        body = _serialize_axioms(result)
    elif job.kind == "compare":
        body = result
    else:
        body = result.as_dict()  # FusionVector or RelationReport
    return json.dumps(body, sort_keys=True, default=str)


def check(job: Job, result) -> bool:
    """Invariants that hold for any seed."""
    if job.kind == "axioms":
        return _check_axioms(result)
    if job.kind in ("z", "VI", "V0"):
        return _check_fusion(job, result)
    if job.kind == "relation":
        return result.passed
    return result.get("equal") is True


def job_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def round_digest(serialized: dict[str, str]) -> str:
    """Digest of one round: order-independent, keyed by job id."""
    h = hashlib.sha256()
    for job_id in sorted(serialized):
        h.update(f"{job_id}\t{serialized[job_id]}\n".encode())
    return h.hexdigest()


def field_moduli(jobs: list[Job]) -> set[int]:
    """Cyclotomic moduli the jobs work in, so set-up can fill the field tables."""
    out = set()
    for job in jobs:
        if job.kind == "axioms":
            out.add(2 * job.args[0])
        elif job.kind in ("z", "VI", "V0"):
            n = job.args[0]
            out.update({n, 2 * n} if job.kind == "z" else {n, n * n, cyclo.common_modulus(2 * n, n * n)})
        elif job.kind == "relation":
            _suite, n, _n1, _beta, extra = job.args[0]
            out.add(cyclo.common_modulus(2 * n, *extra))
        else:
            n, _n1, N, _a, _b = job.args
            out.add(cyclo.common_modulus(2 * n, N))
    return out


def fill_field_tables(jobs: list[Job]) -> None:
    """Fill the process-global reduction tables (lru caches in hopfsl2.cyclo)."""
    for m in sorted(field_moduli(jobs)):
        for d in cyclo.divisors(m):
            cyclo.root_of_unity(d, 1)
            cyclo.cyclotomic_polynomial(d)
