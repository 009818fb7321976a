"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_bench.py

They run only cheap jobs: the determinism and tracer checks use the first
few jobs of each workload whose parameters are small.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.import_library()
from tracer import Tracer  # noqa: E402

SEED = workloads.DEFAULT_SEED
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def cheap_jobs(workload, seed=SEED, count=4):
    """A few small-parameter jobs of the workload, in job-list order."""

    def small(job):
        if job.kind == "axioms":
            return job.args[0] == 2
        if job.kind in ("z", "VI", "V0"):
            return job.args[0] <= 3
        if job.kind == "relation":
            return job.args[0][0] in ("thm5.8", "thm5.13")
        return False

    return [job for job in workloads.jobs_for(workload, seed) if small(job)][:count]


def serialized_round(jobs):
    rounds, _walls = run.run_rounds(workloads, jobs, 0.0)
    assert all(error is None for _job, _dt, _text, error in rounds[0])
    return {job.id: text for job, _dt, text, _error in rounds[0]}


def test_same_seed_same_job_list():
    for name in workloads.WORKLOADS:
        a = [job.id for job in workloads.jobs_for(name, SEED)]
        b = [job.id for job in workloads.jobs_for(name, SEED)]
        other = [job.id for job in workloads.jobs_for(name, workloads.HOLDOUT_SEED)]
        assert a == b
        assert len(set(a)) == len(a)
        assert a != other


def test_fusion_strata_do_not_depend_on_seed():
    def strata(seed):
        return sorted((job.kind, job.args[0]) for job in workloads.jobs_for("fusion", seed))

    assert strata(SEED) == strata(workloads.HOLDOUT_SEED) == strata(1)


def test_same_seed_same_digest():
    for name in workloads.WORKLOADS:
        jobs = cheap_jobs(name)
        assert jobs
        assert workloads.round_digest(serialized_round(jobs)) == workloads.round_digest(serialized_round(jobs))


def test_recorded_digests_match_cheap_jobs():
    recorded = json.loads(run.DIGESTS.read_text())
    for name in workloads.WORKLOADS:
        assert set(recorded[name]) == {job.id for job in workloads.jobs_for(name, SEED)}
        for job_id, text in serialized_round(cheap_jobs(name)).items():
            assert recorded[name][job_id] == workloads.job_digest(text)


def _bindings():
    """(namespace, attribute, value) for every callable bound in the package."""
    out = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is not None and (mod_name == "hopfsl2" or mod_name.startswith("hopfsl2.")):
            for attr, value in vars(mod).items():
                if callable(value):
                    out.append((mod_name, attr, value))
                if isinstance(value, (type, dict)):
                    items = vars(value).items() if isinstance(value, type) else value.items()
                    out.extend((mod_name, f"{attr}.{k}", v) for k, v in items if callable(v))
    return out


def test_traced_digest_equals_untraced_and_tracer_restores_bindings():
    before = _bindings()
    for name in workloads.WORKLOADS:
        jobs = cheap_jobs(name)
        plain = serialized_round(jobs)
        tracer = Tracer()
        with tracer:
            from hopfsl2 import fusion, linalg

            # every from-import binding is wrapped, not only the defining module's
            assert fusion.rank is linalg.rank and hasattr(fusion.rank, "_perfbench_wrapped")
            assert hasattr(fusion.build_simple, "_perfbench_wrapped")
            traced = serialized_round(jobs)
        assert workloads.round_digest(traced) == workloads.round_digest(plain)
        assert sum(count for count, _total, _self in tracer.stats.values()) > 0
    assert _bindings() == before
    assert not any(hasattr(value, "_perfbench_wrapped") for _m, _a, value in _bindings())


def test_self_time_excludes_children():
    jobs = cheap_jobs("fusion", count=2)
    tracer = Tracer()
    with tracer:
        run.run_rounds(workloads, jobs, 0.0, tracer)
    calls, total, self_s = tracer.stats["fusion.fuse"]
    assert calls == len(jobs)
    assert 0.0 <= self_s < total
    assert tracer.pair_calls("fusion.fuse", "fusion.decompose") == len(jobs)


def test_metric_names_and_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for table, key in ((run.END_TO_END, "end_to_end"), (run.PER_LAYER, "per_layer")):
        names = [name for name, _unit in table]
        assert len(set(names)) == len(names)
        assert all(NAME.match(name) for name in names)
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(table)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_leaves_ten_jobs_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
