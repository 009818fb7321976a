#!/usr/bin/env python3
"""hopfsl2 benchmark: closed-loop workloads, one client, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload {axioms,fusion,relations} --seed N \
        --seconds S --trace {0,1}

A run replays its workload's job list (drawn from --seed) in whole rounds,
as many as end nearest to S seconds (at least one); one job is one public
library call returning a verdict.  Every job's result is checked (invariants
for any seed, recorded digests for the default seed, and equality with the
first round's result).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics; with --trace 1 the run first times one round
untraced, then installs the tracer and reports the per-layer metrics.

Set-up time is measured in separate child processes (``--setup-only``), each
timed from its start to the point where the first job would run; the median
of several is reported.  Details of each run (host record, per-job times,
raw tracer counters, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
TAIL_BEYOND = 10  # the tail percentile leaves at least this many jobs beyond it

END_TO_END = (
    ("throughput_jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _calls_self(prefix):
    return ((f"{prefix}.calls", "count"), (f"{prefix}.self_s", "s"))


PER_LAYER = (
    *_calls_self("cyclo.mul"),
    *_calls_self("cyclo.add"),
    *_calls_self("cyclo.inv"),
    ("cyclo.embed.calls", "count"),
    *_calls_self("extfield.mul"),
    *_calls_self("extfield.add"),
    *_calls_self("extfield.inv"),
    *_calls_self("extfield.split_roots"),
    *_calls_self("linalg.mat_mul"),
    *_calls_self("linalg.rref"),
    ("linalg.kron.self_s", "s"),
    *_calls_self("algebra.mul"),
    *_calls_self("algebra.coproduct"),
    *_calls_self("algebra.antipode"),
    ("algebra.tensor_mul.self_s", "s"),
    ("algebra.coproduct.repeat_ratio", "ratio"),
    *_calls_self("modules.build_simple"),
    *_calls_self("modules.solve_k_seed"),
    *_calls_self("modules.verify_module"),
    ("modules.build_family.calls", "count"),
    ("fusion.tensor.self_s", "s"),
    *_calls_self("fusion.trace_vector"),
    *_calls_self("fusion.decompose"),
    ("fusion.trace_vector.repeat_ratio", "ratio"),
    ("fusion.candidate_simples.calls", "count"),
    ("fusion.candidate_simples.miss_ratio", "ratio"),
    ("fusion.decompose.rank_per_call", "ratio"),
    *_calls_self("grothendieck.verify_relation"),
    *_calls_self("grothendieck.gr_mul"),
    ("grothendieck.fuse_cache.hit_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

# per-layer metric prefix -> the wrapped callables it sums over
LAYER_SOURCES = {
    "cyclo.mul": ("cyclo.CycScalar.__mul__",),
    "cyclo.add": ("cyclo.CycScalar.__add__", "cyclo.CycScalar.__sub__"),
    "cyclo.inv": ("cyclo.CycScalar.inv",),
    "cyclo.embed": ("cyclo.CycScalar.embed",),
    "extfield.mul": ("extfield.ExtScalar.__mul__",),
    "extfield.add": ("extfield.ExtScalar.__add__", "extfield.ExtScalar.__sub__"),
    "extfield.inv": ("extfield.ExtScalar.inv",),
    "extfield.split_roots": ("extfield.split_roots",),
    "linalg.mat_mul": ("linalg.mat_mul",),
    "linalg.rref": ("linalg.rref",),
    "linalg.kron": ("linalg.kron",),
    "algebra.mul": ("algebra.AlgebraParams.mul",),
    "algebra.coproduct": ("algebra.AlgebraParams.coproduct",),
    "algebra.antipode": ("algebra.AlgebraParams.antipode",),
    "algebra.tensor_mul": ("algebra.AlgebraParams.tensor_mul",),
    "modules.build_simple": ("modules.build_simple",),
    "modules.solve_k_seed": ("modules.solve_k_seed",),
    "modules.verify_module": ("modules.verify_module",),
    "modules.build_family": ("modules.build_V0", "modules.build_Vr", "modules.build_VI", "modules.build_VII"),
    "fusion.tensor": ("fusion.tensor",),
    "fusion.trace_vector": ("fusion.trace_vector",),
    "fusion.decompose": ("fusion.decompose",),
    "fusion.candidate_simples": ("fusion.candidate_simples",),
    "grothendieck.verify_relation": ("grothendieck.verify_relation",),
    "grothendieck.gr_mul": ("grothendieck.gr_mul",),
}


class SetupError(RuntimeError):
    pass


def import_library():
    """Import hopfsl2 from this checkout's src/ (and nowhere else) and the workloads."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import hopfsl2

    if Path(hopfsl2.__file__).resolve().parent != (SRC / "hopfsl2").resolve():
        raise ImportError(f"hopfsl2 imported from {hopfsl2.__file__}, not from {SRC}")
    import workloads

    return workloads


# -- host record --------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


# -- set-up -------------------------------------------------------------------------


def setup(args):
    """Import, draw the job list and fill the field tables; returns (workloads, jobs)."""
    workloads = import_library()
    jobs = workloads.jobs_for(args.workload, args.seed)
    workloads.fill_field_tables(jobs)
    return workloads, jobs


def measure_setup(args) -> list[float]:
    """Wall time from spawning a set-up-only child to its ready line, several times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        # leaving the with block waits for the child, also after kill()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                _out, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"set-up child failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        samples.append(t1 - t0)
    return samples


# -- timed phase ----------------------------------------------------------------------


def run_rounds(workloads, jobs, seconds, tracer=None):
    """Whole rounds of the job list, as many as end nearest to `seconds`
    (always at least one round).

    Returns (rounds, wall_s): rounds is a list of per-round lists of
    (job, seconds, serialized result or None, error or None), plus the wall
    time of each round.
    """
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        ctx: dict = {}
        records = []
        gc.collect()  # every round starts from the same heap, outside its wall time
        r0 = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(job.id)
            t0 = time.perf_counter()
            try:
                result = workloads.run_job(job, ctx)
                error = None
            except Exception as exc:  # a failed job is counted, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            text = None
            if error is None:
                try:
                    text = workloads.serialize(job, result)
                    if not workloads.check(job, result):
                        error = "invariant violated"
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            records.append((job, dt, text, error))
        walls.append(time.perf_counter() - r0)
        rounds.append(records)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2 >= seconds:
            return rounds, walls


def count_failures(workloads, rounds_sets, expected):
    """(attempted, failures, first results): every execution is compared with the
    first result of the same job and, when digests are recorded, with its digest."""
    first: dict[str, str] = {}
    failures = []
    attempted = 0
    for rounds in rounds_sets:
        for records in rounds:
            for job, _dt, text, error in records:
                attempted += 1
                if error is None:
                    ref = first.setdefault(job.id, text)
                    if text != ref:
                        error = "result differs from the first round"
                    elif expected is not None and expected.get(job.id) != workloads.job_digest(text):
                        error = "digest differs from the recorded default-seed digest"
                if error is not None:
                    failures.append({"job": job.id, "error": error})
    return attempted, failures, first


def job_times(rounds):
    """Each job's wall times, one per round."""
    times: dict[str, list[float]] = {}
    for records in rounds:
        for job, dt, _text, _error in records:
            times.setdefault(job.id, []).append(dt)
    return times


def median_job_times(rounds):
    """Each job's median wall time across the rounds."""
    return {job_id: statistics.median(ts) for job_id, ts in job_times(rounds).items()}


def tail(values):
    """(value, percentile): the highest order statistic with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} jobs for a tail, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(rounds, walls, attempted, failed, setup_samples):
    per_job = median_job_times(rounds)
    tail_s, tail_pct = tail(per_job.values())
    values = {
        "throughput_jobs_per_s": sum(len(r) for r in rounds) / sum(walls),
        "job_p50_s": statistics.median(per_job.values()),
        "job_tail_s": tail_s,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }
    detail = {"tail_percentile": tail_pct, "jobs_timed": sum(len(r) for r in rounds), "job_kinds": len(per_job)}
    return {name: metric(values[name], unit) for name, unit in END_TO_END}, detail


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, n_rounds, overhead):
    """Per-layer metrics of the traced phase; counts and self times are per round."""
    values = {}
    for prefix, sources in LAYER_SOURCES.items():
        values[f"{prefix}.calls"] = tracer.calls(*sources) / n_rounds
        values[f"{prefix}.self_s"] = tracer.self_s(*sources) / n_rounds
    coproducts = tracer.calls(*LAYER_SOURCES["algebra.coproduct"])
    trace_vectors = tracer.calls(*LAYER_SOURCES["fusion.trace_vector"])
    candidates = tracer.calls(*LAYER_SOURCES["fusion.candidate_simples"])
    decomposes = tracer.calls(*LAYER_SOURCES["fusion.decompose"])
    values["algebra.coproduct.repeat_ratio"] = _ratio(tracer.coproduct_repeats, coproducts)
    values["fusion.trace_vector.repeat_ratio"] = _ratio(tracer.trace_vector_repeats, trace_vectors)
    values["fusion.candidate_simples.miss_ratio"] = _ratio(tracer.candidate_misses, candidates)
    values["fusion.decompose.rank_per_call"] = _ratio(
        tracer.pair_calls("fusion.decompose", "linalg.rank"), decomposes
    )
    fuse_misses = tracer.pair_calls("grothendieck.gr_mul", "fusion.fuse")
    values["grothendieck.fuse_cache.hit_ratio"] = _ratio(tracer.gr_mul_pairs - fuse_misses, tracer.gr_mul_pairs)
    values["trace.overhead_ratio"] = overhead
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}


# -- main ---------------------------------------------------------------------------


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=("axioms", "fusion", "relations"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_expected(workloads, args):
    """Recorded per-job digests, for the default seed only."""
    if args.seed != workloads.DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())[args.workload]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args)
        print("ready", flush=True)
        return 0

    record = host_record()
    try:
        workloads, jobs = setup(args)
    except ImportError as exc:
        print(f"perfbench: cannot import hopfsl2 from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_samples = measure_setup(args)
    expected = load_expected(workloads, args)

    tracer = None
    if args.trace:
        from tracer import Tracer

        reference, ref_walls = run_rounds(workloads, jobs, 0.0)
        tracer = Tracer()
        with tracer:
            rounds, walls = run_rounds(workloads, jobs, args.seconds, tracer)
        attempted, failures, first = count_failures(workloads, [reference, rounds], expected)
        overhead = statistics.mean(walls) / ref_walls[0]
        metrics = per_layer_metrics(tracer, len(rounds), overhead)
        detail = {"untraced_round_s": ref_walls[0]}
    else:
        rounds, walls = run_rounds(workloads, jobs, args.seconds)
        attempted, failures, first = count_failures(workloads, [rounds], expected)
        metrics, detail = end_to_end_metrics(rounds, walls, attempted, len(failures), setup_samples)

    record["loadavg_end"] = list(os.getloadavg())
    correct = not failures
    result = {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    write_record(args, record, result, detail, rounds, walls, setup_samples, first, failures, tracer, workloads)
    print(
        f"perfbench: {args.workload} seed={args.seed} trace={args.trace} rounds={len(rounds)} "
        f"jobs/round={len(jobs)} failed={len(failures)} load={record['loadavg_start'][0]:.2f}"
        f"->{record['loadavg_end'][0]:.2f}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if correct else 1


def write_record(args, record, result, detail, rounds, walls, setup_samples, first, failures, tracer, workloads):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    body = {
        "argv": sys.argv[1:],
        "host": record,
        "result": result,
        "detail": {
            **detail,
            "rounds": len(rounds),
            "round_wall_s": walls,
            "setup_samples_s": setup_samples,
            "round_digest": workloads.round_digest(first),
            "job_times_s": job_times(rounds),
            "failures": failures[:50],
        },
    }
    if tracer is not None:
        spans_path = OUT / f"{stem}-spans.jsonl"
        tracer.write_spans(spans_path)
        body["trace"] = {
            "stats": {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(tracer.stats.items())},
            "pairs": {f"{a} -> {b}": n for (a, b), n in sorted(tracer.pairs.items())},
            "spans_file": spans_path.name,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
        }
    (OUT / f"{stem}.json").write_text(json.dumps(body, indent=1, default=str))


if __name__ == "__main__":
    sys.exit(main())
