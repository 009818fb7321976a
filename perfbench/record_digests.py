#!/usr/bin/env python3
"""Record the per-job result digests of the default seed in perfbench/digests.json.

    python3 perfbench/record_digests.py [workload ...]

Runs one untimed round of each named workload (all three by default) and
stores sha256 prefixes of each job's canonical result.  run.py compares
every default-seed run against them, so re-record only when a change is
meant to alter results.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    workloads = run.import_library()
    names = argv or list(workloads.WORKLOADS)
    data = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for name in names:
        jobs = workloads.jobs_for(name, workloads.DEFAULT_SEED)
        rounds, _walls = run.run_rounds(workloads, jobs, 0.0)
        bad = [(job.id, error) for job, _dt, _text, error in rounds[0] if error is not None]
        if bad:
            print(f"{name}: not recorded, failing jobs: {bad}", file=sys.stderr)
            return 1
        data[name] = {job.id: workloads.job_digest(text) for job, _dt, text, _e in rounds[0]}
        print(f"{name}: {len(jobs)} digests", file=sys.stderr)
    run.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
