"""Regenerate reference.json, the stored results the correctness gate compares with.

    python3 bench/make_reference.py

For every workload it runs one operation at run.REFERENCE_SEED, at the
workload's benchmark reps and at its test reps, and stores each CLI call's
result file.  Regenerate only when a change to the results is intended.
"""

import json
import shutil
import sys

import run
from workloads import TEST_REPS, WORKLOADS


def main() -> int:
    cli = run.import_bcreg()
    reference = {}
    for workload in WORKLOADS.values():
        work = run.OUT / f"reference-{workload.name}"
        work.mkdir(parents=True, exist_ok=True)
        workload.make_inputs(run.REFERENCE_SEED, work)
        reference[workload.name] = {}
        for reps in sorted({workload.reps, TEST_REPS[workload.name]}):
            payloads = []
            for argv in workload.calls(run.REFERENCE_SEED, work, reps):
                _, data, failure = run.run_call(cli, argv, work / "out.json")
                if failure:
                    print(f"{workload.name}: {argv} failed: {failure}", file=sys.stderr)
                    return 1
                payloads.append(json.loads(data))
            reference[workload.name][str(reps)] = payloads
        shutil.rmtree(work)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
