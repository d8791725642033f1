"""Rewrite references.json: the first pass of every workload at the default
seed, as (experiment, trial, lhs, rhs) rows.

    python3 benchmarks/make_references.py

Run it only when a change of the package is meant to change reported values,
and say so in the change.
"""

import json

import worker
import workloads


def main():
    workloads.ContextCache(worker.experiments).patch.apply()
    refs = {}
    for name, workload in workloads.WORKLOADS.items():
        records = workload.run_pass(worker.experiments, workloads.DEFAULT_SEED)
        refs[name] = workloads.reference_rows(records)
    blocks = [f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
              for name, rows in refs.items()]
    workloads.REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
