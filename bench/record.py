"""Record the reference outputs of every seed-0 market into reference.json.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/record.py

Run it only on a commit whose outputs are known to be right: the benchmark
then holds every later commit to these values on seed 0.  Every workload's
entry is rewritten from the current commit.
"""

from __future__ import annotations

import json
import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

from workloads import WORKLOADS  # noqa: E402
from worker import REFERENCE  # noqa: E402


def main() -> None:
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        reference[name] = [
            workload.solve(workload.make(0, index))[0] for index in range(workload.pool)
        ]
        print(f"{name}: {len(reference[name])} markets", flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    REFERENCE.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
