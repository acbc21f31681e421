"""Rewrite ``references.json``: the output digest of every workload at
the reference seeds, from one regeneration each (``survey-dist`` from
its serial twin, so the reference also pins dist == serial).

Usage, from the root of a checkout: ``python3 wmmbench/record_references.py``.
"""

import json
import shutil
import sys
import time
from types import SimpleNamespace

from run import BENCH_DIR, ROOT, WORKLOADS, spawn

#: The default seed and one held-out seed.
SEEDS = (0, 7)


def main() -> int:
    references = {}
    work = ROOT / ".wmmbench" / "references"
    shutil.rmtree(work, ignore_errors=True)
    for workload in WORKLOADS:
        mode = "twin" if workload == "survey-dist" else "run"
        for seed in SEEDS:
            args = SimpleNamespace(workload=workload, seed=seed)
            result = spawn(mode, args, work / f"{workload}-{seed}",
                           time.monotonic() + 600, None)
            if "digest" not in result:
                print(json.dumps(result, indent=1), file=sys.stderr)
                return 1
            references.setdefault(workload, {})[str(seed)] = result["digest"]
            print(workload, seed, result["digest"])
    (BENCH_DIR / "references.json").write_text(
        json.dumps(references, indent=2, sort_keys=True) + "\n"
    )
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
