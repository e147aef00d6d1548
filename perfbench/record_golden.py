"""Record golden.json: every workload's outputs for suite seeds 0..SUITE_SEEDS-1.

Run on the commit whose outputs are the reference, from the repository root:

    python3 perfbench/record_golden.py

A change that moves the numbers on purpose re-records the file and says which
outputs moved and why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import GOLDEN, OUT_DIR, use_source_tree


def main() -> int:
    use_source_tree()
    import workloads

    golden = {}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="golden-") as tmp:
        for name, workload in workloads.WORKLOADS.items():
            golden[name] = {}
            for suite_seed in range(workloads.SUITE_SEEDS):
                ops = workload.suite_ops(suite_seed, Path(tmp) / name / str(suite_seed))
                for op in ops:
                    golden[name].setdefault(op.key[0], {})[op.key[1]] = op.result(op.run())
                print(f"{name} suite seed {suite_seed}: {len(ops)} outputs", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
