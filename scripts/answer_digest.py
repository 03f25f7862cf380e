#!/usr/bin/env python3
"""sha256 digests of the benchmark's check set: the first 6 `solve`
answers of klein_rank8, cyclic12_rank4, equivalence and splitting_oracle
at seeds 1 and 2, 48 answers in all.

A change that should not alter any answer must print the same digests
as its parent.  Each answer is also judged by its workload's own check,
and the script exits 1 if any check fails.  Runs on the checkout it
lives in, whatever PYTHONPATH says:

    python3 scripts/answer_digest.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, generate  # noqa: E402

NAMES = ("klein_rank8", "cyclic12_rank4", "equivalence", "splitting_oracle")
SEEDS = (1, 2)
CASES = 6


def main():
    combined = hashlib.sha256()
    failed = 0
    for name in NAMES:
        workload = WORKLOADS[name]
        h = hashlib.sha256()
        for seed in SEEDS:
            for case in generate(workload, seed, CASES):
                answer, context = workload.solve(case)
                failed += not workload.check(case, answer, context)
                h.update(answer.encode("utf-8"))
                h.update(b"\0")
        combined.update(h.digest())
        print(f"{name:17} {h.hexdigest()}")
    print(f"{'combined':17} {combined.hexdigest()}")
    if failed:
        print(f"{failed} answers failed their check", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
