#!/usr/bin/env python3
"""sha256 digests of the benchmark's check set: the first 6 `solve`
answers of klein_rank8, cyclic12_rank4, equivalence and splitting_oracle
at seeds 1 and 2, 48 answers in all.

A change that should not alter any answer must print the same digests
as its parent; `scripts/answer_digests.txt` holds them, and a change
that alters answers on purpose updates that file.  Each answer is also
judged by its workload's own check, and the script exits 1 if any check
fails, or, with --check FILE, if any printed line differs from FILE.
Runs on the checkout it lives in, whatever PYTHONPATH says:

    python3 scripts/answer_digest.py [--check scripts/answer_digests.txt]
"""

import argparse
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="exit 1 unless the digests equal those in FILE")
    args = parser.parse_args()
    combined = hashlib.sha256()
    failed = 0
    lines = []
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
        lines.append(f"{name:17} {h.hexdigest()}")
    lines.append(f"{'combined':17} {combined.hexdigest()}")
    print("\n".join(lines))
    if failed:
        print(f"{failed} answers failed their check", file=sys.stderr)
    mismatch = bool(args.check) and \
        Path(args.check).read_text(encoding="utf-8").splitlines() != lines
    if mismatch:
        print(f"digests differ from {args.check}", file=sys.stderr)
    return 1 if failed or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
