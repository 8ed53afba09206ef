#!/usr/bin/env python3
"""Run the end-to-end verification checks and print one line per check.

Same harness as `seqmeter verify all`, exposed as a script so the checks can
be run straight from a working tree.  Exit code 1 when any check fails.

Usage: python scripts/run_checks.py [--scale quick|full] [--seed S]
"""

import argparse
import sys
from pathlib import Path

# run from a checkout without installing: the checkout's src/ comes first
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqmeter.verify import DEFAULT_SEED, run_all


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=["quick", "full"], default="full")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    results = run_all(scale=args.scale, seed=args.seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} checks passed "
          f"(scale={args.scale}, seed={args.seed})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
