#!/usr/bin/env python3
"""Print the family threshold table and flag rows whose claimed cap disagrees.

For each sequence family and degree this evaluates the exact sphere-packing
threshold (smallest order cap guaranteeing a full periodic correlation peak)
and compares it against the claimed column shipped with the family data.

Usage: python scripts/reproduce_table1.py [--ell-max 20] [--csv]
"""

import argparse
import csv
import sys
from pathlib import Path

# run from a checkout without installing: the checkout's src/ comes first
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seqmeter.bounds import table1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ell-max", type=int, default=20)
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    args = ap.parse_args()

    rows = table1(args.ell_max)
    if args.csv:
        writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    else:
        fmt = "{:<14} {:>4} {:>9} {:>5} {:>10} {:>9}  {}"
        print(fmt.format("family", "ell", "period", "dim", "threshold", "claimed", ""))
        for r in rows:
            note = "" if r["matches"] else "<- differs"
            claimed = r["claimed"]
            if isinstance(claimed, float):
                claimed = f"{claimed:.2f}"
            print(fmt.format(r["family"], r["ell"], r["period"], r["dimension"],
                             r["threshold"], claimed, note))

    mismatched = sorted({r["family"] for r in rows if not r["matches"]})
    if mismatched:
        print(f"\nfamilies with a differing claimed column: {', '.join(mismatched)}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
