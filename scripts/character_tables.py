#!/usr/bin/env python3
"""Print small character tables for both families.

Each row shows the shape, the character in canonical text form, and its
dimension-style evaluation at the all-ones point.

Examples:
    python scripts/character_tables.py --n 2 --m 0 --max-weight 4
    python scripts/character_tables.py --family o --n 1 --m 1
"""

import argparse
import sys

from spochar.characters import universal
from spochar.partitions import enumerate_partitions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=("sp", "o", "both"), default="both")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--max-weight", type=int, default=4)
    args = ap.parse_args()

    fams = ["sp", "o"] if args.family == "both" else [args.family]

    shapes = list(enumerate_partitions(args.n + args.m, args.max_weight))
    for family in fams:
        print(f"family {family}, n={args.n}, m={args.m}")
        for lam in shapes:
            c = universal(family, lam, args.n, args.m)
            dim = c.evaluate({v: 1 for v in c.variables()})
            label = ",".join(map(str, lam.parts)) or "-"
            print(f"  ({label:<8})  dim {str(dim):>6}   {c.text()}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
