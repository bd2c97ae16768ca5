#!/usr/bin/env python3
"""Track the running gap T(N;5,1) - T(N;5,4) and its record values.

The gap is conjectured to stay in a narrow band.  This scan prints a
row every time a new minimum or maximum is reached, then a summary.
"""
import argparse

from sternseq import stern_table


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--log2-n", type=int, default=19)
    ap.add_argument("--residue-hi", type=int, default=1)
    ap.add_argument("--residue-lo", type=int, default=4)
    return ap.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    limit = 1 << args.log2_n
    table = stern_table(limit, mod=5)
    hi_count = lo_count = 0
    best_min = best_max = 0
    print("event\tN\tgap")
    for n in range(limit):
        v = table[n]
        if v == args.residue_hi:
            hi_count += 1
        elif v == args.residue_lo:
            lo_count += 1
        gap = hi_count - lo_count
        if gap < best_min:
            best_min = gap
            print(f"new_min\t{n + 1}\t{gap}")
        elif gap > best_max:
            best_max = gap
            print(f"new_max\t{n + 1}\t{gap}")
    print(f"summary\t{limit}\t[{best_min}, {best_max}]")


if __name__ == "__main__":
    main(parse_args())
