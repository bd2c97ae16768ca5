#!/usr/bin/env python3
"""Watch the empirical lag means alpha_t drift as N grows.

Prints one row per (t, N) with N running over powers of two.  The t=1
column should settle near 3/2; the others have no proven limit, which
is exactly why the drift is worth staring at.
"""
import argparse

from sternseq import alpha_estimate


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lags", type=int, nargs="+", default=[1, 2, 3, 4])
    ap.add_argument("--k-min", type=int, default=10)
    ap.add_argument("--k-max", type=int, default=20,
                    help="largest exponent: N runs to 2^k_max")
    return ap.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    print("t\tlog2_N\talpha")
    for t in args.lags:
        for k in range(args.k_min, args.k_max + 1):
            a = alpha_estimate(t, 1 << k)
            print(f"{t}\t{k}\t{a:.9f}")


if __name__ == "__main__":
    main(parse_args())
