#!/usr/bin/env python3
"""Compare exact prefix sums of t(n) with the compensated float path.

For each N = 2^k the row shows the exact value (as a float), the float
sum, the true error, the a-priori error bound, and the proven bracket
width.  The true error should sit far below the bound.
"""
import argparse

from sternseq import t_prefix_sum


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-min", type=int, default=4)
    ap.add_argument("--k-max", type=int, default=18)
    return ap.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    print("log2_N\texact\tfloat\ttrue_err\terr_bound\tbracket_width")
    for k in range(args.k_min, args.k_max + 1):
        rep = t_prefix_sum(1 << k)
        err = abs(rep.float_sum - float(rep.exact_sum))
        width = float(rep.upper - rep.lower)
        print(f"{k}\t{float(rep.exact_sum):.6f}\t{rep.float_sum:.6f}\t"
              f"{err:.3e}\t{rep.float_error_bound:.3e}\t{width:.3f}")


if __name__ == "__main__":
    main(parse_args())
