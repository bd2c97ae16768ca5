#!/usr/bin/env python3
"""Compare exact prefix sums of t(n) with the compensated float path.

At N = 2^k the float sum is the rounded closed form, so its error says
nothing; each k therefore takes N = 2^k + delta on both sides of the
row's middle, delta = 2^(k-1) - 1 and 2^(k-1) + 1, where the float path
sums the most ratios of row k.  The row shows the exact value (as a
float), the float sum, the true error |float - exact| (exact, then
rounded), the a-priori error bound, and the proven bracket width.  The
true error should sit far below the bound.
"""
import argparse
from fractions import Fraction

from sternseq import t_prefix_sum


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-min", type=int, default=4)
    ap.add_argument("--k-max", type=int, default=18)
    return ap.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    print("log2_N\tdelta\texact\tfloat\ttrue_err\terr_bound\tbracket_width")
    for k in range(max(args.k_min, 1), args.k_max + 1):
        for delta in ((1 << k - 1) - 1, (1 << k - 1) + 1):
            rep = t_prefix_sum((1 << k) + delta)
            err = float(abs(Fraction(rep.float_sum) - rep.exact_sum))
            width = float(rep.upper - rep.lower)
            print(f"{k}\t{delta}\t{float(rep.exact_sum):.6f}\t"
                  f"{rep.float_sum:.6f}\t{err:.3e}\t"
                  f"{rep.float_error_bound:.3e}\t{width:.3f}")


if __name__ == "__main__":
    main(parse_args())
