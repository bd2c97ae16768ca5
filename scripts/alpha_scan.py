#!/usr/bin/env python3
"""Watch the empirical lag means alpha_t drift as N grows.

Prints one row per (t, N) with N running over powers of two.  The t=1
column should settle near 3/2; the others have no proven limit, which
is exactly why the drift is worth staring at.
"""
import argparse
from dataclasses import dataclass

from sternseq import alpha_estimate


@dataclass(frozen=True)
class Config:
    lags: tuple = (1, 2, 3, 4)
    k_min: int = 10
    k_max: int = 20


def parse_args(argv=None) -> Config:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lags", type=int, nargs="+", default=list(Config.lags))
    ap.add_argument("--k-min", type=int, default=Config.k_min)
    ap.add_argument("--k-max", type=int, default=Config.k_max,
                    help="largest exponent: N runs to 2^k_max")
    ns = ap.parse_args(argv)
    return Config(tuple(ns.lags), ns.k_min, ns.k_max)


def main(cfg: Config) -> None:
    print("t\tlog2_N\talpha")
    for t in cfg.lags:
        for k in range(cfg.k_min, cfg.k_max + 1):
            a = alpha_estimate(t, 1 << k)
            print(f"{t}\t{k}\t{a:.9f}")


if __name__ == "__main__":
    main(parse_args())
