#!/usr/bin/env python3
"""Tabulate the walk-graph spectrum for a range of moduli.

For each d the row reports the pair count N_d, the degree of the
minimal polynomial, the dominating non-2 root modulus rho_d, the decay
exponent tau_d, the multiplicity bump sigma_d, and the wall time of
`spectral(d)` in seconds.  Rows are flushed as they finish, so a long
run shows its progress.  Moduli whose pair systems coincide (same
I(d)) are easy to spot this way.
"""
import argparse
import time

from sternseq import graph, index_I, spectral


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d-min", type=int, default=2)
    ap.add_argument("--d-max", type=int, default=12)
    return ap.parse_args(argv)


def main(args: argparse.Namespace) -> None:
    print("d\tN_d\tI_d\tdeg\trho\ttau\tsigma\twall_s", flush=True)
    for d in range(args.d_min, args.d_max + 1):
        start = time.perf_counter()
        rep = spectral(d)
        wall = time.perf_counter() - start
        print(f"{d}\t{len(graph(d).vertices)}\t{index_I(d)}\t"
              f"{len(rep.minimal_poly) - 1}\t{rep.rho:.12f}\t"
              f"{rep.tau:.12f}\t{rep.sigma}\t{wall:.3f}", flush=True)


if __name__ == "__main__":
    main(parse_args())
