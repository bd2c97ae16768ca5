#!/usr/bin/env python3
"""Print the sha256 digests that pin the spectral results over a range of
moduli, one tab-separated line each: name, first d, last d, digest.

`spectral` hashes the `repr` of the list of every `SpectralReport` field
but the residuals, with each root as (value, multiplicity, exact);
`minpoly` hashes the JSON list of mu_M, separators "," and ":".  These
are the recipes of the tier-1 tests `test_spectral_golden_digest` (d =
2..20) and `test_minimal_polynomial_golden_digest` (d = 2..26).  The
default ranges, d = 21..40 and 27..43, take about a minute of CPU, too
long for tier-1; CI compares them with their recorded digests.
"""
import argparse
import hashlib
import json

from sternseq import minimal_polynomial, spectral


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spectral", type=int, nargs=2, default=(21, 40),
                    metavar=("D_MIN", "D_MAX"))
    ap.add_argument("--minpoly", type=int, nargs=2, default=(27, 43),
                    metavar=("D_MIN", "D_MAX"))
    return ap.parse_args(argv)


def spectral_record(d_min: int, d_max: int) -> str:
    records = []
    for d in range(d_min, d_max + 1):
        rep = spectral(d)
        records.append((*rep[:-1], tuple((rv.value, rv.multiplicity,
                                          rv.exact) for rv in rep.roots)))
    return repr(records)


def minpoly_record(d_min: int, d_max: int) -> str:
    return json.dumps([minimal_polynomial(d) for d in range(d_min, d_max + 1)],
                      separators=(",", ":"))


def main(args: argparse.Namespace) -> None:
    for name, record in (("spectral", spectral_record),
                         ("minpoly", minpoly_record)):
        d_min, d_max = getattr(args, name)
        digest = hashlib.sha256(record(d_min, d_max).encode()).hexdigest()
        print(f"{name}\t{d_min}\t{d_max}\t{digest}", flush=True)


if __name__ == "__main__":
    main(parse_args())
