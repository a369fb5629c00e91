#!/usr/bin/env python3
"""The non-collapsing gap, exactly, across a sweep of (n, r, k) shapes.

For each parameter triple the distinguisher accepts a partially measured key
state with probability 1 and a fully measured one with probability 2^-(n-r);
this script prints both numbers from the exact statevector simulation.
"""

import argparse

from ossprim import oss, qsim
from ossprim.oss import OssParams


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", default="0e")
    ap.add_argument("--shapes", default="4,2,4;6,3,6;6,2,6;5,2,5",
                    help="semicolon-separated n,r,k triples")
    args = ap.parse_args()

    from ossprim.prng import key_from_hex

    seed = key_from_hex(args.seed).seed
    print(f"{'(n,r,k)':>10} {'partial':>12} {'full':>12} {'2^-(n-r)':>10}")
    for shape in args.shapes.split(";"):
        n, r, k = (int(v) for v in shape.split(","))
        inst = oss.oss_gen(OssParams.tiny(n, r, k), seed)
        partial = qsim.noncollapsing_experiment(inst, "partial")
        full = qsim.noncollapsing_experiment(inst, "full")
        print(f"{shape:>10} {partial:>12.9f} {full:>12.9f} {2.0 ** -(n - r):>10.6f}")


if __name__ == "__main__":
    main()
