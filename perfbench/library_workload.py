"""Library workload: enumerate the stars on a ring, verify every one with the
exhaustive unit sweep, then build the residue star family on a base ring.

    python3 perfbench/library_workload.py --gens 4,5,6,7 --residue-gens 4,5,7 --q 3 --seed 1

The seed shuffles the order in which the stars are verified; it never
reaches the output. Stdout is one JSON document that depends only on the
inputs, so the benchmark can pin its sha256. An InvariantError from the
engine propagates and exits non-zero.
"""

import argparse
import json
import random
import sys

from starlab.kunz_lab import ring_model_for, residue_star_family
from starlab.star_engine import enumerate_stars, verify_star_axioms


def run(gens, residue_gens, q, seed):
    stars = enumerate_stars(ring_model_for(gens, q))
    order = list(range(len(stars)))
    random.Random(seed).shuffle(order)
    for i in order:
        verify_star_axioms(stars[i], full_unit_sweep=True)
    ops = residue_star_family(ring_model_for(residue_gens, q))
    return {
        "generators": list(gens),
        "q": q,
        "star_count": len(stars),
        "stars_verified": len(order),
        "residue_generators": list(residue_gens),
        "residue_operations": len(ops),
        "residue_families": sorted(list(op.key()) for op in ops),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--gens", required=True)
    parser.add_argument("--residue-gens", required=True)
    parser.add_argument("--q", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    gens = tuple(int(x) for x in args.gens.split(","))
    residue_gens = tuple(int(x) for x in args.residue_gens.split(","))
    result = run(gens, residue_gens, args.q, args.seed)
    sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
