"""Walk through one jointly private linear computation, end to end.

Two servers each hold the same K=3 streams of length 8 over GF(3). The user
wants the combination X_1 + 2*X_3 without either server learning which
streams participate or with which coefficients. Run with --seed to vary the
draws; every printed matrix comes from the live objects.
"""

import argparse
import random

from plclab import (
    Demand,
    PrimeField,
    VectorGF,
    jplc_capacity,
    random_dataset,
    run_jplc,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--servers", type=int, default=2)
    args = ap.parse_args()

    field = PrimeField(3)
    rng = random.Random(args.seed)
    dataset = random_dataset(field, 3, 8, rng)
    demand = Demand((1, 3), VectorGF([1, 2], field))

    print(f"dataset: 3 streams of length 8 over GF(3), seed {args.seed}")
    print(f"demand:  support {demand.indices}, coefficients "
          f"{demand.coefficients.entries}")

    run = run_jplc(args.servers, dataset, demand, rng, verify=True)
    enc = run.encoder

    print("\ngenerator rows (one per coded stream):")
    for row in enc.generator.rows:
        print(f"  {row}")
    print("every size-2 support appears in the combination list:")
    for s, c in zip(enc.supports, enc.combination_vectors):
        marker = "  <- demanded" if s == demand.indices else ""
        print(f"  support {s}: combination {c.entries}{marker}")
    print(f"the demanded row sits at slot {enc.demand_index} of "
          f"{len(enc.supports)}; a fresh run lands it elsewhere")

    print("\nper-server query shapes (sums per round):")
    for n, blocks in enumerate(run.descriptor.per_server, 1):
        print(f"  server {n}: {[len(b) for b in blocks]}")

    rep = run.report
    print(f"\ndownloaded {rep.downloaded_symbols} symbols for 8 recovered")
    print(f"rate {rep.rate} vs capacity "
          f"{jplc_capacity(args.servers, 3, 2)} -> "
          f"{'achieved' if rep.achieves_capacity else 'below'}")
    want = demand.evaluate(dataset).entries
    print(f"recovered == X_1 + 2*X_3: {tuple(run.recovered) == want}")


if __name__ == "__main__":
    main()
