"""Retrieval with side information, reduced to private linear computation.

A user who already holds M of the K streams and wants stream i* can ask for
a random nonzero combination of {i*} union the side set instead of asking
for i* alone, then subtract what it knows. Which protocol hides what differs:

* routing through the joint-privacy protocol hides i* and the side set
  together (server-side, the demand pair is uniform);
* routing through the individual-privacy protocol hides i* alone, which is
  enough when the side set is not secret.

Both reductions inherit the underlying protocol's download rate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .ffield import PrimeField
from .gflinalg import VectorGF
from .protocol_core import Dataset, Demand, RateReport
from .protocols import PlcRunResult, run_iplc, run_jplc


@dataclass(frozen=True)
class SideInfoInstance:
    """A retrieval problem: fetch target_index given the side streams.

    side_values are the user's local copies, indexed like side_indices.
    """

    target_index: int
    side_indices: Tuple[int, ...]
    side_values: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.target_index in self.side_indices:
            raise ValueError("target is already side information")
        if tuple(sorted(self.side_indices)) != self.side_indices:
            raise ValueError("side indices must be sorted")
        if len(set(self.side_indices)) != len(self.side_indices):
            raise ValueError("side indices must be distinct")
        if len(self.side_values) != len(self.side_indices):
            raise ValueError("one value row per side index")


def random_side_info_instance(
    dataset: Dataset, num_side: int, rng: random.Random
) -> SideInfoInstance:
    """Uniform side set, then a uniform target outside it."""
    k = dataset.num_streams
    if not 0 <= num_side <= k - 1:
        raise ValueError("side set must leave at least one stream to fetch")
    side = tuple(sorted(rng.sample(range(1, k + 1), num_side)))
    rest = [i for i in range(1, k + 1) if i not in side]
    target = rng.choice(rest)
    values = tuple(tuple(dataset.x.rows[i - 1]) for i in side)
    return SideInfoInstance(target, side, values)


@dataclass(frozen=True)
class ReductionResult:
    recovered: List[int]
    report: RateReport
    demand: Demand
    run: PlcRunResult


def _coded_demand(
    instance: SideInfoInstance, field: PrimeField, rng: random.Random
) -> Demand:
    w = tuple(sorted(instance.side_indices + (instance.target_index,)))
    v = [field.rand_nonzero_int(rng) for _ in w]
    return Demand(w, VectorGF(v, field))


def _peel_side_info(
    instance: SideInfoInstance, demand: Demand, combined: List[int], field: PrimeField
) -> List[int]:
    """Subtract the known side streams and divide off the target coefficient."""
    q = field.q
    coeff_of = dict(zip(demand.indices, demand.coefficients.entries))
    residue = list(combined)
    for idx, row in zip(instance.side_indices, instance.side_values):
        c = coeff_of[idx]
        for p, x in enumerate(row):
            residue[p] = (residue[p] - c * x) % q
    inv_target = field.inv(coeff_of[instance.target_index])
    return [(inv_target * x) % q for x in residue]


def solve_pir_psi_via_jplc(
    num_servers: int,
    dataset: Dataset,
    instance: SideInfoInstance,
    rng: random.Random,
) -> ReductionResult:
    """Fetch the target while hiding the target and side set jointly."""
    demand = _coded_demand(instance, dataset.field, rng)
    run = run_jplc(num_servers, dataset, demand, rng)
    recovered = _peel_side_info(instance, demand, run.recovered, dataset.field)
    return ReductionResult(recovered, run.report, demand, run)


def solve_pir_si_via_iplc(
    num_servers: int,
    dataset: Dataset,
    instance: SideInfoInstance,
    rng: random.Random,
) -> ReductionResult:
    """Fetch the target while hiding the target index only."""
    demand = _coded_demand(instance, dataset.field, rng)
    run = run_iplc(num_servers, dataset, demand, rng)
    recovered = _peel_side_info(instance, demand, run.recovered, dataset.field)
    return ReductionResult(recovered, run.report, demand, run)
