"""Shared protocol types and exact capacity formulas.

Rates and capacities are kept as exact rationals (fractions.Fraction) so the
rate-matches-capacity checks in the test suite can compare for equality
instead of within a tolerance.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF

Rational = Fraction


class Dataset:
    """K data streams of T symbols each, replicated at every server."""

    __slots__ = ("field", "x", "num_streams", "stream_length")

    def __init__(self, x: MatrixGF):
        object.__setattr__(self, "field", x.field)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "num_streams", x.nrows)
        object.__setattr__(self, "stream_length", x.ncols)
        if x.nrows < 1 or x.ncols < 1:
            raise ValueError("dataset needs at least one stream and one symbol")

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def stream(self, k: int) -> VectorGF:
        """Stream k, 1-based."""
        return self.x.row(k)

    def __repr__(self):
        return (
            f"Dataset(K={self.num_streams}, T={self.stream_length}, "
            f"GF({self.field.q}))"
        )


def random_dataset(
    field: PrimeField, num_streams: int, stream_length: int, rng: random.Random
) -> Dataset:
    rows = [
        rng.choices(range(field.q), k=stream_length) for _ in range(num_streams)
    ]
    return Dataset(MatrixGF(rows, field))


class Demand:
    """A linear demand: indices W (distinct, stored sorted) and nonzero
    coefficients V, permuted together so that W is ascending."""

    __slots__ = ("indices", "coefficients", "field")

    def __init__(self, indices: Sequence[int], coefficients: VectorGF):
        w = tuple(indices)
        if len(w) != len(coefficients):
            raise ValueError("index and coefficient counts differ")
        if len(w) == 0:
            raise ValueError("demand must touch at least one stream")
        if len(set(w)) != len(w):
            raise ValueError("demand indices must be distinct")
        if any(i < 1 for i in w):
            raise ValueError("demand indices are 1-based")
        if any(v == 0 for v in coefficients.entries):
            raise ValueError("demand coefficients must be nonzero")
        order = sorted(range(len(w)), key=lambda i: w[i])
        object.__setattr__(self, "indices", tuple(w[i] for i in order))
        object.__setattr__(
            self,
            "coefficients",
            VectorGF([coefficients.entries[i] for i in order], coefficients.field),
        )
        object.__setattr__(self, "field", coefficients.field)

    def __setattr__(self, name, value):
        raise AttributeError("Demand is immutable")

    @property
    def size(self) -> int:
        return len(self.indices)

    def evaluate(self, dataset: Dataset) -> VectorGF:
        """The demanded stream V . X_W, computed directly."""
        q = self.field.q
        t = dataset.stream_length
        out = [0] * t
        for v, k in zip(self.coefficients.entries, self.indices):
            row = dataset.x.rows[k - 1]
            for j in range(t):
                out[j] = (out[j] + v * row[j]) % q
        return VectorGF(out, self.field)

    def __eq__(self, other):
        if isinstance(other, Demand):
            return (
                self.indices == other.indices
                and self.coefficients == other.coefficients
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.indices, self.coefficients))

    def __repr__(self):
        return f"Demand(W={list(self.indices)}, V={list(self.coefficients.entries)})"


def random_demand(
    field: PrimeField, num_streams: int, size: int, rng: random.Random
) -> Demand:
    w = sorted(rng.sample(range(1, num_streams + 1), size))
    v = [field.rand_nonzero_int(rng) for _ in range(size)]
    return Demand(w, VectorGF(v, field))


@dataclass(frozen=True)
class RateReport:
    """Download accounting for one protocol run."""

    stream_length: int
    field_order: int
    downloaded_symbols: int
    rate: Rational
    capacity: Rational

    @property
    def downloaded_bits(self) -> float:
        return self.downloaded_symbols * math.log2(self.field_order)

    @property
    def achieves_capacity(self) -> bool:
        return self.rate == self.capacity

    def __str__(self):
        return (
            f"T={self.stream_length} downloaded={self.downloaded_symbols} "
            f"rate={self.rate} capacity={self.capacity}"
        )


def _inverse_geometric_sum(n: int, top: int) -> Rational:
    """1 / (sum_{i=0}^{top} n^-i), which also covers n = 1."""
    if n < 1:
        raise ValueError("server count must be at least 1")
    if top < 0:
        raise ValueError("exponent range must be nonnegative")
    total = sum(Fraction(1, n**i) for i in range(top + 1))
    return 1 / total


def jplc_capacity(num_servers: int, num_streams: int, demand_size: int) -> Rational:
    """Highest achievable rate when the whole demand pair (W, V) is hidden."""
    if not 1 <= demand_size <= num_streams:
        raise ValueError("demand size must lie in [1, K]")
    return _inverse_geometric_sum(num_servers, num_streams - demand_size)


def iplc_capacity(num_servers: int, num_streams: int, demand_size: int) -> Rational:
    """Highest achievable rate when each index's membership is hidden.

    Defined here for demand sizes D with K mod D either zero or a divisor of
    D; other shapes fall outside the partition construction this package
    implements and raise ValueError.
    """
    if not 1 <= demand_size <= num_streams:
        raise ValueError("demand size must lie in [1, K]")
    remainder = num_streams % demand_size
    if remainder != 0 and demand_size % remainder != 0:
        raise ValueError(
            f"no supported code shape for K={num_streams}, D={demand_size}: "
            f"K mod D = {remainder} must be 0 or divide D"
        )
    top = math.ceil(num_streams / demand_size) - 1
    return _inverse_geometric_sum(num_servers, top)


def jplt_bounds(
    num_servers: int, num_streams: int, demand_size: int, num_candidates: int
) -> Tuple[Optional[Rational], Rational]:
    """Capacity bounds when the demand is known to lie in a public list of
    num_candidates linearly independent combinations.

    Returns (upper, lower). The upper bound is only available when the list
    size divides K - D; otherwise it is None.
    """
    if not 1 <= demand_size <= num_streams:
        raise ValueError("demand size must lie in [1, K]")
    if num_candidates < 1:
        raise ValueError("candidate list must be nonempty")
    slack = num_streams - demand_size
    upper = None
    if slack % num_candidates == 0:
        upper = _inverse_geometric_sum(num_servers, slack // num_candidates)
    lower = _inverse_geometric_sum(
        num_servers, slack + num_candidates - 1
    )
    return upper, lower


def plc_capacity_full_support_family(num_servers: int, num_streams: int) -> Rational:
    """Capacity for computing one combination drawn from the family of
    full-support coefficient vectors (the hardest closed demand family)."""
    if num_streams < 1:
        raise ValueError("need at least one stream")
    return _inverse_geometric_sum(num_servers, num_streams - 1)
