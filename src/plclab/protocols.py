"""End-to-end protocol runs: encoder, engine, recovery, accounting.

These helpers wire an encoder output into the retrieval engine, push a
dataset through it, and return everything a caller could want to inspect.
The recovered stream is rescaled by the demand's leading coefficient v_1,
undoing the leading-one normalisation the encoders apply to every coded
combination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import List

from .gflinalg import MatrixGF, vec_mat
from .iplc_encoder import IplcEncoderOutput, build_partition_matrix, partition_shape
from .jplc_encoder import JplcEncoderOutput, build_grs_matrix
from .plc_engine import (
    AnswerSet,
    PlcInstance,
    PlcRandomness,
    QueryDescriptor,
    answer_queries,
    download_report,
    generate_queries,
    random_plc_randomness,
    reconstruct,
)
from .protocol_core import (
    Dataset,
    Demand,
    RateReport,
    iplc_capacity,
    jplc_capacity,
)


class InvariantViolation(AssertionError):
    """A protocol self-check failed; the transcript cannot be trusted."""


@dataclass(frozen=True)
class PlcRunResult:
    encoder: object
    instance: PlcInstance
    randomness: PlcRandomness
    descriptor: QueryDescriptor
    answers: AnswerSet
    recovered: List[int]
    report: RateReport


def coded_family_streams(generator, combination_vectors, dataset: Dataset) -> List[List[int]]:
    """All M streams Z_k = C_k . G . X, exact over GF(q) for every q.

    Z_k sums U_k[i] * X_i over the support of U_k = C_k . G, in Python ints.
    """
    q = dataset.field.q
    out = []
    for cv in combination_vectors:
        z = [0] * dataset.stream_length
        for c, x_row in zip(vec_mat(cv, generator).entries, dataset.x.rows):
            if c:
                z = [a + c * x for a, x in zip(z, x_row)]
        out.append([a % q for a in z])
    return out


def _run_engine(
    encoder,
    dataset: Dataset,
    num_servers: int,
    rng: random.Random,
    capacity,
    verify: bool,
) -> PlcRunResult:
    field = dataset.field
    t_len = dataset.stream_length
    stack = MatrixGF([cv.entries for cv in encoder.combination_vectors], field)
    instance = PlcInstance(
        num_servers=num_servers,
        combination_matrix=stack,
        demand_index=encoder.demand_index,
        stream_length=t_len,
    )
    randomness = random_plc_randomness(t_len, rng)
    descriptor = generate_queries(instance, randomness)
    streams = coded_family_streams(
        encoder.generator, encoder.combination_vectors, dataset
    )
    answers = answer_queries(descriptor, streams)
    normalised = reconstruct(descriptor, answers, instance, randomness)
    v1 = encoder.demand.coefficients.entries[0]
    recovered = [(v1 * z) % field.q for z in normalised]
    if verify:
        expected = encoder.demand.evaluate(dataset).entries
        if tuple(recovered) != expected:
            raise InvariantViolation("recovered stream differs from the demand")
    report = download_report(descriptor, capacity)
    return PlcRunResult(
        encoder=encoder,
        instance=instance,
        randomness=randomness,
        descriptor=descriptor,
        answers=answers,
        recovered=recovered,
        report=report,
    )


def run_jplc(
    num_servers: int,
    dataset: Dataset,
    demand: Demand,
    rng: random.Random,
    verify: bool = False,
) -> PlcRunResult:
    """One joint-privacy run over a replicated dataset."""
    encoder: JplcEncoderOutput = build_grs_matrix(
        num_servers, demand, dataset.num_streams, dataset.field, rng
    )
    capacity = jplc_capacity(num_servers, dataset.num_streams, demand.size)
    return _run_engine(
        encoder, dataset, num_servers, rng, capacity, verify
    )


def run_iplc(
    num_servers: int,
    dataset: Dataset,
    demand: Demand,
    rng: random.Random,
    verify: bool = False,
) -> PlcRunResult:
    """One individual-privacy run over a replicated dataset."""
    encoder: IplcEncoderOutput = build_partition_matrix(
        demand, dataset.num_streams, dataset.field, rng
    )
    capacity = iplc_capacity(num_servers, dataset.num_streams, demand.size)
    return _run_engine(
        encoder, dataset, num_servers, rng, capacity, verify
    )


def family_size(protocol: str, num_streams: int, demand_size: int) -> int:
    """Number of coded streams M the engine will see for given parameters."""
    if protocol == "jplc":
        if not 1 <= demand_size <= num_streams:
            raise ValueError("demand size must lie in [1, K]")
        return comb(num_streams, demand_size)
    if protocol == "iplc":
        _, n, m = partition_shape(num_streams, demand_size)
        return n + m
    raise ValueError(f"unknown protocol {protocol!r}")


# The largest N^M a run may ask for: each stream holds N^M symbols and the
# engine's tables grow with 2^M.
_MAX_STREAM_LENGTH = 2**16


def minimum_stream_length(
    protocol: str, num_servers: int, num_streams: int, demand_size: int
) -> int:
    """Smallest T the engine accepts: one repetition, N^M.

    Raises ValueError when |N|^M exceeds _MAX_STREAM_LENGTH, without forming
    it when M alone shows that: |N| >= 2 gives |N|^M >= 2^M.
    """
    m = family_size(protocol, num_streams, demand_size)
    base = abs(num_servers)
    if base > 1 and m >= _MAX_STREAM_LENGTH.bit_length() or base**m > _MAX_STREAM_LENGTH:
        raise ValueError(
            f"stream length N^M = {num_servers}^{m} exceeds {_MAX_STREAM_LENGTH}; "
            "shrink the parameters"
        )
    return num_servers**m
