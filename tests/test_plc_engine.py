import dataclasses
import random
from itertools import combinations
from math import comb

import pytest

from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF
from plclab.plc_engine import (
    PlcInstance,
    PlcRandomness,
    answer_queries,
    download_report,
    expected_download,
    generate_queries,
    identity_plc_randomness,
    random_plc_randomness,
    reconstruct,
)

F3 = PrimeField(3)

# Combination stacks of the two worked examples. The first stack fetches
# stream 2 out of three; the second fetches stream 4 out of four.
STACK_A = [[1, 2], [1, 1], [0, 1]]
STACK_B = [[2, 0, 0], [0, 0, 2], [0, 2, 1], [0, 2, 2]]

# Canonical query tables under identity randomisation, transcribed from the
# worked examples. Terms are (stream, position, coefficient) with -1 = 2 in
# GF(3); each sum is scaled to make its first coefficient +1.
TABLE_A = (
    (  # server 1
        (((1, 1, 1),), ((2, 1, 1),)),
        (
            ((1, 2, 1), (2, 3, 2)),
            ((1, 4, 1), (3, 3, 2)),
            ((2, 4, 1), (3, 2, 2)),
        ),
        (((1, 6, 1), (2, 7, 1), (3, 5, 2)),),
    ),
    (  # server 2
        (((1, 2, 1),), ((2, 2, 1),)),
        (
            ((1, 1, 1), (2, 5, 2)),
            ((1, 6, 1), (3, 5, 2)),
            ((2, 6, 1), (3, 1, 2)),
        ),
        (((1, 4, 1), (2, 8, 1), (3, 3, 2)),),
    ),
)

TABLE_B = (
    (
        (((1, 1, 1),), ((2, 1, 1),), ((3, 1, 1),)),
        (
            ((1, 2, 1), (4, 3, 2)),
            ((1, 4, 1), (2, 3, 2)),
            ((1, 5, 1), (3, 3, 2)),
            ((2, 2, 1), (4, 4, 2)),
            ((2, 5, 1), (3, 4, 2)),
            ((3, 2, 1), (4, 5, 2)),
        ),
        (
            ((1, 7, 1), (2, 6, 2), (4, 9, 1)),
            ((1, 8, 1), (3, 6, 2), (4, 10, 1)),
            ((1, 11, 1), (2, 10, 2), (3, 9, 1)),
            ((2, 8, 1), (3, 7, 2), (4, 11, 1)),
        ),
        (((1, 14, 1), (2, 13, 2), (3, 12, 1), (4, 15, 2)),),
    ),
    (
        (((1, 2, 1),), ((2, 2, 1),), ((3, 2, 1),)),
        (
            ((1, 1, 1), (4, 6, 2)),
            ((1, 7, 1), (2, 6, 2)),
            ((1, 8, 1), (3, 6, 2)),
            ((2, 1, 1), (4, 7, 2)),
            ((2, 8, 1), (3, 7, 2)),
            ((3, 1, 1), (4, 8, 2)),
        ),
        (
            ((1, 4, 1), (2, 3, 2), (4, 12, 1)),
            ((1, 5, 1), (3, 3, 2), (4, 13, 1)),
            ((1, 14, 1), (2, 13, 2), (3, 12, 1)),
            ((2, 5, 1), (3, 4, 2), (4, 14, 1)),
        ),
        (((1, 11, 1), (2, 10, 2), (3, 9, 1), (4, 16, 2)),),
    ),
)


def test_canonical_table_three_streams():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    assert desc.per_server == TABLE_A
    assert desc.total_sums() == 12


def test_canonical_table_four_streams():
    inst = PlcInstance(2, MatrixGF(STACK_B, F3), 4, 16)
    desc = generate_queries(inst, identity_plc_randomness(16))
    assert desc.per_server == TABLE_B
    assert desc.total_sums() == 28


def test_trim_counts_follow_dependency_dimension():
    """Per round ell the trim removes C(M-J, ell) sums per server and slot."""
    inst = PlcInstance(2, MatrixGF(STACK_B, F3), 1, 16)
    desc = generate_queries(inst, identity_plc_randomness(16))
    m, j, n = 4, 3, 2
    for server_blocks in desc.per_server:
        for ell, block in enumerate(server_blocks, 1):
            kept_expected = (comb(m, ell) - comb(m - j, ell)) * (n - 1) ** (
                ell - 1
            )
            assert len(block) == kept_expected


def test_expected_download_closed_form():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 1, 8)
    assert expected_download(inst) == 12
    inst2 = PlcInstance(2, MatrixGF(STACK_B, F3), 3, 16)
    assert expected_download(inst2) == 28


def _stacked_streams(stack, underlying, q):
    """Apply the stack to underlying streams; the engine requires answer
    streams that satisfy the stack's linear dependencies."""
    out = []
    for row in stack:
        out.append(
            [sum(c * y[t] for c, y in zip(row, underlying)) % q
             for t in range(len(underlying[0]))]
        )
    return out


@pytest.mark.parametrize("k_star", [1, 2, 3])
def test_roundtrip_all_demand_indices(k_star):
    rng = random.Random(k_star)
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), k_star, 8)
    underlying = [[rng.randrange(3) for _ in range(8)] for _ in range(2)]
    streams = _stacked_streams(STACK_A, underlying, 3)
    randomness = random_plc_randomness(8, rng)
    desc = generate_queries(inst, randomness)
    answers = answer_queries(desc, streams)
    out = reconstruct(desc, answers, inst, randomness)
    assert out == streams[k_star - 1]


def test_roundtrip_with_repetitions_and_three_servers():
    rng = random.Random(17)
    stack_rows = [[1, 0], [0, 1], [1, 1], [1, 2]]
    stack = MatrixGF(stack_rows, F3)
    t = 2 * 3**4
    inst = PlcInstance(3, stack, 3, t)
    underlying = [[rng.randrange(3) for _ in range(t)] for _ in range(2)]
    streams = _stacked_streams(stack_rows, underlying, 3)
    randomness = random_plc_randomness(t, rng)
    desc = generate_queries(inst, randomness)
    answers = answer_queries(desc, streams)
    assert reconstruct(desc, answers, inst, randomness) == streams[2]
    assert desc.total_sums() == expected_download(inst)


def test_single_server_downloads_everything_useful():
    """With one server the query degenerates to plain singleton reads."""
    rng = random.Random(2)
    stack_rows = [[1, 0], [0, 1], [1, 1]]
    stack = MatrixGF(stack_rows, F3)
    inst = PlcInstance(1, stack, 2, 4)
    underlying = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
    streams = _stacked_streams(stack_rows, underlying, 3)
    randomness = random_plc_randomness(4, rng)
    desc = generate_queries(inst, randomness)
    # rounds beyond the first have no slots when N = 1
    assert all(len(block) == 0 for server in desc.per_server for block in server[1:])
    answers = answer_queries(desc, streams)
    assert reconstruct(desc, answers, inst, randomness) == streams[1]
    assert desc.total_sums() == expected_download(inst) == 4 * 2


def test_single_stream_instance():
    rng = random.Random(4)
    stack = MatrixGF([[1]], F3)
    inst = PlcInstance(2, stack, 1, 4)
    streams = [[rng.randrange(3) for _ in range(4)]]
    randomness = random_plc_randomness(4, rng)
    desc = generate_queries(inst, randomness)
    answers = answer_queries(desc, streams)
    assert reconstruct(desc, answers, inst, randomness) == streams[0]


def test_tampered_answer_detected_or_wrong():
    rng = random.Random(23)
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    underlying = [[rng.randrange(3) for _ in range(8)] for _ in range(2)]
    streams = _stacked_streams(STACK_A, underlying, 3)
    randomness = random_plc_randomness(8, rng)
    desc = generate_queries(inst, randomness)
    answers = answer_queries(desc, streams)
    clean = reconstruct(desc, answers, inst, randomness)
    flipped = [list(map(list, server)) for server in answers]
    flipped[0][1][0] = (flipped[0][1][0] + 1) % 3
    tampered = tuple(tuple(tuple(b) for b in server) for server in flipped)
    assert reconstruct(desc, tampered, inst, randomness) != clean


def test_descriptor_mismatch_rejected():
    rng = random.Random(29)
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    streams = [[rng.randrange(3) for _ in range(8)] for _ in range(3)]
    r1 = random_plc_randomness(8, rng)
    r2 = random_plc_randomness(8, rng)
    assert r1 != r2
    desc = generate_queries(inst, r1)
    answers = answer_queries(desc, streams)
    with pytest.raises(ValueError):
        reconstruct(desc, answers, inst, r2)


@pytest.mark.parametrize(
    "bad_sum",
    [
        ((0, 1, 1),),  # stream 0 would read the last stream
        ((4, 1, 1),),  # stream past M = 3
        ((1, 0, 1),),  # position 0 would read the last symbol
        ((1, 9, 1),),  # position past T = 8
        ((1, 1, 3),),  # coefficient outside [0, q)
        ((1, 1, -1),),
        (),  # empty sum
    ],
)
def test_answer_queries_rejects_out_of_range_descriptor(bad_sum):
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    first = desc.per_server[0]
    server = (((bad_sum,) + first[0][1:]),) + first[1:]
    bad = dataclasses.replace(desc, per_server=(server,) + desc.per_server[1:])
    streams = [[1] * 8 for _ in range(3)]
    answer_queries(desc, streams)
    with pytest.raises(ValueError):
        answer_queries(bad, streams)


def test_answer_queries_rejects_short_streams():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    with pytest.raises(ValueError):
        answer_queries(desc, [[1] * 8, [1] * 8, [1] * 7])


def test_randomisation_layers_hide_structure():
    """Two different demand indices give identically-shaped descriptors."""
    descs = []
    for k_star in (1, 2, 3):
        inst = PlcInstance(2, MatrixGF(STACK_A, F3), k_star, 8)
        descs.append(generate_queries(inst, identity_plc_randomness(8)))
    layouts = {d.block_layout() for d in descs}
    assert len(layouts) == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        PlcInstance(2, MatrixGF(STACK_A, F3), 4, 8)  # index out of range
    with pytest.raises(ValueError):
        PlcInstance(2, MatrixGF(STACK_A, F3), 1, 12)  # not a multiple of N^M
    with pytest.raises(ValueError):
        PlcInstance(2, MatrixGF([[1, 2], [2, 4], [0, 0]], F3), 1, 8)  # rank


def test_randomness_validation():
    with pytest.raises(ValueError):
        PlcRandomness((1, 1, 3), (1, 1, 1))
    with pytest.raises(ValueError):
        PlcRandomness((1, 2, 3), (1, 0, 1))


def test_download_report_rates():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    from fractions import Fraction

    rep = download_report(desc, Fraction(2, 3))
    assert rep.downloaded_symbols == 12
    assert rep.rate == Fraction(8, 12)
    assert rep.achieves_capacity


def test_position_tables_partition_fresh_positions():
    """Every position 1..T appears exactly once as a fresh allocation."""
    for k_star in (1, 4):
        inst = PlcInstance(2, MatrixGF(STACK_B, F3), k_star, 16)
        desc = generate_queries(inst, identity_plc_randomness(16))
        seen = set()
        for server in desc.per_server:
            for block in server:
                for s in block:
                    for _, pos, _ in s:
                        seen.add(pos)
        # trimming can drop a position's only appearance, but none may exceed T
        assert seen <= set(range(1, 17))
