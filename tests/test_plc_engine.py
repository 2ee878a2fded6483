import dataclasses
import gc
import random
import tracemalloc
import weakref
from array import array
from collections import Counter
from itertools import combinations, islice, permutations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plclab import plc_engine
from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF, VectorGF, rank
from plclab.iplc_encoder import build_partition_matrix
from plclab.jplc_encoder import build_grs_matrix
from plclab.plc_engine import (
    _TRIM_CACHE_SIZE,
    PlcInstance,
    PlcRandomness,
    _normalised_trim,
    _trim_tables,
    _wedge,
    answer_queries,
    download_report,
    expected_download,
    generate_queries,
    identity_plc_randomness,
    random_plc_randomness,
    reconstruct,
)
from plclab.protocol_core import Demand, random_dataset, random_demand
from plclab.protocols import run_jplc

from pinned_rng import PinnedRandom
from skeleton_oracle import build_skeleton, sign_pattern

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


def _with_block(desc, server, ell, block):
    blocks = list(desc.per_server[server - 1])
    blocks[ell - 1] = tuple(block)
    servers = list(desc.per_server)
    servers[server - 1] = tuple(blocks)
    return dataclasses.replace(desc, per_server=tuple(servers))


def _change_term(desc, server, ell, index, term_index, change):
    block = list(desc.per_server[server - 1][ell - 1])
    terms = list(block[index])
    terms[term_index] = change(*terms[term_index])
    block[index] = tuple(terms)
    return _with_block(desc, server, ell, block)


def _swap_sums(desc, server, ell):
    block = list(desc.per_server[server - 1][ell - 1])
    block[0], block[1] = block[1], block[0]
    return _with_block(desc, server, ell, block)


TAMPERS = {
    "coefficient": lambda desc, other: _change_term(
        desc, 1, 2, 0, 1, lambda k, p, c: (k, p, 3 - c)
    ),
    "position": lambda desc, other: _change_term(
        desc, 2, 3, 1, 2, lambda k, p, c: (k, p % 16 + 1, c)
    ),
    "swapped": lambda desc, other: _swap_sums(desc, 1, 2),
    "missing": lambda desc, other: _with_block(
        desc, 2, 2, desc.per_server[1][1][:-1]
    ),
    "other-randomness": lambda desc, other: other,
}


@pytest.fixture
def bakes(monkeypatch):
    """The (instance, randomness) of every bake of a serialisation, in call
    order."""
    calls = []
    serialise = plc_engine._serialise

    def counted(instance, randomness):
        calls.append((instance, randomness))
        return serialise(instance, randomness)

    monkeypatch.setattr(plc_engine, "_serialise", counted)
    return calls


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_reconstruct_rejects_tampered_descriptor(tamper, bakes):
    """The check against the serialisation that generate_queries kept on the
    instance catches every altered descriptor, without baking anew."""
    rng = random.Random(37)
    inst = PlcInstance(2, MatrixGF(STACK_B, F3), 4, 16)
    underlying = [[rng.randrange(3) for _ in range(16)] for _ in range(3)]
    streams = _stacked_streams(STACK_B, underlying, 3)
    other = generate_queries(inst, random_plc_randomness(16, rng))
    randomness = random_plc_randomness(16, rng)
    desc = generate_queries(inst, randomness)
    answers = answer_queries(desc, streams)
    bad = TAMPERS[tamper](desc, other)
    assert bad.per_server != desc.per_server
    baked = len(bakes)
    with pytest.raises(ValueError, match="does not match"):
        reconstruct(bad, answers, inst, randomness)
    assert len(bakes) == baked
    assert reconstruct(desc, answers, inst, randomness) == streams[3]
    assert len(bakes) == baked


def _with_first_answer(answers, value):
    (first, *rest), *servers = answers
    return (((value,) + first[1:],) + tuple(rest),) + tuple(servers)


ANSWER_TAMPERS = {
    "missing-server": lambda a: a[:-1],
    "extra-server": lambda a: a + a[-1:],
    "missing-round": lambda a: (a[0][:-1],) + a[1:],
    "extra-round": lambda a: (a[0] + ((),),) + a[1:],
    "short-block": lambda a: ((a[0][0][1:],) + a[0][1:],) + a[1:],
    "float-answer": lambda a: _with_first_answer(a, float(a[0][0][0])),
    "answer-equal-to-q": lambda a: _with_first_answer(a, 3),
    "negative-answer": lambda a: _with_first_answer(a, -1),
}


@pytest.mark.parametrize("tamper", sorted(ANSWER_TAMPERS))
def test_reconstruct_rejects_malformed_answer_set(tamper):
    """Answers come from the servers: one tuple per server, one block per
    round, as many answers as the block has sums, each an int in [0, q)."""
    rng = random.Random(41)
    ds = random_dataset(F3, 3, 8, rng)
    run = run_jplc(2, ds, random_demand(F3, 3, 2, rng), rng)
    args = (run.instance, run.randomness)
    assert reconstruct(run.descriptor, run.answers, *args)
    with pytest.raises(ValueError):
        reconstruct(run.descriptor, ANSWER_TAMPERS[tamper](run.answers), *args)


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
        ((2, 1, 1), (1, 1, 1)),  # streams out of order
        ((1, 1, 1), (1, 2, 1)),  # one stream twice
        ((1, 1, 1.5),),  # a float coefficient would give a float answer
        ((1, 2.0, 1),),  # a float position cannot index a stream
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
    with pytest.raises(ValueError, match="descriptor"):
        answer_queries(bad, streams)


def test_answer_queries_rejects_symbols_that_are_not_ints():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    with pytest.raises(ValueError, match="stream symbols must be ints"):
        answer_queries(desc, [[1.0] * 8 for _ in range(3)])


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
    layouts = {
        tuple(tuple(len(block) for block in server) for server in d.per_server)
        for d in descs
    }
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
    # Floats and bools equal to valid ints are refused at construction, not
    # left to reach the recovered stream or fail in answer_queries.
    for position_map, signs in (
        ((1, 2, 3, 4), (1.0, -1.0, 1.0, 1.0)),
        ((1.0, 2, 3, 4), (1, 1, 1, 1)),
        ((True, 2, 3, 4), (1, 1, 1, 1)),
        ((1, 2, 3, 4), (True, -1, 1, 1)),
    ):
        with pytest.raises(ValueError, match="ints"):
            PlcRandomness(position_map, signs)


def test_download_report_rates():
    inst = PlcInstance(2, MatrixGF(STACK_A, F3), 2, 8)
    desc = generate_queries(inst, identity_plc_randomness(8))
    from fractions import Fraction

    rep = download_report(desc, Fraction(2, 3))
    assert rep.downloaded_symbols == 12
    assert rep.rate == Fraction(8, 12)
    assert rep.achieves_capacity


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("reps", [1, 2, 3])
@pytest.mark.parametrize("rows", [STACK_A, STACK_B, [[1]], [[1, 0], [0, 1], [1, 1]]])
def test_repetitions_are_shifted_copies_of_one(rows, reps, n):
    """Under the identity randomness each block of an r-repetition descriptor
    is the sorted union of r copies of the one-repetition block, copy k with
    its positions shifted by k N^M."""
    stack = MatrixGF(rows, F3)
    size = n**stack.nrows
    t = reps * size
    for theta in range(1, stack.nrows + 1):
        one = generate_queries(
            PlcInstance(n, stack, theta, size), identity_plc_randomness(size)
        )
        shifted = tuple(
            tuple(
                tuple(sorted(
                    tuple((x, v + k * size, c) for x, v, c in wire_sum)
                    for k in range(reps)
                    for wire_sum in block
                ))
                for block in server
            )
            for server in one.per_server
        )
        many = generate_queries(
            PlcInstance(n, stack, theta, t), identity_plc_randomness(t)
        )
        assert many.per_server == shifted


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


# ---------------------------------------------------------------------------
# One skeleton per (N, M): every target reads the theta = M skeleton.

SKELETON_SHAPES = [(1, 3), (2, 2), (2, 3), (2, 5), (2, 8), (2, 10), (3, 3), (3, 4), (4, 3)]


def _in_oracle_layout(n, m, groups, first):
    """The skeleton's int-array groups and first in the oracle's layout: the
    round's (mask, first) pairs, and first keyed by (server, mask)."""
    assert len(first) == n << m
    pairs = tuple(
        tuple(tuple(zip(masks, ats)) for masks, ats in rounds) for rounds in groups
    )
    keyed = {
        (server, mask): first[(server - 1) << m | mask]
        for server in range(1, n + 1)
        for mask in range(1, 1 << m)
    }
    return pairs, keyed


def _in_target_layout(plan, n, m):
    """The plan's sums and peel renumbered into its target's own layout, the
    oracle's: plan.first gives the skeleton index of the first sum of each
    (server, subset) in the target's labels, and the skeleton's own first
    gives its place in the target's layout."""
    sums, _, first, _ = plc_engine._build_skeleton(n, m)
    index = [None] * len(sums)
    for base in range(0, n << m, 1 << m):
        for mask in range(1, 1 << m):
            for c in range((n - 1) ** (mask.bit_count() - 1)):
                index[plan.first[base | mask] + c] = first[base | mask] + c
    assert sorted(index) == list(range(len(sums)))
    order = sorted(range(len(sums)), key=index.__getitem__)
    v, at, src, sign = plan.peel
    peel = (
        v,
        [index[i] for i in at],
        [index[i] if i >= 0 else -1 for i in src],
        sign,
    )
    return tuple(map(plan.terms, order)), peel


def _identity_blocks(oracle_sums, oracle_groups, basis, n, q):
    """The oracle's kept sums baked by hand under identity randomness: each
    sum's lead scaled to 1, every block sorted."""
    out = []
    for server in range(n):
        blocks = []
        for ell, round_groups in enumerate(oracle_groups[server]):
            block = []
            for mask, at in round_groups:
                if mask & basis:
                    for c in range((n - 1) ** ell):
                        terms = oracle_sums[at + c]
                        lead = terms[0][2]
                        block.append(tuple(
                            (x, v + 1, 1 if eps == lead else q - 1) for x, v, eps in terms
                        ))
            blocks.append(tuple(sorted(block)))
        out.append(tuple(blocks))
    return tuple(out)


@pytest.mark.parametrize("n,m", SKELETON_SHAPES)
def test_relabelled_skeleton_equals_the_oracle(n, m):
    """Every target's plan, read back in its target's layout under the
    streams' own labels, holds the oracle's sums in the oracle's order, its
    groups and first indices, and its peel rows in some order; its identity
    serialisation is the oracle's kept sums baked by hand. Every plan reads
    the skeleton's own sums and peel, and equal terms are one object."""
    stack = MatrixGF([[1]] * m, F3)
    skeleton_sums, groups, skeleton_first, skeleton_peel = plc_engine._build_skeleton(n, m)
    terms = [t for s in skeleton_sums for t in s]
    assert len({id(t) for t in terms}) == len(set(terms))
    for theta in range(1, m + 1):
        inst = PlcInstance(n, stack, theta, n**m)
        plan = inst.plan
        assert plan.sums is skeleton_sums and plan.peel is skeleton_peel
        sums, oracle_groups, first, peel = build_skeleton(n, m, theta)
        plan_sums, plan_peel = _in_target_layout(plan, n, m)
        assert plan_sums == sums
        assert _in_oracle_layout(n, m, groups, skeleton_first) == (oracle_groups, first)
        assert Counter(zip(*plan_peel)) == Counter(zip(*peel))
        desc = generate_queries(inst, identity_plc_randomness(n**m))
        assert desc.per_server == _identity_blocks(sums, oracle_groups, 1, n, 3)


@pytest.mark.parametrize("n", range(1, 6))
def test_no_two_sums_of_a_block_share_a_lead(n):
    """In every round of every server, for every target, no two sums share
    their first term's (stream, position), kept or not; checked at every M
    up to 10 with N^M <= 1,024. So the int key of `_bake`, the lead's stream
    and served position, orders a block as the wire sums do: tau is a
    bijection, and repetitions shift positions."""
    for m in range(1, 11):
        if n**m > 1024:
            break
        stack = MatrixGF([[1]] * m, F3)
        for theta in range(1, m + 1):
            plan = PlcInstance(n, stack, theta, n**m).plan
            for server, rounds in enumerate(plan.groups):
                for ell, (masks, _) in enumerate(rounds):
                    leads = [
                        plan.terms(plan.first[server << m | mask] + c)[0][:2]
                        for mask in masks
                        for c in range((n - 1) ** ell)
                    ]
                    assert len(set(leads)) == len(leads)


def test_skeleton_shares_its_terms():
    """At N=2, M=10 the skeleton's 10,240 terms are 5,632 tuple objects: a
    sum over a subset with the target reuses its peel source's terms."""
    sums = plc_engine._build_skeleton(2, 10)[0]
    terms = [t for s in sums for t in s]
    assert len(terms) == 10 * 2**10
    assert len({id(t) for t in terms}) == len(set(terms)) == 5632


def _clear_skeletons():
    for cache in (plc_engine._build_skeleton, plc_engine._target_index, plc_engine._kept):
        cache.cache_clear()


def test_targets_share_one_skeleton():
    """Ten targets at N=2, M=10 build one skeleton and read it; theta = M
    takes the skeleton's own tables."""
    stack = MatrixGF([[1]] * 10, F3)
    _clear_skeletons()
    plans = [PlcInstance(2, stack, theta, 2**10).plan for theta in range(1, 11)]
    assert plc_engine._build_skeleton.cache_info().misses == 1
    assert plc_engine._target_index.cache_info().misses == 10
    sums, _, first, peel = plc_engine._build_skeleton(2, 10)
    assert all(plan.sums is sums and plan.peel is peel for plan in plans)
    assert plans[-1].first is first
    assert plans[-1].label == tuple(range(11))


def _held_beyond_the_skeleton(n, m):
    """Bytes that the plans of every target at (N, M), built in one process
    on one stack, hold beyond the skeleton they share."""
    stack = MatrixGF([[1]] * m, F3)
    _clear_skeletons()
    plc_engine._build_skeleton(n, m)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plans = [PlcInstance(n, stack, theta, n**m).plan for theta in range(1, m + 1)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(plans) == m
    return held


def test_targets_hold_little_beyond_one_skeleton():
    """The plans of all ten targets at N=2, M=10 hold at most 0.18 MB beyond
    the 0.68 MB skeleton, 25% above the 0.14 MB they measure under Python
    3.11. Each target's relabelled copy of the sums held 1.03 MB in all."""
    assert _held_beyond_the_skeleton(2, 10) <= 0.18 * 2**20


def test_every_target_at_m12_holds_little_beyond_one_skeleton():
    """The plans of all twelve targets at N=2, M=12 hold at most 0.54 MB
    beyond the 3.3 MB skeleton, 25% above the 0.43 MB they measure under
    Python 3.11. Relabelled copies of the sums held about 4.3 MB per target
    at M=15, 59.8 MB for the 14 targets other than M."""
    assert _held_beyond_the_skeleton(2, 12) <= 0.54 * 2**20


# ---------------------------------------------------------------------------
# Properties of the closed-form trim over random full-column-rank stacks.

Q_CHOICES = (2, 3, 5, 2**61 - 1)
PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def full_rank_stacks(draw, qs=Q_CHOICES, max_streams=7, min_dependent=0):
    """(stack, theta): an M x J stack of full column rank, zero rows allowed,
    with M - J >= min_dependent."""
    q = draw(st.sampled_from(qs))
    m = draw(st.sampled_from(range(1 + min_dependent, max_streams + 1)))
    j = draw(st.sampled_from(range(1, m - min_dependent + 1)))
    entry = st.sampled_from((0, 1, q - 1)) | st.integers(0, q - 1)
    zero_row = st.sampled_from((False, False, False, True))
    rows = [
        [0] * j if draw(zero_row) else [draw(entry) for _ in range(j)]
        for _ in range(m)
    ]
    stack = MatrixGF(rows, PrimeField(q))
    assume(rank(stack) == j)
    return stack, draw(st.integers(1, m))


def _sum_row(stack, s, theta):
    """A round's sum over subset s as a dense vector over ((ell-1)-subset, j):
    stream x contributes eps_x * C_x at the positions indexed by s minus x."""
    q, m, j_dim = stack.field.q, stack.nrows, stack.ncols
    cols = {u: i for i, u in enumerate(combinations(range(1, m + 1), len(s) - 1))}
    row = [0] * (len(cols) * j_dim)
    for x, eps in sign_pattern(s, theta).items():
        base = cols[tuple(y for y in s if y != x)] * j_dim
        for j, c in enumerate(stack.rows[x - 1]):
            row[base + j] = (eps * c) % q
    return row


def _streams(mask, m):
    """The subset a bitmask stands for, as a sorted tuple of streams."""
    return tuple(x for x in range(1, m + 1) if mask >> (x - 1) & 1)


def _meeting_basis(basis, m, ell):
    """The round's subsets that meet B, as bitmasks."""
    return [
        mask for mask in range(1 << m) if mask.bit_count() == ell and mask & basis
    ]


def _as_drops(instance):
    """The instance's trim in `_wedge`'s encoding, (basis, drops): the flat
    arrays of `_trim_tables` read into a dict from each dropped subset's
    bitmask to its (t, coefficient) pairs."""
    basis, keys, offsets, terms, lams = _trim_tables(instance)
    return basis, {
        s: tuple(zip(terms[at:end], lams[at:end]))
        for s, at, end in zip(keys, offsets, offsets[1:])
    }


def _trim_of(stack, theta):
    """`_as_drops` for (stack, theta), through a one-server instance."""
    return _as_drops(PlcInstance(1, stack, theta, 1))


@PROPERTY
@given(full_rank_stacks())
def test_trim_keeps_a_basis_of_every_round(case):
    stack, theta = case
    m, j_dim = stack.nrows, stack.ncols
    basis, _ = _trim_of(stack, theta)
    for ell in range(1, m + 1):
        kept = _meeting_basis(basis, m, ell)
        count = comb(m, ell) - comb(m - j_dim, ell)
        assert len(kept) == count
        rows = [_sum_row(stack, _streams(s, m), theta) for s in kept]
        assert rank(MatrixGF(rows, stack.field)) == count


@PROPERTY
@given(full_rank_stacks())
def test_trim_kept_set_ignores_theta(case):
    stack, _ = case
    kept_sets = {
        (basis, frozenset(drops))
        for basis, drops in (
            _trim_of(stack, theta) for theta in range(1, stack.nrows + 1)
        )
    }
    assert len(kept_sets) == 1


@PROPERTY
@given(full_rank_stacks())
def test_trim_drops_are_exact_identities(case):
    stack, theta = case
    q, m = stack.field.q, stack.nrows
    basis, drops = _trim_of(stack, theta)
    for ell in range(1, m + 1):
        kept = _meeting_basis(basis, m, ell)
        drops_ell = {s: combo for s, combo in drops.items() if s.bit_count() == ell}
        assert set(drops_ell).isdisjoint(kept)
        assert len(drops_ell) + len(kept) == comb(m, ell)
        for s, combo in drops_ell.items():
            row = _sum_row(stack, _streams(s, m), theta)
            expanded = [0] * len(row)
            for t, lam in combo:
                assert t in kept
                for i, v in enumerate(_sum_row(stack, _streams(t, m), theta)):
                    expanded[i] = (expanded[i] + lam * v) % q
            assert expanded == row


def _oracle(stack, theta):
    """(basis, drops) straight from the wedge for (stack, theta): no cache,
    no normalisation, no transport."""
    return _wedge(stack, theta)


def _unordered(tables):
    """Trim tables with each drop's terms sorted: a transported trim lists
    them in the order of the normalised stack's wedge."""
    basis, drops = tables
    return basis, {s: sorted(combo) for s, combo in drops.items()}


def _rescaled(stack, scales):
    q = stack.field.q
    return MatrixGF(
        [[c * v % q for v in row] for row, c in zip(stack.rows, scales)], stack.field
    )


@PROPERTY
@given(st.data())
def test_transported_trim_equals_the_wedge(data):
    """The trim cached for one stack, carried over to a row rescaling of it
    and to every target, equals the wedge computed for that stack and target."""
    stack, _ = data.draw(full_rank_stacks())
    q = stack.field.q
    scales = [data.draw(st.integers(1, q - 1)) for _ in range(stack.nrows)]
    for case in (stack, _rescaled(stack, scales)):
        for theta in range(1, stack.nrows + 1):
            assert _unordered(_trim_of(case, theta)) == _unordered(
                _oracle(case, theta)
            )


def _jplc_stack(k, d, q, rng):
    field = PrimeField(q)
    enc = build_grs_matrix(2, random_demand(field, k, d, rng), k, field, rng)
    return MatrixGF([cv.entries for cv in enc.combination_vectors], field)


def _iplc_stack(k, d, q, rng):
    field = PrimeField(q)
    enc = build_partition_matrix(random_demand(field, k, d, rng), k, field, rng)
    return MatrixGF([cv.entries for cv in enc.combination_vectors], field)


# (builder, K, D, q) at the benchmark's shapes: plan-heavy, wide-field,
# small-calls and the audit certificate's stack.
ENCODER_SHAPES = (
    (_jplc_stack, 5, 2, 5),
    (_jplc_stack, 4, 2, 8191),
    (_iplc_stack, 6, 2, 8191),
    (_jplc_stack, 3, 2, 3),
    (_iplc_stack, 5, 2, 3),
    (_jplc_stack, 4, 2, 5),
)


@settings(max_examples=24, derandomize=True, deadline=None)
@given(st.sampled_from(ENCODER_SHAPES), st.integers(0, 2**32))
def test_transported_trim_equals_the_wedge_on_encoder_stacks(shape, seed):
    build, k, d, q = shape
    stack = build(k, d, q, random.Random(seed))
    for theta in range(1, stack.nrows + 1):
        assert _unordered(_trim_of(stack, theta)) == _unordered(_oracle(stack, theta))


def test_run_plans_once(monkeypatch, bakes):
    """A run trims once, while building its plan, and serialises once: a
    bake in generate_queries and none in reconstruct. A row rescaling of
    its stack, with another target, reuses that trim."""
    rng = random.Random(5)
    ds = random_dataset(F3, 3, 8, rng)
    _normalised_trim.cache_clear()
    run = run_jplc(2, ds, random_demand(F3, 3, 2, rng), rng, verify=True)
    trims = _normalised_trim.cache_info()
    assert (trims.misses, trims.hits) == (1, 0)
    assert bakes == [(run.instance, run.randomness)]
    assert bakes[0][0] is run.instance and bakes[0][1] is run.randomness

    stack = _rescaled(run.instance.combination_matrix, (2, 1, 2))
    assert stack != run.instance.combination_matrix
    theta = run.instance.demand_index % 3 + 1
    randomness = random_plc_randomness(8, rng)
    inst = PlcInstance(2, stack, theta, 8)
    desc = generate_queries(inst, randomness)
    trims = _normalised_trim.cache_info()
    assert (trims.misses, trims.hits) == (1, 1)
    assert _unordered(_as_drops(inst)) == _unordered(_oracle(stack, theta))

    # A plan reads its trim only for B, which the oracle gives as well.
    basis = _oracle(stack, theta)[0]
    empty = plc_engine._TrimPattern(basis, array("B"), array("B", [0]), array("B"))
    monkeypatch.setattr(plc_engine, "_normalised_trim", lambda normalised: (empty, array("B")))
    from_oracle = PlcInstance(2, stack, theta, 8)
    assert generate_queries(from_oracle, randomness) == desc


def test_a_run_leaves_nothing_behind():
    """A run's serialisation lives on its instance, so once the run is
    dropped nothing holds its instance or its randomness."""
    rng = random.Random(3)
    ds = random_dataset(F3, 3, 8, rng)
    run = run_jplc(2, ds, random_demand(F3, 3, 2, rng), rng, verify=True)
    refs = weakref.ref(run.instance), weakref.ref(run.randomness)
    del run
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_full_trim_cache_stays_small():
    """Filled to maxsize with distinct M = 10 jplc stacks, the trim cache
    holds at most 4 MB. A normalised stack is fixed by the evaluation point
    of each column: K = 5 gives 5! = 120 of them for each of D = 2 and 3."""
    field = PrimeField(7)

    def stacks():
        for d in (2, 3):
            demand = Demand(range(1, d + 1), VectorGF([1] * d, field))
            for omegas in permutations(range(5)):
                draws = PinnedRandom(random.Random(0), shuffle=[omegas])
                enc = build_grs_matrix(2, demand, 5, field, draws)
                draws.check_consumed()
                yield MatrixGF([cv.entries for cv in enc.combination_vectors], field)

    stacks = list(islice(stacks(), _TRIM_CACHE_SIZE))
    assert {s.nrows for s in stacks} == {10}
    _normalised_trim.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for stack in stacks:
            _trim_of(stack, 1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    info = _normalised_trim.cache_info()
    assert (info.misses, info.currsize) == (_TRIM_CACHE_SIZE, _TRIM_CACHE_SIZE)
    assert held <= 4 * 2**20


def test_stacks_of_one_shape_share_one_pattern():
    """Twenty random jplc stacks at K=5, D=2, q=5 trim to one shared
    pattern: each cache entry adds only its stack's coefficients."""
    rng = random.Random(11)
    _normalised_trim.cache_clear()
    plans = [PlcInstance(2, _jplc_stack(5, 2, 5, rng), 1, 2**10).plan for _ in range(20)]
    assert _normalised_trim.cache_info().misses > 1
    assert len({id(plan.trim[0]) for plan in plans}) == 1
    assert len({plan.trim[1].tobytes() for plan in plans}) > 1


@settings(max_examples=12, derandomize=True, deadline=None)
@given(st.data(), st.sampled_from((2, 3)))
def test_roundtrip_exact_at_large_q(data, n):
    """Every target, inside the basis or expanded from it, comes back exact.
    Two or more dependent streams make round-two sums drop."""
    q = 2**61 - 1
    stack, _ = data.draw(full_rank_stacks((q,), max_streams=4, min_dependent=2))
    m, j_dim = stack.nrows, stack.ncols
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    t = n**m
    underlying = [[rng.randrange(q) for _ in range(t)] for _ in range(j_dim)]
    streams = _stacked_streams(stack.rows, underlying, q)
    for theta in range(1, m + 1):
        inst = PlcInstance(n, stack, theta, t)
        randomness = random_plc_randomness(t, rng)
        desc = generate_queries(inst, randomness)
        answers = answer_queries(desc, streams)
        assert reconstruct(desc, answers, inst, randomness) == streams[theta - 1]
        assert desc.total_sums() == expected_download(inst)
