import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plclab import plc_engine
from plclab.audit import (
    _engine_map,
    _judge,
    _paths,
    _sum_map,
    apply_pattern_map,
    audit_individual_privacy,
    audit_joint_privacy,
    audit_recoverability,
    audit_reduction_marginal,
    certify_engine_privacy,
    debiased_marginal_statistic,
    debiased_pairwise_tv_statistic,
    enumerate_iplc_paths,
    enumerate_jplc_paths,
)
from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF
from plclab.plc_engine import PlcInstance, generate_queries, identity_plc_randomness
from test_plc_engine import full_rank_stacks

F3 = PrimeField(3)


# ---------------------------------------------------------------------------
# Exhaustive path enumerators: weights must form a probability distribution.

def test_jplc_paths_weights_sum_to_one():
    total = Fraction(0)
    for w, _, _ in enumerate_jplc_paths((1, 3), 2, 3, F3):
        total += w
    assert total == 1


@pytest.mark.parametrize("k,d,support", [(4, 2, (2, 3)), (5, 2, (1, 3))])
def test_iplc_paths_weights_sum_to_one(k, d, support):
    total = Fraction(0)
    count = 0
    for w, demand, enc in enumerate_iplc_paths(support, k, F3):
        total += w
        count += 1
        assert enc.supports[enc.demand_index - 1] == support
    assert total == 1
    assert count > 0


# ---------------------------------------------------------------------------
# Exhaustive audits on small parameter sets: the statistics are exactly zero.

def test_joint_privacy_exhaustive_encoder_layer():
    rep = audit_joint_privacy(2, 3, 2, F3, mode="exhaustive", layer="encoder")
    assert rep.passed
    assert rep.details["exact_statistic"] == "0"


def test_joint_privacy_exhaustive_full_layer():
    # Small enough to enumerate the engine randomness as well: T = 4.
    rep = audit_joint_privacy(2, 2, 1, F3, mode="exhaustive", layer="full")
    assert rep.passed
    assert rep.statistic == 0.0


def test_individual_privacy_exhaustive_iplc_r0():
    rep = audit_individual_privacy(2, 4, 2, F3, mode="exhaustive", protocol="iplc")
    assert rep.passed
    assert rep.details["exact_statistic"] == "0"


def test_individual_privacy_exhaustive_jplc():
    # Joint privacy implies individual privacy; check the posterior route.
    rep = audit_individual_privacy(2, 3, 1, F3, mode="exhaustive", protocol="jplc")
    assert rep.passed
    assert rep.statistic == 0.0


def test_reduction_marginal_exhaustive():
    rep = audit_reduction_marginal("pir-psi", 2, 3, 1, F3, mode="exhaustive")
    assert rep.passed
    assert rep.details["exact_statistic"] == "0"


# ---------------------------------------------------------------------------
# Sampled audits: the machinery, at modest sample counts.

def test_individual_privacy_sampled_small():
    rep = audit_individual_privacy(
        2, 5, 2, F3, rng=random.Random(0), mode="sampled", samples=4000
    )
    assert rep.passed
    assert rep.statistic <= 0.02


def test_joint_privacy_sampled_small():
    rep = audit_joint_privacy(
        2, 3, 2, F3, rng=random.Random(1), mode="sampled", samples=4000
    )
    assert rep.passed


def test_sampled_mode_requires_rng():
    with pytest.raises(ValueError):
        audit_joint_privacy(2, 3, 2, F3, mode="sampled")


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_individual_privacy_rejects_demand_larger_than_k(mode):
    with pytest.raises(ValueError, match="label set is empty"):
        audit_individual_privacy(2, 2, 3, F3, rng=random.Random(1), mode=mode)


@pytest.mark.parametrize(
    "audit",
    [
        lambda n: audit_joint_privacy(2, 3, 2, F3, rng=random.Random(1), mode="sampled", samples=n),
        lambda n: audit_individual_privacy(2, 4, 2, F3, rng=random.Random(1), mode="sampled", samples=n),
        lambda n: audit_reduction_marginal("pir-si", 2, 4, 1, F3, rng=random.Random(1), mode="sampled", samples=n),
    ],
    ids=["joint", "individual", "reduction"],
)
@pytest.mark.parametrize("samples", [0, -2])
def test_sampled_audits_reject_nonpositive_samples(audit, samples):
    with pytest.raises(ValueError, match="at least one sample"):
        audit(samples)


@pytest.mark.parametrize("num_servers", [0, -5])
def test_individual_privacy_rejects_fewer_than_one_server(num_servers):
    """The iplc encoder never reads N, so only the audit's own check stops a
    certificate for a server count no protocol run accepts."""
    with pytest.raises(ValueError, match="at least one server"):
        audit_individual_privacy(num_servers, 4, 2, F3)


@pytest.mark.parametrize("num_servers", [0, -1])
def test_reduction_marginal_rejects_fewer_than_one_server(num_servers):
    with pytest.raises(ValueError, match="at least one server"):
        audit_reduction_marginal("pir-si", num_servers, 4, 1, F3)


# ---------------------------------------------------------------------------
# Negative control: a view that shows the demanded support leaks the label,
# so the engine must fail it in both modes and both kinds of statistic.

@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize(
    "protocol,k,d,marginal,exact",
    [("jplc", 3, 2, False, "1"), ("iplc", 4, 2, True, "1/2")],
)
def test_engine_fails_a_leaking_view(mode, protocol, k, d, marginal, exact):
    supports = list(combinations(range(1, k + 1), d))
    paths = _paths(
        mode, protocol, [(s, s) for s in supports], 2, k, F3,
        random.Random(8), 2000,
    )

    def leak(enc):
        return ((0, enc.supports[enc.demand_index - 1]),)

    if marginal:
        question = (range(1, k + 1), lambda s: s, Fraction(d, k))
    else:
        question = (supports, lambda s: (s,), None)
    rep = _judge("leak", "encoder", mode, None, paths, leak, *question, {})
    assert not rep.passed
    assert rep.statistic > 0.2
    if mode == "exhaustive":
        assert rep.details["exact_statistic"] == exact


# ---------------------------------------------------------------------------
# Debiased statistics: zero under clean counts, positive under real bias.

def test_debiased_marginal_ignores_sampling_noise():
    # Views with one sample each cannot clear the three-sigma allowance.
    counts = {f"v{i}": (1, {1: 1} if i % 2 else {}) for i in range(100)}
    stat = debiased_marginal_statistic(counts, [1], 0.5)
    assert stat == 0.0


def test_debiased_marginal_flags_heavy_bias():
    counts = {"v": (10000, {1: 9000})}
    stat = debiased_marginal_statistic(counts, [1], 0.5)
    assert stat > 0.3


def test_debiased_pairwise_tv_flags_separating_view():
    # Label 'a' always lands in view v1, label 'b' in view v2.
    counts = {"v1": (5000, {"a": 5000}), "v2": (5000, {"b": 5000})}
    stat = debiased_pairwise_tv_statistic(counts, ["a", "b"])
    assert stat > 0.8


def test_debiased_pairwise_tv_zero_on_identical_views():
    counts = {"v": (10000, {"a": 5000, "b": 5000})}
    assert debiased_pairwise_tv_statistic(counts, ["a", "b"]) == 0.0


# ---------------------------------------------------------------------------
# Recoverability.

@pytest.mark.parametrize("protocol,k,d", [("jplc", 3, 2), ("iplc", 5, 2)])
def test_recoverability_audit(protocol, k, d):
    rep = audit_recoverability(
        protocol, 2, k, d, F3, random.Random(3), trials=25
    )
    assert rep.passed
    assert rep.details["failures"] == 0


@pytest.mark.parametrize("trials", [0, -3])
def test_recoverability_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="at least one trial"):
        audit_recoverability("jplc", 2, 3, 2, F3, random.Random(3), trials=trials)


def test_recoverability_rejects_unknown_protocol():
    with pytest.raises(ValueError, match="unknown protocol 'xyz'"):
        audit_recoverability("xyz", 2, 3, 2, F3, random.Random(3))


@pytest.mark.parametrize("servers", [0, -2])
def test_recoverability_rejects_fewer_than_one_server(servers):
    with pytest.raises(ValueError, match="need at least one server"):
        audit_recoverability("jplc", servers, 3, 2, F3, random.Random(3))


# ---------------------------------------------------------------------------
# Engine-layer certificates, checked against a brute-force oracle where the
# randomness space is small enough to enumerate outright.

def _serialize_with(blocks, tau, signs, q):
    out = []
    for block in blocks:
        new_sums = []
        for s in block:
            terms = []
            for k, p, c in s:
                c2 = (c * signs[p - 1]) % q
                terms.append((k, tau[p - 1], c2))
            terms.sort()
            lead = terms[0][2]
            if lead != 1:
                inv = pow(lead, q - 2, q)
                terms = [(k, p, (c * inv) % q) for k, p, c in terms]
            new_sums.append(tuple(terms))
        out.append(tuple(sorted(new_sums)))
    return tuple(out)


def _brute_force_isomorphic(blocks_a, blocks_b, t, q):
    for tau in permutations(range(1, t + 1)):
        for signs in product((1, -1), repeat=t):
            if _serialize_with(blocks_a, tau, signs, q) == blocks_b:
                return True
    return False


def _patterns(n, stack, t):
    """Each target's serialised pattern under identity randomness."""
    return [
        generate_queries(PlcInstance(n, stack, k, t), identity_plc_randomness(t)).per_server
        for k in range(1, stack.nrows + 1)
    ]


def _in_order(blocks_a, blocks_b):
    """The sums of two patterns paired block by block, in order."""
    return [pair for a, b in zip(blocks_a, blocks_b) for pair in zip(a, b)]


@pytest.mark.parametrize(
    "stack", [[[1], [2]], [[1], [1]], [[2], [1]]]
)
def test_matcher_agrees_with_brute_force_positive(stack):
    c = MatrixGF(stack, F3)
    t = 4
    pats = _patterns(2, c, t)
    plans = [PlcInstance(2, c, k, t).plan for k in (1, 2)]
    for server in range(2):
        found = _engine_map(plans[0], plans[1], server, t)
        brute = _brute_force_isomorphic(pats[0][server], pats[1][server], t, 3)
        assert brute, "engine patterns must be isomorphic across demands"
        assert found is not None
        rho, flips = found
        assert len(set(rho.values())) == len(rho)
        assert (
            apply_pattern_map(pats[0][server], rho, flips, 3)
            == pats[1][server]
        )


def test_matcher_rejects_parity_contradiction():
    # Three sums over position triples force an odd sign cycle: the relative
    # sign flips needed by the pairs (1,2), (1,3), (2,3) cannot all hold.
    blocks_a = (
        (
            ((1, 1, 1), (2, 2, 1)),
            ((1, 1, 1), (3, 3, 1)),
            ((2, 2, 1), (3, 3, 1)),
        ),
    )
    blocks_b = (
        (
            ((1, 1, 1), (2, 2, 2)),
            ((1, 1, 1), (3, 3, 1)),
            ((2, 2, 1), (3, 3, 1)),
        ),
    )
    assert _sum_map(_in_order(blocks_a, blocks_b)) is None
    assert not _brute_force_isomorphic(blocks_a, blocks_b, 3, 3)


def test_matcher_rejects_stream_shape_mismatch():
    blocks_a = ((((1, 1, 1),), ((2, 2, 1),)),)
    blocks_b = ((((1, 1, 1),), ((3, 2, 1),)),)
    assert _sum_map(_in_order(blocks_a, blocks_b)) is None


def test_matcher_rejects_a_position_used_twice():
    # Pairing in order would send positions 1 and 2 both to position 1.
    blocks_a = ((((1, 1, 1),), ((2, 2, 1),)),)
    blocks_b = ((((1, 1, 1),), ((2, 1, 1),)),)
    assert _sum_map(_in_order(blocks_a, blocks_b)) is None


@pytest.fixture
def leaking_engine(monkeypatch):
    """An engine whose round-ell sums reuse the same server's previous-round
    positions instead of the other servers': the target's sums then share
    positions a server can see, so its view depends on the target."""
    monkeypatch.setattr(plc_engine, "_other_servers", lambda s, n: [s] * (n - 1))
    plc_engine._build_skeleton.cache_clear()
    plc_engine._serialise.cache_clear()
    yield
    plc_engine._build_skeleton.cache_clear()
    plc_engine._serialise.cache_clear()


@pytest.mark.parametrize(
    "n,stack,t", [(2, [[1], [2]], 4), (2, [[1, 2], [1, 1], [0, 1]], 8), (3, [[1], [2], [1]], 27)]
)
def test_certificate_fails_on_a_leaking_engine(leaking_engine, n, stack, t):
    c = MatrixGF(stack, F3)
    rep = certify_engine_privacy(n, c, t)
    assert not rep.passed
    assert rep.details["failed"] == repr((1, 2, 1))
    assert rep.weight == 0
    if t == 4:
        pats = _patterns(n, c, t)
        assert not _brute_force_isomorphic(pats[0][0], pats[1][0], t, 3)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(full_rank_stacks(max_streams=4), st.sampled_from((2, 3)), st.sampled_from((1, 2)))
def test_certificate_passes_on_random_stacks(case, n, reps):
    stack, _ = case
    m = stack.nrows
    rep = certify_engine_privacy(n, stack, reps * n**m)
    assert rep.passed, rep.details
    assert rep.weight == comb(m, 2) * n


def test_certify_engine_privacy_on_worked_stacks():
    for stack, t in [
        ([[1, 2], [1, 1], [0, 1]], 8),
        ([[2, 0, 0], [0, 0, 2], [0, 2, 1], [0, 2, 2]], 16),
    ]:
        rep = certify_engine_privacy(2, MatrixGF(stack, F3), t)
        assert rep.passed, rep.details


def test_certify_engine_privacy_three_servers():
    rep = certify_engine_privacy(3, MatrixGF([[1], [2], [1]], F3), 27)
    assert rep.passed
