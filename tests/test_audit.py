import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations, product
import math
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plclab import audit, iplc_encoder, plc_engine, reductions
from plclab.audit import (
    AuditReport,
    _engine_map,
    _judge,
    _outcomes,
    _paths,
    _published_view,
    _sum_map,
    apply_pattern_map,
    audit_individual_privacy,
    audit_joint_privacy,
    audit_recoverability,
    audit_reduction_marginal,
    certify_engine_privacy,
    debiased_marginal_statistic,
    debiased_pairwise_tv_statistic,
)
from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF
from plclab.iplc_encoder import algorithm_probabilities
from plclab.plc_engine import (
    PlcInstance,
    generate_queries,
    identity_plc_randomness,
    random_plc_randomness,
)
import certificate_oracle
import statistics_oracle
from enumeration_oracle import enumerate_iplc_paths, enumerate_jplc_paths
from full_walk_oracle import audit_joint_full
from test_plc_engine import full_rank_stacks

F3 = PrimeField(3)


# ---------------------------------------------------------------------------
# Exhaustive paths walk the encoders' own draws: the weights form a
# probability distribution, and they match a hand-written enumeration.

def _walked(protocol, support, k, field=F3):
    """The exhaustive paths of one demanded support, as (weight, encoder)."""
    paths = _paths("exhaustive", protocol, [(support, support)], 2, k, field, None, 0)
    return [(w, enc) for w, _, enc in paths]


def test_jplc_paths_weights_sum_to_one():
    assert sum(w for w, _ in _walked("jplc", (1, 3), 3)) == 1


@pytest.mark.parametrize("k,d,support", [(4, 2, (2, 3)), (5, 2, (1, 3))])
def test_iplc_paths_weights_sum_to_one(k, d, support):
    paths = _walked("iplc", support, k)
    assert sum(w for w, _ in paths) == 1
    assert paths
    for _, enc in paths:
        assert enc.supports[enc.demand_index - 1] == support


@pytest.mark.parametrize(
    "protocol,k,support",
    # iplc at K=3 has n = 0 (route 2 only), at K=4 R = 0, at K=5 both routes.
    [("jplc", 3, (1, 3)), ("jplc", 3, (2,)), ("iplc", 3, (1, 3)), ("iplc", 4, (2, 3)),
     ("iplc", 5, (2, 4))],
)
def test_walk_matches_the_enumeration_oracle(protocol, k, support):
    if protocol == "jplc":
        oracle = enumerate_jplc_paths(support, 2, k, F3)
    else:
        oracle = enumerate_iplc_paths(support, k, F3)
    expected = Counter((w, _published_view(enc)) for w, _, enc in oracle)
    got = Counter((w, _published_view(enc)) for w, enc in _walked(protocol, support, k))
    assert got == expected


def test_walk_branches_on_exact_comparisons_and_draw_dependent_counts():
    def run(rng):
        if rng.random() < Fraction(1, 3):
            return ("low", rng.randrange(0, 2))
        x = [1, 2, 3]
        rng.shuffle(x)
        return ("high", tuple(x))

    got = {out: w for w, out in _outcomes(run)}
    assert len(got) == 8 and sum(got.values()) == 1
    assert got[("low", 0)] == got[("low", 1)] == Fraction(1, 6)
    assert all(got[("high", p)] == Fraction(1, 9) for p in permutations((1, 2, 3)))
    # Certain and impossible branches are not split.
    assert list(_outcomes(lambda r: r.random() < 1)) == [(1, True)]
    assert list(_outcomes(lambda r: r.random() < 0)) == [(1, False)]


def test_walk_refuses_a_float_comparison(monkeypatch):
    """A float probability cannot be branched on exactly, so an encoder that
    compares random() with one stops the exhaustive audit."""
    real = audit.build_partition_matrix

    def float_route(demand, k, field, rng):
        rng.random() < float(algorithm_probabilities(k, demand.size)[0])
        return real(demand, k, field, rng)

    monkeypatch.setattr(audit, "build_partition_matrix", float_route)
    with pytest.raises(TypeError, match="exact probability"):
        audit_individual_privacy(2, 5, 2, F3, mode="exhaustive")


def test_walk_choice_is_one_draw_over_the_sequence():
    got = list(_outcomes(lambda r: r.choice("abc")))
    assert got == [(Fraction(1, 3), "a"), (Fraction(1, 3), "b"), (Fraction(1, 3), "c")]


# ---------------------------------------------------------------------------
# The law of the engine's query randomness, which the full layer's walk
# assumes: uniform over the T! 2^T (position map, signs) draws.

def _randomness_law(t):
    """{(position map, signs): probability} over the outcomes of the draw
    that runs use, looked up when called."""
    law = {}
    for w, r in _outcomes(lambda rng: plc_engine.random_plc_randomness(t, rng)):
        key = (r.position_map, r.signs)
        law[key] = law.get(key, 0) + w
    return law


def _is_uniform_over_query_draws(law, t):
    draws = {
        (tau, signs)
        for tau in permutations(range(1, t + 1))
        for signs in product((1, -1), repeat=t)
    }
    return set(law) == draws and set(law.values()) == {Fraction(1, len(draws))}


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_query_randomness_is_uniform_over_every_draw(t):
    law = _randomness_law(t)
    assert len(law) == math.factorial(t) * 2**t  # 384 at T = 4
    assert _is_uniform_over_query_draws(law, t)


def test_an_identity_query_draw_fails_the_randomness_law(monkeypatch):
    """A run whose queries are drawn as the identity shows its target; every
    audit of the stack passes it, so this check is what catches it."""
    monkeypatch.setattr(
        plc_engine, "random_plc_randomness", lambda t, rng: identity_plc_randomness(t)
    )
    assert not _is_uniform_over_query_draws(_randomness_law(4), 4)


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


def test_the_sampled_pir_si_audit_draws_with_the_reduction(monkeypatch):
    """The sampled pir-si audit draws its (side set, target) pairs with the
    reduction's own draw, so a reduction whose target is the smallest index
    outside the side set fails it."""

    def smallest_target(k, num_side, rng):
        side = tuple(sorted(rng.sample(range(1, k + 1), num_side)))
        return side, min(i for i in range(1, k + 1) if i not in side)

    monkeypatch.setattr(reductions, "random_side_and_target", smallest_target)
    rep = audit_reduction_marginal(
        "pir-si", 2, 5, 1, F3, rng=random.Random(5), mode="sampled", samples=20000
    )
    assert not rep.passed


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


def test_full_layer_refuses_sampled_mode():
    """Sampled full views almost never repeat, so that audit could not see a
    leak; it is refused rather than reported."""
    with pytest.raises(ValueError, match="exhaustive only"):
        audit_joint_privacy(
            2, 2, 1, F3, rng=random.Random(1), layer="full", mode="sampled", samples=10
        )


@pytest.mark.parametrize(
    "audit_call",
    [
        lambda: audit_joint_privacy(2, 3, 2, F3),
        lambda: audit_individual_privacy(2, 4, 2, F3, protocol="iplc"),
        lambda: audit_reduction_marginal("pir-psi", 2, 3, 1, F3),
        lambda: audit_joint_privacy(2, 2, 1, F3, layer="full"),
    ],
    ids=["joint", "individual", "reduction", "joint-full"],
)
def test_every_exhaustive_audit_stops_at_the_path_budget(monkeypatch, audit_call):
    monkeypatch.setattr(audit, "_PATH_BUDGET", 5)
    with pytest.raises(ValueError, match="path budget exceeded") as caught:
        audit_call()
    # The full layer refuses sampled mode, so the advice names no mode.
    assert "sampled" not in str(caught.value)


def test_full_layer_refuses_up_front_what_cannot_fit(monkeypatch):
    """At K=3 D=1 the full layer needs T = 8, and one encoder path alone has
    8! 2^8 = 10,321,920 query draws, past the 2,000,000-path budget. The
    audit raises the budget error before it builds an encoder or a query."""

    def refuse(*args):
        raise AssertionError("the audit enumerated a path")

    monkeypatch.setattr(audit, "build_grs_matrix", refuse)
    monkeypatch.setattr(audit, "generate_queries", refuse)
    with pytest.raises(ValueError, match="path budget exceeded: more than 2,000,000 paths"):
        audit_joint_privacy(2, 3, 1, PrimeField(3), layer="full")


def test_query_draws_are_refused_without_forming_t_factorial(monkeypatch):
    """7! 2^7 = 645,120 query draws fit the budget and 8! 2^8 do not; a T in
    the tens of thousands is refused as fast as T = 8, with no T! formed."""
    assert 5040 * 2**7 <= audit._PATH_BUDGET < 40320 * 2**8

    def refuse(n):
        raise AssertionError(f"formed {n}!")

    monkeypatch.setattr(audit.math, "factorial", refuse)
    for t in (8, 2**16):
        with pytest.raises(ValueError, match="path budget exceeded"):
            next(audit._with_queries(iter(()), 2, t))


@pytest.mark.parametrize("budget", [1535, 1536])
def test_full_layer_counts_every_walk_path_against_the_budget(monkeypatch, budget):
    """At q=2 the joint-full audit walks 4 encoder paths by 384 query draws.
    It serialises each identity pattern's draws once, yet every encoder path
    still counts as its 384 walk paths: the draws fit both budgets, the
    1,536 walk paths only the second."""
    monkeypatch.setattr(audit, "_PATH_BUDGET", budget)
    if budget < 1536:
        with pytest.raises(ValueError, match="path budget exceeded"):
            audit_joint_privacy(2, 2, 1, PrimeField(2), layer="full")
    else:
        rep = audit_joint_privacy(2, 2, 1, PrimeField(2), layer="full")
        assert rep.passed and rep.weight == 1536


def test_the_path_budget_leaves_sampled_audits_alone(monkeypatch):
    monkeypatch.setattr(audit, "_PATH_BUDGET", 5)
    rep = audit_joint_privacy(2, 3, 2, F3, rng=random.Random(1), mode="sampled", samples=50)
    assert rep.weight == 50


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


@pytest.mark.parametrize(
    "audit_call",
    [
        lambda r, mode, t: audit_joint_privacy(2, 3, 2, F3, rng=r, mode=mode, samples=10, threshold=t),
        lambda r, mode, t: audit_individual_privacy(2, 5, 2, F3, rng=r, mode=mode, samples=10, threshold=t),
        lambda r, mode, t: audit_reduction_marginal("pir-si", 2, 4, 1, F3, rng=r, mode=mode, samples=10, threshold=t),
    ],
    ids=["joint", "individual", "reduction"],
)
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_audits_reject_a_threshold_that_is_not_finite(audit_call, mode, threshold):
    """inf overflowed the exhaustive audit's rational bound and passed a
    sampled audit, and nan failed every audit; now each raises before any
    path is drawn, so the rng is untouched."""
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="threshold must be finite"):
        audit_call(rng, mode, threshold)
    assert rng.getstate() == state


def test_full_layer_audit_rejects_a_threshold_that_is_not_finite():
    with pytest.raises(ValueError, match="threshold must be finite"):
        audit_joint_privacy(2, 2, 1, PrimeField(2), layer="full", threshold=float("inf"))


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
    caches = (plc_engine._build_skeleton, plc_engine._target_index, plc_engine._kept)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("q", [2, 3])
def test_full_layer_fails_a_leaking_engine(leaking_engine, q):
    rep = audit_joint_privacy(2, 2, 1, PrimeField(q), layer="full")
    assert not rep.passed
    assert rep.details["exact_statistic"] == "1"


def _assert_same_report(got, expected):
    for field in fields(AuditReport):
        assert getattr(got, field.name) == getattr(expected, field.name), field.name


# (N, K, D, q). The full layer has T = 4 at (2, 2, 1), T = 2 at (2, 2, 2) and
# T = 1 at N = 1.
FULL_LAYER_SHAPES = [
    (2, 2, 1, 2), (2, 2, 1, 3), (2, 2, 2, 2), (2, 2, 2, 3), (1, 2, 1, 2),
    (1, 2, 1, 3), (1, 3, 1, 3),
]


@pytest.mark.parametrize("n,k,d,q", FULL_LAYER_SHAPES)
def test_full_layer_matches_the_walk_oracle(n, k, d, q):
    """Adding each identity pattern's law by multiplicity gives the report
    of one serialisation per walk path, field by field."""
    field = PrimeField(q)
    _assert_same_report(
        audit_joint_privacy(n, k, d, field, layer="full"), audit_joint_full(n, k, d, field)
    )


@pytest.mark.parametrize("q", [2, 3])
def test_full_layer_matches_the_walk_oracle_on_a_leaking_engine(leaking_engine, q):
    field = PrimeField(q)
    got = audit_joint_privacy(2, 2, 1, field, layer="full")
    assert not got.passed
    _assert_same_report(got, audit_joint_full(2, 2, 1, field))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    full_rank_stacks(qs=(2, 3, 5, 7, 8191, 2**61 - 1), max_streams=4),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((1, 2)),
    st.randoms(use_true_random=False),
)
def test_a_query_draw_is_a_fixed_map_of_the_identity_pattern(case, n, reps, rnd):
    """generate_queries under (tau, s) is apply_pattern_map of the identity
    pattern with rho = tau and the positions that s flips, server by server,
    for every target. A row rescaling of the stack keeps the identity
    pattern, so it serialises identically under the same draw: the full
    layer may serialise one pattern's draws for every encoder path that has
    it."""
    stack, _ = case
    q, m, t = stack.field.q, stack.nrows, reps * n ** stack.nrows
    scales = [rnd.randrange(1, q) for _ in range(m)]
    rescaled = MatrixGF(
        [[c * a % q for c in row] for a, row in zip(scales, stack.rows)], stack.field
    )
    identity = identity_plc_randomness(t)
    for theta in range(1, m + 1):
        instance = PlcInstance(n, stack, theta, t)
        other = PlcInstance(n, rescaled, theta, t)
        pattern = generate_queries(instance, identity).per_server
        assert generate_queries(other, identity).per_server == pattern
        r = random_plc_randomness(t, rnd)
        rho = dict(enumerate(r.position_map, 1))
        flips = {v for v, sign in enumerate(r.signs, 1) if sign == -1}
        served = generate_queries(instance, r).per_server
        assert served == tuple(apply_pattern_map(blocks, rho, flips, q) for blocks in pattern)
        assert generate_queries(other, r).per_server == served


@pytest.mark.parametrize(
    "n,stack,t", [(2, [[1], [2]], 4), (2, [[1, 2], [1, 1], [0, 1]], 8), (3, [[1], [2], [1]], 27)]
)
def test_certificate_fails_on_a_leaking_engine(leaking_engine, n, stack, t):
    c = MatrixGF(stack, F3)
    rep = certify_engine_privacy(n, c, t)
    assert not rep.passed
    assert rep.details["failed"] == repr((1, 2, 1))
    assert rep.weight == 0
    _assert_same_report(rep, certificate_oracle.certify_engine_privacy(n, c, t))
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
        c = MatrixGF(stack, F3)
        rep = certify_engine_privacy(2, c, t)
        assert rep.passed, rep.details
        assert rep.weight == comb(c.nrows, 2) * 2
        _assert_same_report(rep, certificate_oracle.certify_engine_privacy(2, c, t))


def test_certify_engine_privacy_three_servers():
    c = MatrixGF([[1], [2], [1]], F3)
    rep = certify_engine_privacy(3, c, 27)
    assert rep.passed and rep.weight == 3 * 3
    _assert_same_report(rep, certificate_oracle.certify_engine_privacy(3, c, 27))


# ---------------------------------------------------------------------------
# The certificate checks target 1 against every other target; checking every
# pair of targets (the oracle) gives the same report, field by field.

@settings(max_examples=30, derandomize=True, deadline=None)
@given(full_rank_stacks(max_streams=4), st.sampled_from((1, 2, 3)), st.sampled_from((1, 2)))
def test_certificate_matches_the_all_pairs_oracle(case, n, reps):
    stack, _ = case
    t = reps * n**stack.nrows
    _assert_same_report(
        certify_engine_privacy(n, stack, t),
        certificate_oracle.certify_engine_privacy(n, stack, t),
    )


# ---------------------------------------------------------------------------
# Exact statistics in ints against the Fraction oracle: the same paths judged
# both ways give the same report, field by field.

def _judge_both(monkeypatch):
    """Make every audit judge its paths with the library and with the
    oracle; returns the list of (library report, oracle report) pairs."""
    pairs = []
    real = audit._judge

    def both(
        kind, layer, mode, threshold, paths, views, labels, members, target, details,
        multiplicity=None,
    ):
        paths = list(paths)
        args = (kind, layer, mode, threshold, paths, views, labels, members, target)
        got = real(*args, dict(details), multiplicity)
        pairs.append((got, statistics_oracle.judge(*args, dict(details), multiplicity)))
        return got

    monkeypatch.setattr(audit, "_judge", both)
    return pairs


# Every exhaustive report that the tests, CI and the benchmark produce, but
# two that take a second or more to walk: CI's K = 4 D = 2 q = 5 joint audit
# and the K = 5 D = 2 q = 3 individual audit, whose shape the biased-route
# case below walks.
EXHAUSTIVE_AUDITS = {
    "joint-K3-D2-q3": lambda: audit_joint_privacy(2, 3, 2, F3),
    **{
        f"joint-full-N{n}-K{k}-D{d}-q{q}": (
            lambda n=n, k=k, d=d, q=q: audit_joint_privacy(n, k, d, PrimeField(q), layer="full")
        )
        for n, k, d, q in FULL_LAYER_SHAPES
    },
    "individual-iplc-K4-D2-q3": lambda: audit_individual_privacy(2, 4, 2, F3),
    "individual-jplc-K3-D1-q3": lambda: audit_individual_privacy(2, 3, 1, F3, protocol="jplc"),
    "pir-psi-K3-S1-q3": lambda: audit_reduction_marginal("pir-psi", 2, 3, 1, F3),
    "pir-si-K4-S1-q3": lambda: audit_reduction_marginal("pir-si", 2, 4, 1, F3),
}


@pytest.mark.parametrize("name", EXHAUSTIVE_AUDITS)
def test_integer_statistics_match_the_fraction_oracle(monkeypatch, name):
    pairs = _judge_both(monkeypatch)
    rep = EXHAUSTIVE_AUDITS[name]()
    assert rep.passed and rep.details["exact_statistic"] == "0"
    ((got, expected),) = pairs
    _assert_same_report(got, expected)


@pytest.mark.parametrize("q", [2, 3])
def test_integer_statistics_match_the_fraction_oracle_on_a_leaking_engine(
    leaking_engine, monkeypatch, q
):
    pairs = _judge_both(monkeypatch)
    rep = audit_joint_privacy(2, 2, 1, PrimeField(q), layer="full")
    assert rep.details["exact_statistic"] == "1"
    ((got, expected),) = pairs
    _assert_same_report(got, expected)


def test_integer_statistics_match_the_fraction_oracle_on_a_biased_route(monkeypatch):
    """iplc's route 1 drawn with probability p1 + 1/5: the posterior of a
    stream index moves by exactly 1/5 in some view."""
    real = iplc_encoder._shape_table

    def biased(k, d, q):
        shape = real(k, d, q)
        return shape._replace(p1=shape.p1 + Fraction(1, 5))

    monkeypatch.setattr(iplc_encoder, "_shape_table", biased)
    pairs = _judge_both(monkeypatch)
    rep = audit_individual_privacy(2, 5, 2, F3)
    assert not rep.passed and rep.details["exact_statistic"] == "1/5"
    ((got, expected),) = pairs
    _assert_same_report(got, expected)


@pytest.mark.parametrize(
    "protocol,k,d,marginal,exact",
    [("jplc", 3, 2, False, "1"), ("iplc", 4, 2, True, "1/2")],
)
def test_integer_statistics_match_the_fraction_oracle_on_a_leaking_view(
    protocol, k, d, marginal, exact
):
    supports = list(combinations(range(1, k + 1), d))
    paths = list(_paths("exhaustive", protocol, [(s, s) for s in supports], 2, k, F3, None, 0))

    def leak(enc):
        return ((0, enc.supports[enc.demand_index - 1]),)

    if marginal:
        question = (range(1, k + 1), lambda s: s, Fraction(d, k))
    else:
        question = (supports, lambda s: (s,), None)
    got = _judge("leak", "encoder", "exhaustive", None, paths, leak, *question, {})
    assert got.details["exact_statistic"] == exact
    _assert_same_report(
        got, statistics_oracle.judge("leak", "encoder", "exhaustive", None, paths, leak, *question, {})
    )


def test_exact_marginal_statistic_compares_deviations_across_views():
    """A heavy view with a small deviation must not mask a light view with a
    large one: views compare by deviation, not by its numerator."""
    counts = {"heavy": (100, {1: 60}), "light": (2, {1: 2})}
    got = audit.exact_marginal_statistic(counts, [1], Fraction(1, 2))
    assert got == Fraction(1, 2)
    assert got == statistics_oracle.exact_marginal_statistic(counts, [1], Fraction(1, 2))
