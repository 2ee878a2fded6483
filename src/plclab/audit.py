"""Audits for recoverability, privacy, and reduction marginals.

Each privacy guarantee is a statement about one conditional law of a
server's view: under joint privacy every demanded support is equally likely
given the view, under individual privacy every stream index is demanded with
probability D / K, and a reduction's hidden target stays uniform. One engine
checks them all. A path source yields (weight, label, artifact) paths,
`collect` adds up mass per (view, label), and a statistic compares the
labels' conditional view laws. Exhaustive audits walk every outcome of the
encoders' own draws with its exact probability and compare exact rationals;
they either certify a guarantee outright or exhibit a counterexample. The
exact masses are ints over one common denominator, so the statistics compare
ints and form one Fraction per report.
Sampled audits estimate the same posteriors from finitely many runs; raw
per-view frequencies are noisy, so the reported statistic accumulates only
deviations that clear a three-sigma allowance for the view's sample count,
weighted by view mass.

The server view at the encoder layer is the published pair (G, C_1..C_M).
The full layer appends the server's serialised query blocks. It is
exhaustive only: the queries range over T! 2^T draws, so sampled views
almost never repeat, and a view seen once never clears the allowance. A
draw is a fixed map of the encoder path's identity pattern, so the full
layer serialises each identity pattern's draws once per audit and adds
every path's views by their draw counts (see `_with_queries`).

The engine certificate checks that every target's identity pattern maps
onto every other's by a position relabelling and sign flips. Such maps
compose, so it checks target 1 against each other target (see
`certify_engine_privacy`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations, product
from typing import Dict, Optional, Sequence, Tuple

from . import plc_engine, reductions
from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF
from .iplc_encoder import build_partition_matrix
from .jplc_encoder import build_grs_matrix
from .plc_engine import (
    PlcInstance,
    PlcRandomness,
    generate_queries,
    identity_plc_randomness,
)
from .protocol_core import Demand, random_demand, random_dataset
from .protocols import minimum_stream_length, run_iplc, run_jplc


@dataclass(frozen=True)
class AuditReport:
    kind: str
    layer: str
    mode: str
    passed: bool
    statistic: float
    threshold: float
    weight: int  # enumerated paths or drawn samples
    num_views: int
    details: dict

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{self.kind} [{self.layer}/{self.mode}] statistic="
            f"{self.statistic:.6g} threshold={self.threshold:g} "
            f"views={self.num_views} weight={self.weight} {verdict}"
        )


# ---------------------------------------------------------------------------
# Exhaustive walks over a run's own draws.

class _Walk:
    """The rng of `_outcomes`. It models the calls the encoders' and the
    engine's draws make: randrange(start, stop), choice(seq), shuffle(x),
    and random(), which returns a token (the walk itself) that may only be
    compared as `random() < p` with an exact p. Draw i takes outcome
    script[i][0]; past the script's end it takes outcome 0 and records its
    outcome count as script[i][1]. num / den is the probability of the
    outcomes taken. `_outcomes` sets the state."""

    def _next(self, count):
        self.at += 1
        if self.at > len(self.script):
            self.script.append([0, count])
        return self.script[self.at - 1][0]

    def randrange(self, start, stop):
        if stop <= start:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        self.den *= stop - start
        return start + self._next(stop - start)

    def choice(self, seq):
        return seq[self.randrange(0, len(seq))]

    def shuffle(self, x):
        for i in reversed(range(1, len(x))):  # random.shuffle's Fisher-Yates
            j = self.randrange(0, i + 1)
            x[i], x[j] = x[j], x[i]

    def random(self):
        return self

    def __lt__(self, p):
        if isinstance(p, float):
            raise TypeError("random() must be compared with an exact probability, not a float")
        p = min(max(Fraction(p), 0), 1)  # random() lies in [0, 1)
        branches = [(w, b) for w, b in ((p, True), (1 - p, False)) if w]
        w, outcome = branches[self._next(len(branches))]
        self.num *= w.numerator
        self.den *= w.denominator
        return outcome


def _outcomes(run):
    """(exact probability, run(rng)) for every outcome of run's draws, depth
    first. After each run the script advances like an odometer and drops the
    draws after the one it moved, so draws that depend on earlier outcomes
    are walked in full."""
    walk = _Walk()
    walk.script = script = []
    while True:
        walk.at, walk.num, walk.den = 0, 1, 1
        result = run(walk)
        yield Fraction(walk.num, walk.den), result
        while script and script[-1][0] + 1 == script[-1][1]:
            script.pop()
        if not script:
            return
        script[-1][0] += 1


# ---------------------------------------------------------------------------
# The audit engine: path sources, collection, statistics.

# Exhaustive audits stop beyond this many paths.
_PATH_BUDGET = 2_000_000


def _paths(
    mode, protocol, labelled, num_servers, num_streams, field, rng, samples, draw=None
):
    """(weight, label, encoder) paths over (label, support) pairs.

    The demand prior is uniform over `labelled`. A path is one run(support,
    rng): draw the demand coefficients, then build the encoder. Exhaustive
    mode walks every outcome of the run's draws for every pair, weighted by
    its probability given the support. Sampled mode makes `samples` runs,
    each on a pair from draw(rng) (a uniform pick by default). Bad inputs
    raise here, before any path is drawn.
    """
    if num_servers < 1:
        raise ValueError("need at least one server")
    if num_streams < 1 or not labelled:
        raise ValueError(f"no demand to audit at K = {num_streams}: the label set is empty")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, got {samples}")
    if mode == "sampled" and rng is None:
        raise ValueError("sampled mode needs an rng")
    n, k = num_servers, num_streams
    # The encoders are looked up when a path is built, so a patched module
    # attribute (a tracer's, say) is the one called.
    if protocol == "jplc":
        build = lambda demand, r: build_grs_matrix(n, demand, k, field, r)
    elif protocol == "iplc":
        build = lambda demand, r: build_partition_matrix(demand, k, field, r)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    def run(support, r):
        coefficients = [field.rand_nonzero_int(r) for _ in support]  # in [1, q)
        return build(Demand(support, VectorGF.of_reduced(coefficients, field)), r)

    if mode == "exhaustive":
        return (
            (w, label, enc)
            for label, support in labelled
            for w, enc in _outcomes(partial(run, support))
        )
    draw = draw or (lambda r: labelled[r.randrange(len(labelled))])

    def sampled():
        for _ in range(samples):
            label, support = draw(rng)
            yield 1, label, run(support, rng)

    return sampled()


def _over_budget(max_paths: int) -> ValueError:
    return ValueError(
        f"path budget exceeded: more than {max_paths:,} paths; shrink the parameters"
    )


def _query_draws(stream_length: int) -> int:
    """|R| = T! 2^T, the engine's (position map, signs) draws. It is formed
    one factor at a time and returned as soon as it passes _PATH_BUDGET, so
    a large T never forms T!: a T too large for the budget fails at t = 8."""
    draws = 1
    for t in range(1, stream_length + 1):
        draws *= 2 * t
        if draws > _PATH_BUDGET:
            break
    return draws


def _query_law(instance, randomness) -> tuple:
    """Per server, ((blocks, number of draws), ...) over the draws of
    randomness, in first-seen order. Each draw goes through the engine's own
    serialisation, the one `generate_queries` wraps; only its blocks are
    read, so no descriptor is built and nothing is kept on the instance."""
    serialise = plc_engine._serialise
    law = [{} for _ in range(instance.num_servers)]
    for r in randomness:
        for counts, blocks in zip(law, serialise(instance, r)[0]):
            counts[blocks] = counts.get(blocks, 0) + 1
    return tuple(tuple(counts.items()) for counts in law)


def _with_queries(paths, num_servers, stream_length):
    """Extend encoder paths by the engine's query randomness R, every
    (position map, signs) pair, each of probability 1 / |R|. Yields (weight /
    |R|, label, (encoder, law)) per encoder path, which stands for its |R|
    walk paths: law lists, per server, each distinct block tuple that the
    draws serialise to, with its number of draws. When one encoder path's
    draws alone exceed _PATH_BUDGET, the first step raises the budget's
    ValueError, before any path is drawn.

    Lemma: for a draw (tau, s), generate_queries(instance, (tau, s)).per_server
    equals, server by server, apply_pattern_map(p, rho = tau, flips = {v :
    s_v = -1}, q) of the instance's identity pattern p =
    generate_queries(instance, identity_plc_randomness(T)).per_server, since
    a draw only relabels positions, flips signs and renormalises each sum.
    So encoder paths with equal identity patterns serialise equally under
    every draw. The first path with a pattern walks R through the engine's
    own serialisation (`_query_law`; not `apply_pattern_map`, so a leak in
    the engine still shows), and every later path with that pattern reuses
    its law. The laws live for one audit.

    The draws are built once per audit. They are permutations of 1..T and
    +1/-1 tuples by construction, so each PlcRandomness is filled without
    re-running its checks."""
    draws = _query_draws(stream_length)
    if draws > _PATH_BUDGET:
        raise _over_budget(_PATH_BUDGET)
    per_draw = Fraction(1, draws)
    randomness = []
    for tau in permutations(range(1, stream_length + 1)):
        for signs in product((1, -1), repeat=stream_length):
            r = object.__new__(PlcRandomness)
            vars(r).update(position_map=tau, signs=signs)
            randomness.append(r)
    identity = identity_plc_randomness(stream_length)
    laws: Dict[tuple, tuple] = {}
    for w, label, enc in paths:
        stack = MatrixGF([cv.entries for cv in enc.combination_vectors], enc.field)
        instance = PlcInstance(num_servers, stack, enc.demand_index, stream_length)
        pattern = generate_queries(instance, identity).per_server
        law = laws.get(pattern)
        if law is None:
            law = laws[pattern] = _query_law(instance, randomness)
        yield w * per_draw, label, (enc, law)


def _encoder_view(enc) -> tuple:
    """The published artifact: generator rows and combination vectors."""
    return (enc.generator.rows, tuple([cv.entries for cv in enc.combination_vectors]))


def _published_view(enc) -> tuple:
    return ((0, _encoder_view(enc)),)


def _served_views(path) -> tuple:
    """((server, view), number of draws) for each server's block tuples."""
    enc, law = path
    published = _encoder_view(enc)
    return tuple(
        ((server, published + (blocks,)), count)
        for server, counts in enumerate(law, 1)
        for blocks, count in counts
    )


def collect(
    paths, views, max_paths: Optional[int] = None, multiplicity: Optional[int] = None
):
    """Mass per view and label over (weight, label, artifact) paths.

    views(artifact) lists the (server, view) pairs a path shows, server 0
    being the published encoder view; each gets the path's weight. Returns
    ({view: {label: mass}}, number of paths, scale), views and each view's
    labels in first-seen order: every mass is an int, and mass / scale is
    the label's exact mass. Int weights (sampled paths) add as ints, at scale
    1. An exact Fraction weight adds its numerator per (view, label,
    denominator); at the end each label's mass is brought to one common
    denominator, the lcm of those seen, which is the scale. So no Fraction
    is formed per path or per label. More than max_paths paths raise
    ValueError.

    With a multiplicity m, each path stands for m walk paths and counts as
    m, and views(artifact) lists ((server, view), count) pairs: the view
    gets count times the path's weight.
    """
    mass: Dict[tuple, Dict[object, object]] = {}
    dens = set()
    count = 0
    for weight, label, artifact in paths:
        if type(weight) is int and multiplicity is None:
            for view in views(artifact):
                per_label = mass.setdefault(view, {})
                per_label[label] = per_label.get(label, 0) + weight
        else:
            den, num = weight.denominator, weight.numerator
            dens.add(den)
            shown = views(artifact) if multiplicity else ((v, 1) for v in views(artifact))
            for view, times in shown:
                per_den = mass.setdefault(view, {}).setdefault(label, {})
                per_den[den] = per_den.get(den, 0) + num * times
        count += multiplicity or 1
        if max_paths is not None and count > max_paths:
            raise _over_budget(max_paths)
    scale = math.lcm(*dens)
    if dens:
        factor = {d: scale // d for d in dens}
        for per_label in mass.values():
            for label, per_den in per_label.items():
                per_label[label] = sum(n * factor[d] for d, n in per_den.items())
    return mass, count, scale


def _member_counts(mass, members):
    """view -> (view mass, mass per member), where a label's mass counts for
    every member that members(label) names."""
    out = {}
    for view, per_label in mass.items():
        hits: Dict[object, object] = {}
        for label, m in per_label.items():
            for member in members(label):
                hits[member] = hits.get(member, 0) + m
        out[view] = (sum(per_label.values()), hits)
    return out


# ---------------------------------------------------------------------------
# Statistics over view_counts: view -> (n_v, mass per label), exact masses
# (ints over collect's scale) for exhaustive audits and counts for sampled
# ones.

def exact_pairwise_tv_statistic(view_counts, labels, scale: int = 1):
    """Worst total variation between two labels' view laws at one server.

    Keys are (server, view) pairs and mass / scale is a label's mass
    conditional on the label, so the distance between labels a and b at a
    server is sum |a - b| / (2 scale) over its views. The sums compare as
    ints, and the worst forms the one Fraction. Returns the distance and the
    first (label_a, label_b, server) at it, or None in place of that triple
    when the distance is zero."""
    rows: Dict[int, list] = {}
    for (server, _), (_, hits) in view_counts.items():
        rows.setdefault(server, []).append(hits)
    worst, worst_pair = 0, None
    for a, b in combinations(labels, 2):
        for server, hs in rows.items():
            tv = sum(abs(h.get(a, 0) - h.get(b, 0)) for h in hs)
            if tv > worst:
                worst, worst_pair = tv, (a, b, server)
    return Fraction(worst, 2 * scale), worst_pair


def exact_marginal_statistic(view_counts, labels, target: Fraction) -> Fraction:
    """Worst |P(label | view) - target| over views and labels.

    The masses' scale cancels in the posterior hits / total. With target =
    num / den, a view's deviation is |hits den - total num| / (total den), so
    views compare by cross-multiplication and the worst forms the one
    Fraction."""
    num, den = target.numerator, target.denominator
    worst_num, worst_den = 0, 1
    for total, hits in view_counts.values():
        dev = max((abs(hits.get(label, 0) * den - total * num) for label in labels), default=0)
        if dev * worst_den > worst_num * total * den:
            worst_num, worst_den = dev, total * den
    return Fraction(worst_num, worst_den)


def _sigma_floor(target: float, n_v: int) -> float:
    return math.sqrt(max(target * (1 - target), 1e-12) / n_v)


def debiased_marginal_statistic(
    view_counts: Dict[object, Tuple[int, Dict[object, int]]],
    labels: Sequence[object],
    target: float,
) -> float:
    """Mass-weighted posterior deviation beyond a 3-sigma allowance.

    view_counts maps view -> (n_v, hits per label). The statistic for one
    label sums (n_v / n) * max(0, |hit rate - target| - 3 sigma(n_v)); the
    reported value is the worst label's sum. Exactly private transcripts give
    0 up to sampling flukes; a real bias survives the debiasing as soon as
    the heavy views accumulate enough samples.
    """
    n = sum(nv for nv, _ in view_counts.values())
    if n == 0:
        return 0.0
    views = [
        (nv, hits, 3.0 * _sigma_floor(target, nv)) for nv, hits in view_counts.values()
    ]
    worst = 0.0
    for label in labels:
        acc = 0.0
        for nv, hits, allowance in views:
            p_hat = hits.get(label, 0) / nv
            excess = abs(p_hat - target) - allowance
            if excess > 0:
                acc += (nv / n) * excess
        worst = max(worst, acc)
    return worst


def debiased_pairwise_tv_statistic(
    view_counts: Dict[object, Tuple[int, Dict[object, int]]],
    labels: Sequence[object],
) -> float:
    """Estimated worst-pair total variation between conditional view laws.

    Uses TV(P_a, P_b) = (L / 2) * E_view |p(a|view) - p(b|view)| under the
    uniform label prior, with per-view noise debiased at 3 sigma.
    """
    n = sum(nv for nv, _ in view_counts.values())
    if n == 0:
        return 0.0
    num_labels = len(labels)
    target = 1.0 / num_labels
    worst = 0.0
    views = [
        (nv, hits, 3.0 * math.sqrt(2.0) * _sigma_floor(target, nv))
        for nv, hits in view_counts.values()
    ]
    for a, b in combinations(labels, 2):
        acc = 0.0
        for nv, hits, allowance in views:
            pa = hits.get(a, 0) / nv
            pb = hits.get(b, 0) / nv
            excess = abs(pa - pb) - allowance
            if excess > 0:
                acc += (nv / n) * excess
        worst = max(worst, (num_labels / 2.0) * acc)
    return worst



def _judge(
    kind, layer, mode, threshold, paths, views, labels, members, target, details,
    multiplicity=None,
) -> AuditReport:
    """Collect the paths and test the labels' conditional view laws: with
    target None they must coincide pairwise, otherwise every label must keep
    posterior `target` in every view, a path counting for each label that
    members(path label) names; `multiplicity` is collect's. Exhaustive
    paths stop at _PATH_BUDGET. A threshold that is not finite raises
    ValueError before any path is drawn."""
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"the audit threshold must be finite, got {threshold}")
    mass, weight, scale = collect(
        paths, views, _PATH_BUDGET if mode == "exhaustive" else None, multiplicity
    )
    counts = _member_counts(mass, members)
    if mode == "exhaustive":
        if threshold is None:
            threshold = 0.0
        if target is None:
            worst, worst_pair = exact_pairwise_tv_statistic(counts, labels, scale)
            details["worst_pair"] = repr(worst_pair)
        else:
            worst = exact_marginal_statistic(counts, labels, target)
        details["exact_statistic"] = str(worst)
        passed = worst <= Fraction(threshold).limit_denominator(10**9)
        statistic = float(worst)
    else:
        if threshold is None:
            threshold = 0.02
        if target is None:
            statistic = debiased_pairwise_tv_statistic(counts, labels)
        else:
            statistic = debiased_marginal_statistic(counts, labels, float(target))
        passed = statistic <= threshold
    return AuditReport(
        kind=kind,
        layer=layer,
        mode=mode,
        passed=passed,
        statistic=statistic,
        threshold=threshold,
        weight=weight,
        num_views=len({view for _, view in mass}),
        details=details,
    )


# ---------------------------------------------------------------------------
# Recoverability.

def audit_recoverability(
    protocol: str,
    num_servers: int,
    num_streams: int,
    demand_size: int,
    field: PrimeField,
    rng: random.Random,
    trials: int = 50,
    repetitions: int = 1,
) -> AuditReport:
    """Run full random transcripts and compare against direct evaluation."""
    run = {"jplc": run_jplc, "iplc": run_iplc}.get(protocol)
    if run is None:
        raise ValueError(f"unknown protocol {protocol!r}: expected jplc or iplc")
    if num_servers < 1:
        raise ValueError("need at least one server")
    if trials < 1:
        raise ValueError(f"recoverability needs at least one trial, got {trials}")
    t_len = repetitions * minimum_stream_length(
        protocol, num_servers, num_streams, demand_size
    )
    failures = 0
    first_failure = None
    for trial in range(trials):
        dataset = random_dataset(field, num_streams, t_len, rng)
        demand = random_demand(field, num_streams, demand_size, rng)
        result = run(num_servers, dataset, demand, rng)
        expected = demand.evaluate(dataset).entries
        if tuple(result.recovered) != expected:
            failures += 1
            if first_failure is None:
                first_failure = {
                    "trial": trial,
                    "demand_indices": list(demand.indices),
                    "demand_coefficients": list(demand.coefficients.entries),
                }
    return AuditReport(
        kind="recoverability",
        layer="run",
        mode="sampled",
        passed=failures == 0,
        statistic=float(failures),
        threshold=0.0,
        weight=trials,
        num_views=trials,
        details={
            "protocol": protocol,
            "failures": failures,
            "first_failure": first_failure,
            "stream_length": t_len,
        },
    )


# ---------------------------------------------------------------------------
# Joint privacy.

def audit_joint_privacy(
    num_servers: int,
    num_streams: int,
    demand_size: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    layer: str = "encoder",
    mode: str = "exhaustive",
    samples: int = 10000,
    threshold: Optional[float] = None,
) -> AuditReport:
    """Are conditional view distributions identical across demanded supports?

    Exhaustive mode compares exact conditional distributions (one per
    support) and reports the worst pairwise total variation, which must be
    exactly zero. Sampled mode estimates the same quantity with the debiased
    pairwise statistic, at the encoder layer only (see the module docstring).
    """
    supports = list(combinations(range(1, num_streams + 1), demand_size))
    if layer not in ("encoder", "full"):
        raise ValueError("layer must be 'encoder' or 'full'")
    if layer == "full" and mode == "sampled":
        raise ValueError(
            "the full layer is exhaustive only: sampled query views almost "
            "never repeat, so a sampled audit cannot see a leak"
        )
    paths = _paths(
        mode, "jplc", [(s, s) for s in supports], num_servers, num_streams,
        field, rng, samples,
    )
    views, multiplicity = _published_view, None
    if layer == "full":
        stream_length = minimum_stream_length(
            "jplc", num_servers, num_streams, demand_size
        )
        paths = _with_queries(paths, num_servers, stream_length)
        views, multiplicity = _served_views, _query_draws(stream_length)
    return _judge(
        "joint-privacy", layer, mode, threshold, paths, views, supports,
        lambda s: (s,), None, {"supports": len(supports)}, multiplicity,
    )


# ---------------------------------------------------------------------------
# Individual privacy.

def audit_individual_privacy(
    num_servers: int,
    num_streams: int,
    demand_size: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    protocol: str = "iplc",
    mode: str = "exhaustive",
    samples: int = 100000,
    threshold: Optional[float] = None,
) -> AuditReport:
    """Does every stream index keep membership probability D / K given the
    encoder view, under the uniform demand prior?"""
    k, d = num_streams, demand_size
    labelled = [(s, s) for s in combinations(range(1, k + 1), d)]
    target = Fraction(d, k)
    paths = _paths(
        mode, protocol, labelled, num_servers, k, field, rng, samples
    )
    return _judge(
        "individual-privacy", "encoder", mode, threshold, paths,
        _published_view, range(1, k + 1), lambda s: s, target,
        {"protocol": protocol, "target": str(target)},
    )


# ---------------------------------------------------------------------------
# Reduction marginal: the fetched index must stay uniform given the view.

def audit_reduction_marginal(
    reduction: str,
    num_servers: int,
    num_streams: int,
    num_side: int,
    field: PrimeField,
    rng: Optional[random.Random] = None,
    mode: str = "exhaustive",
    samples: int = 100000,
    threshold: Optional[float] = None,
) -> AuditReport:
    """Posterior of the reduction's hidden target index given the encoder
    view, against the uniform 1/K baseline."""
    if reduction not in ("pir-psi", "pir-si"):
        raise ValueError("reduction must be 'pir-psi' or 'pir-si'")
    protocol = "jplc" if reduction == "pir-psi" else "iplc"
    k = num_streams
    # Uniform over (side set, target) pairs; the label is the target.
    labelled = [
        (i_star, tuple(sorted(side + (i_star,))))
        for side in combinations(range(1, k + 1), num_side)
        for i_star in range(1, k + 1)
        if i_star not in side
    ]
    target = Fraction(1, k)

    def draw(r: random.Random):
        # The reduction's own draw, looked up when called.
        side, i_star = reductions.random_side_and_target(k, num_side, r)
        return i_star, tuple(sorted(side + (i_star,)))

    paths = _paths(
        mode, protocol, labelled, num_servers, k, field, rng, samples, draw
    )
    return _judge(
        "reduction-marginal", "encoder", mode, threshold, paths,
        _published_view, range(1, k + 1), lambda i: (i,), target,
        {"reduction": reduction, "target": str(target)},
    )


# ---------------------------------------------------------------------------
# Engine-layer certificate: the canonical query patterns for any two demand
# indices differ only by a position relabeling plus sign flips, which proves
# the randomised queries are identically distributed. The engine's
# construction fixes the map: a plan lists its kept sums by (server, round,
# subset, coordinate) the same way for every target, so the certificate pairs
# them across the two targets, reads the map off the pairs and verifies it on
# the serialised patterns.

def _sum_map(pairs):
    """(rho, flips) carrying the first sum of every pair onto the second, or
    None.

    pairs yields (sum_a, sum_b) tuples of (stream, position, sign) terms; a
    sign may be any coefficient, only whether two of them differ counts.
    Paired terms must share their stream, and rho must stay a bijection. The
    flips two-colour the constraints flip(position) xor gauge(sum) = [signs
    differ], where a sum's gauge is its free overall sign.
    """
    rho, rev, edges = {}, {}, {}
    for j, (sum_a, sum_b) in enumerate(pairs):
        for (ka, pa, ca), (kb, pb, cb) in zip(sum_a, sum_b):
            if ka != kb or rho.setdefault(pa, pb) != pb or rev.setdefault(pb, pa) != pa:
                return None
            for x, y in ((pa, ~j), (~j, pa)):  # the gauge of sum j is node ~j
                edges.setdefault(x, []).append((y, ca != cb))
    colour = {}
    for start in edges:
        if start in colour:
            continue
        colour[start] = False
        queue = [start]
        for x in queue:
            for y, diff in edges[x]:
                c = colour[x] ^ diff
                if y not in colour:
                    colour[y] = c
                    queue.append(y)
                elif colour[y] != c:
                    return None
    return rho, {p for p in rho if colour[p]}


def _engine_map(plan_a, plan_b, server: int, stream_length: int):
    """(rho, flips) on served positions carrying server's (0-based) sums of
    plan_a onto plan_b's, or None.

    Both plans keep the same sums, since the trim depends on the stack only.
    `QueryPlan.kept_terms` lists them at the same places for every target,
    under their streams' own labels. Under identity randomness engine
    position v of repetition r is served at v + r N^M + 1, so the map of one
    repetition repeats at each offset.
    """
    found = plan_a.trim[0].basis == plan_b.trim[0].basis and _sum_map(
        zip(plan_a.kept_terms[server], plan_b.kept_terms[server])
    )
    if not found:
        return None
    rho, flips = found
    # N^M: the target's peel covers every position of a repetition.
    shifts = range(1, stream_length + 1, len(plan_a.peel[0]))
    return (
        {v + r: w + r for v, w in rho.items() for r in shifts},
        {v + r for v in flips for r in shifts},
    )


def apply_pattern_map(blocks, rho, flips, q: int):
    """Transform a pattern by a certificate and renormalise each sum."""
    out = []
    for block in blocks:
        new_sums = []
        for s in block:
            terms = []
            for k, p, c in s:
                c2 = c if p not in flips else (-c) % q
                terms.append((k, rho[p], c2))
            terms.sort()
            lead = terms[0][2]
            if lead != 1:
                inv = pow(lead, q - 2, q)
                terms = [(k, p, (c * inv) % q) for k, p, c in terms]
            new_sums.append(tuple(terms))
        out.append(tuple(sorted(new_sums)))
    return tuple(out)


def certify_engine_privacy(
    num_servers: int,
    combination_matrix: MatrixGF,
    stream_length: int,
) -> AuditReport:
    """Prove (or refute) that the engine's query distribution is identical
    for every demand index, by exhibiting pattern isomorphisms.

    Target 1 is the reference: at each server its pattern is mapped onto
    those of targets 2..M, which is M - 1 maps per server, not C(M, 2).
    That suffices because the maps compose. Paired positions sit at the same
    (round, subset, coordinate) places in every plan, so the maps 1 -> a and
    1 -> b compose into a map a -> b whose pairing is the one `_engine_map`
    reads for (a, b), with the flips composed by xor. `apply_pattern_map`
    acts as a group action up to the per-sum renormalisation, and a map
    that differs from the composition only by flipping a whole component of
    its constraints (all positions and gauges at once) gives the same
    normalised sums. So every pair passes when the pairs (1, b) do. Those
    are the first M - 1 pairs in `combinations` order, so a failure names
    the same first (a, b, server), after the same number of checked maps,
    as checking every pair would; a pass has weight C(M, 2) N, every (pair,
    server) map that the checked ones imply."""
    m = combination_matrix.nrows
    q = combination_matrix.field.q
    ident = identity_plc_randomness(stream_length)
    plans, patterns = [], []
    for k_star in range(1, m + 1):
        instance = PlcInstance(
            num_servers, combination_matrix, k_star, stream_length
        )
        plans.append(instance.plan)
        patterns.append(generate_queries(instance, ident).per_server)
    checked = 0
    failed = None
    for b in range(1, m):
        for server in range(num_servers):
            found = _engine_map(plans[0], plans[b], server, stream_length)
            if found is None or apply_pattern_map(
                patterns[0][server], *found, q
            ) != patterns[b][server]:
                failed = (1, b + 1, server + 1)
                break
            checked += 1
        if failed:
            break
    pairs = m * (m - 1) // 2
    return AuditReport(
        kind="engine-privacy",
        layer="full",
        mode="certificate",
        passed=failed is None,
        statistic=0.0 if failed is None else 1.0,
        threshold=0.0,
        weight=checked if failed else pairs * num_servers,
        num_views=m,
        details={
            "pairs": pairs,
            "servers": num_servers,
            "failed": repr(failed),
        },
    )
