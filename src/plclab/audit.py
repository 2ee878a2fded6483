"""Audits for recoverability, privacy, and reduction marginals.

Each privacy guarantee is a statement about one conditional law of a
server's view: under joint privacy every demanded support is equally likely
given the view, under individual privacy every stream index is demanded with
probability D / K, and a reduction's hidden target stays uniform. One engine
checks them all. A path source yields (weight, label, artifact) paths,
`collect` adds up mass per (view, label), and a statistic compares the
labels' conditional view laws. Exhaustive audits enumerate every run with
its exact probability and compare exact rationals; they either certify a
guarantee outright or exhibit a counterexample. Sampled audits estimate the
same posteriors from finitely many runs; raw per-view frequencies are noisy,
so the reported statistic accumulates only deviations that clear a
three-sigma allowance for the view's sample count, weighted by view mass.

The server view at the encoder layer is the published pair (G, C_1..C_M).
The full layer appends the server's serialised query blocks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF
from .iplc_encoder import (
    IplcDraws,
    algorithm_probabilities,
    build_partition_matrix,
    free_alpha_positions,
    partition_shape,
    planted_slot_map,
)
from .jplc_encoder import JplcDraws, build_grs_matrix
from .plc_engine import (
    PlcInstance,
    PlcRandomness,
    generate_queries,
    identity_plc_randomness,
    random_plc_randomness,
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


def encoder_view(encoder) -> tuple:
    """The published artifact: generator rows and combination vectors."""
    return (
        encoder.generator.rows,
        tuple(cv.entries for cv in encoder.combination_vectors),
    )


def server_full_view(encoder, descriptor, server: int) -> tuple:
    return encoder_view(encoder) + (descriptor.per_server[server - 1],)


_DUMMY = random.Random(0)


# ---------------------------------------------------------------------------
# Exhaustive transcript enumerators. Weights are conditional on the demanded
# support; the demand coefficients are part of the enumeration.

def enumerate_jplc_paths(
    support: Tuple[int, ...],
    num_servers: int,
    num_streams: int,
    field: PrimeField,
) -> Iterable[Tuple[Fraction, Demand, object]]:
    k, d, q = num_streams, len(support), field.q
    base = (
        Fraction(1, (q - 1) ** d)
        * Fraction(1, (q - 1) ** (k - d))
        * Fraction(1, math.factorial(k))
    )
    for v_vals in product(range(1, q), repeat=d):
        demand = Demand(support, VectorGF(v_vals, field))
        for padding in product(range(1, q), repeat=k - d):
            for omega in permutations(range(k)):
                draws = JplcDraws(omega_assignment=omega, padding=padding)
                enc = build_grs_matrix(
                    num_servers, demand, k, field, _DUMMY, draws
                )
                yield base, demand, enc


def enumerate_iplc_paths(
    support: Tuple[int, ...],
    num_streams: int,
    field: PrimeField,
) -> Iterable[Tuple[Fraction, Demand, object]]:
    k, d, q = num_streams, len(support), field.q
    _, n, m = partition_shape(k, d)
    v_weight = Fraction(1, (q - 1) ** d)
    # Planting route, its probability and its block count; a route with no
    # blocks (algorithm 2 when D | K, algorithm 1 when n = 0) yields no path.
    p1, p2 = algorithm_probabilities(k, d)
    branches = [(1, p1, n), (2, p2, m)]
    for v_vals in product(range(1, q), repeat=d):
        demand = Demand(support, VectorGF(v_vals, field))
        for alg, p_alg, block_count in branches:
            for block in range(1, block_count + 1):
                for sigma in permutations(range(1, d + 1)):
                    planted = planted_slot_map(demand, k, sigma, alg, block)
                    free_slots = [
                        s for s in range(1, k + 1) if s not in planted
                    ]
                    free_streams = [
                        i
                        for i in range(1, k + 1)
                        if i not in set(planted.values())
                    ]
                    keys = free_alpha_positions(k, d, alg, block)
                    w = (
                        v_weight
                        * p_alg
                        * Fraction(1, block_count)
                        * Fraction(1, math.factorial(d))
                        * Fraction(1, math.factorial(k - d))
                        * Fraction(1, (q - 1) ** len(keys))
                    )
                    for stream_perm in permutations(free_streams):
                        pi = [0] * k
                        for slot, stream in planted.items():
                            pi[slot - 1] = stream
                        for slot, stream in zip(free_slots, stream_perm):
                            pi[slot - 1] = stream
                        for alpha_vals in product(
                            range(1, q), repeat=len(keys)
                        ):
                            draws = IplcDraws(
                                algorithm=alg,
                                block_index=block,
                                sigma=sigma,
                                pi=tuple(pi),
                                free_alphas=dict(zip(keys, alpha_vals)),
                            )
                            enc = build_partition_matrix(
                                demand, k, field, _DUMMY, draws
                            )
                            yield w, demand, enc


def _paths_for(
    protocol: str,
    support: Tuple[int, ...],
    num_servers: int,
    num_streams: int,
    field: PrimeField,
):
    if protocol == "jplc":
        return enumerate_jplc_paths(support, num_servers, num_streams, field)
    if protocol == "iplc":
        return enumerate_iplc_paths(support, num_streams, field)
    raise ValueError(f"unknown protocol {protocol!r}")


# ---------------------------------------------------------------------------
# The audit engine: path sources, collection, statistics.

def _encoder(protocol, num_servers, demand, num_streams, field, rng):
    if protocol == "jplc":
        return build_grs_matrix(num_servers, demand, num_streams, field, rng)
    if protocol == "iplc":
        return build_partition_matrix(demand, num_streams, field, rng)
    raise ValueError(f"unknown protocol {protocol!r}")


def _paths(
    mode, protocol, labelled, num_servers, num_streams, field, rng, samples, draw=None
):
    """(weight, label, encoder) paths over (label, support) pairs.

    The demand prior is uniform over `labelled`. Exhaustive mode enumerates
    every encoder run of every pair, weighted by its probability given the
    support. Sampled mode runs the encoder `samples` times, each on a pair
    from draw(rng) (a uniform pick by default) with fresh coefficients.
    """
    if mode == "exhaustive":
        for label, support in labelled:
            for w, _, enc in _paths_for(
                protocol, support, num_servers, num_streams, field
            ):
                yield w, label, enc
        return
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if rng is None:
        raise ValueError("sampled mode needs an rng")
    for _ in range(samples):
        if draw is None:
            label, support = labelled[rng.randrange(len(labelled))]
        else:
            label, support = draw(rng)
        coefficients = [field.rand_nonzero_int(rng) for _ in support]
        demand = Demand(support, VectorGF(coefficients, field))
        yield 1, label, _encoder(
            protocol, num_servers, demand, num_streams, field, rng
        )


def _checked(labelled, num_servers, num_streams, mode, samples):
    """labelled, once there is something to audit: N >= 1, K >= 1, a
    nonempty label set and, in sampled mode, at least one sample."""
    if num_servers < 1:
        raise ValueError("need at least one server")
    if num_streams < 1 or not labelled:
        raise ValueError(f"no demand to audit at K = {num_streams}: the label set is empty")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, got {samples}")
    return labelled


def _with_queries(paths, mode, num_servers, stream_length, rng):
    """Extend encoder paths by the engine's query randomness: every (position
    map, signs) pair with its exact weight when exhaustive, one draw when
    sampled. Yields (weight, label, (encoder, descriptor))."""
    for w, label, enc in paths:
        stack = MatrixGF([cv.entries for cv in enc.combination_vectors], enc.field)
        instance = PlcInstance(num_servers, stack, enc.demand_index, stream_length)
        if mode == "exhaustive":
            w = w * Fraction(1, math.factorial(stream_length) * 2**stream_length)
            draws = (
                PlcRandomness(tau, signs)
                for tau in permutations(range(1, stream_length + 1))
                for signs in product((1, -1), repeat=stream_length)
            )
        else:
            draws = (random_plc_randomness(stream_length, rng),)
        for randomness in draws:
            yield w, label, (enc, generate_queries(instance, randomness))


def _published_view(enc) -> tuple:
    return ((0, encoder_view(enc)),)


def _served_views(path) -> tuple:
    enc, descriptor = path
    return tuple(
        (server, server_full_view(enc, descriptor, server))
        for server in range(1, descriptor.num_servers + 1)
    )


def collect(paths, views, max_paths: Optional[int] = None):
    """Mass per view and label over (weight, label, artifact) paths.

    views(artifact) lists the (server, view) pairs a path shows, server 0
    being the published encoder view; each gets the path's weight. Returns
    ({view: {label: mass}}, number of paths), views in first-seen order.
    More than max_paths paths raise ValueError.
    """
    mass: Dict[tuple, Dict[object, object]] = {}
    count = 0
    for weight, label, artifact in paths:
        for view in views(artifact):
            per_label = mass.setdefault(view, {})
            per_label[label] = per_label.get(label, 0) + weight
        count += 1
        if max_paths is not None and count > max_paths:
            raise ValueError(
                "path budget exceeded; shrink parameters or use sampled mode"
            )
    return mass, count


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
# Statistics over view_counts: view -> (n_v, mass per label), exact
# rationals for exhaustive audits and counts for sampled ones.

def exact_pairwise_tv_statistic(view_counts, labels):
    """Worst total variation between two labels' view laws at one server.

    Keys are (server, view) pairs and masses are conditional on the label.
    Returns the distance and the first (label_a, label_b, server) at it, or
    None in place of that triple when the distance is zero."""
    rows: Dict[int, list] = {}
    for (server, _), (_, hits) in view_counts.items():
        rows.setdefault(server, []).append(hits)
    worst, worst_pair = Fraction(0), None
    for a, b in combinations(labels, 2):
        for server, hs in rows.items():
            tv = sum((abs(h.get(a, 0) - h.get(b, 0)) for h in hs), Fraction(0)) / 2
            if tv > worst:
                worst, worst_pair = tv, (a, b, server)
    return worst, worst_pair


def exact_marginal_statistic(view_counts, labels, target: Fraction) -> Fraction:
    """Worst |P(label | view) - target| over views and labels."""
    worst = Fraction(0)
    for total, hits in view_counts.values():
        for label in labels:
            worst = max(worst, abs(hits.get(label, 0) / total - target))
    return worst


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
    worst = 0.0
    for label in labels:
        acc = 0.0
        for nv, hits in view_counts.values():
            p_hat = hits.get(label, 0) / nv
            allowance = 3.0 * _sigma_floor(target, nv)
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
    for a, b in combinations(labels, 2):
        acc = 0.0
        for nv, hits in view_counts.values():
            pa = hits.get(a, 0) / nv
            pb = hits.get(b, 0) / nv
            allowance = 3.0 * math.sqrt(2.0) * _sigma_floor(target, nv)
            excess = abs(pa - pb) - allowance
            if excess > 0:
                acc += (nv / n) * excess
        worst = max(worst, (num_labels / 2.0) * acc)
    return worst



def _judge(
    kind, layer, mode, threshold, paths, views, labels, members, target, details,
    max_paths=None,
) -> AuditReport:
    """Collect the paths and test the labels' conditional view laws: with
    target None they must coincide pairwise, otherwise every label must keep
    posterior `target` in every view, a path counting for each label that
    members(path label) names."""
    mass, weight = collect(paths, views, max_paths)
    counts = _member_counts(mass, members)
    if mode == "exhaustive":
        if threshold is None:
            threshold = 0.0
        if target is None:
            worst, worst_pair = exact_pairwise_tv_statistic(counts, labels)
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
    runs = {"jplc": run_jplc, "iplc": run_iplc}
    if protocol not in runs:
        raise ValueError(f"unknown protocol {protocol!r}: expected jplc or iplc")
    if num_servers < 1:
        raise ValueError("need at least one server")
    run = runs[protocol]
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

# Exhaustive joint audits stop beyond this many paths.
_PATH_BUDGET = 2_000_000


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
    pairwise statistic.
    """
    supports = list(combinations(range(1, num_streams + 1), demand_size))
    if layer not in ("encoder", "full"):
        raise ValueError("layer must be 'encoder' or 'full'")
    labelled = _checked(
        [(s, s) for s in supports], num_servers, num_streams, mode, samples
    )
    paths = _paths(
        mode, "jplc", labelled, num_servers, num_streams, field, rng, samples
    )
    views = _published_view
    if layer == "full":
        stream_length = minimum_stream_length(
            "jplc", num_servers, num_streams, demand_size
        )
        paths = _with_queries(paths, mode, num_servers, stream_length, rng)
        views = _served_views
    return _judge(
        "joint-privacy", layer, mode, threshold, paths, views, supports,
        lambda s: (s,), None, {"supports": len(supports)},
        _PATH_BUDGET if mode == "exhaustive" else None,
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
    labelled = _checked(
        [(s, s) for s in combinations(range(1, k + 1), d)],
        num_servers, k, mode, samples,
    )
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
    labelled = _checked([
        (i_star, tuple(sorted(side + (i_star,))))
        for side in combinations(range(1, k + 1), num_side)
        for i_star in range(1, k + 1)
        if i_star not in side
    ], num_servers, k, mode, samples)
    target = Fraction(1, k)

    def draw(r: random.Random):
        side = tuple(sorted(r.sample(range(1, k + 1), num_side)))
        rest = [i for i in range(1, k + 1) if i not in side]
        i_star = rest[r.randrange(len(rest))]
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
# construction fixes the map: sum i of a plan names the same (server, round,
# subset, coordinate) for every target, so the certificate pairs sum i across
# the two targets, reads the map off the pairs and verifies it on the
# serialised patterns.

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
    Under identity randomness engine position v of repetition r is served at
    v + r N^M + 1, so the map of one repetition repeats at each offset.
    """
    kept = plan_a.kept[server]
    found = kept == plan_b.kept[server] and _sum_map(
        (plan_a.sums[i], plan_b.sums[i]) for block in kept for i in block
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
    for every demand index, by exhibiting pattern isomorphisms."""
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
    for a, b in combinations(range(m), 2):
        for server in range(num_servers):
            found = _engine_map(plans[a], plans[b], server, stream_length)
            if found is None or apply_pattern_map(
                patterns[a][server], *found, q
            ) != patterns[b][server]:
                failed = (a + 1, b + 1, server + 1)
                break
            checked += 1
        if failed:
            break
    return AuditReport(
        kind="engine-privacy",
        layer="full",
        mode="certificate",
        passed=failed is None,
        statistic=0.0 if failed is None else 1.0,
        threshold=0.0,
        weight=checked,
        num_views=m,
        details={
            "pairs": m * (m - 1) // 2,
            "servers": num_servers,
            "failed": repr(failed),
        },
    )
