"""The exact statistics in Fractions.

This is how an exhaustive audit judged its paths before its masses became
ints over one common denominator: `collect` forms each label's mass as a
Fraction, and the statistics add and compare Fractions. `judge` is the
exhaustive branch of `audit._judge` on that arithmetic; the tests feed it
the same paths as the library and compare the reports field by field.
"""

import math
from fractions import Fraction
from itertools import combinations

from plclab import audit
from plclab.audit import AuditReport, _member_counts, _over_budget


def collect(paths, views, max_paths=None, multiplicity=None):
    """({view: {label: Fraction mass}}, number of paths) over exact paths:
    numerators add per (view, label, denominator), and each label's
    Fraction is their sum."""
    mass = {}
    count = 0
    for weight, label, artifact in paths:
        den, num = weight.denominator, weight.numerator
        shown = views(artifact) if multiplicity else ((v, 1) for v in views(artifact))
        for view, times in shown:
            per_den = mass.setdefault(view, {}).setdefault(label, {})
            per_den[den] = per_den.get(den, 0) + num * times
        count += multiplicity or 1
        if max_paths is not None and count > max_paths:
            raise _over_budget(max_paths)
    for per_label in mass.values():
        for label, per_den in per_label.items():
            per_label[label] = sum(Fraction(n, d) for d, n in per_den.items())
    return mass, count


def exact_pairwise_tv_statistic(view_counts, labels):
    rows = {}
    for (server, _), (_, hits) in view_counts.items():
        rows.setdefault(server, []).append(hits)
    worst, worst_pair = Fraction(0), None
    for a, b in combinations(labels, 2):
        for server, hs in rows.items():
            tv = sum((abs(h.get(a, 0) - h.get(b, 0)) for h in hs), Fraction(0)) / 2
            if tv > worst:
                worst, worst_pair = tv, (a, b, server)
    return worst, worst_pair


def exact_marginal_statistic(view_counts, labels, target):
    worst = Fraction(0)
    for total, hits in view_counts.values():
        for label in labels:
            worst = max(worst, abs(hits.get(label, 0) / total - target))
    return worst


def judge(
    kind, layer, mode, threshold, paths, views, labels, members, target, details,
    multiplicity=None,
):
    """`audit._judge` in exhaustive mode, on Fraction masses."""
    assert mode == "exhaustive"
    if threshold is not None and not math.isfinite(threshold):
        raise ValueError(f"the audit threshold must be finite, got {threshold}")
    mass, weight = collect(paths, views, audit._PATH_BUDGET, multiplicity)
    counts = _member_counts(mass, members)
    if threshold is None:
        threshold = 0.0
    if target is None:
        worst, worst_pair = exact_pairwise_tv_statistic(counts, labels)
        details["worst_pair"] = repr(worst_pair)
    else:
        worst = exact_marginal_statistic(counts, labels, target)
    details["exact_statistic"] = str(worst)
    return AuditReport(
        kind=kind,
        layer=layer,
        mode=mode,
        passed=worst <= Fraction(threshold).limit_denominator(10**9),
        statistic=float(worst),
        threshold=threshold,
        weight=weight,
        num_views=len({view for _, view in mass}),
        details=details,
    )
