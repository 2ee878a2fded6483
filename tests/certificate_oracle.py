"""The engine certificate that checks every pair of targets.

This is the certificate as its argument states it: for each pair (a, b) of
targets and each server, read the map off the paired sums of the two plans
and check that it carries a's serialised pattern onto b's. The library
checks target 1 against each other target only, since the maps compose; the
tests compare its reports with this oracle field by field.
"""

from itertools import combinations

from plclab.audit import AuditReport, _engine_map, apply_pattern_map
from plclab.plc_engine import PlcInstance, generate_queries, identity_plc_randomness


def certify_engine_privacy(num_servers, combination_matrix, stream_length):
    """`audit.certify_engine_privacy`, one map per (pair, server)."""
    m = combination_matrix.nrows
    q = combination_matrix.field.q
    ident = identity_plc_randomness(stream_length)
    plans, patterns = [], []
    for k_star in range(1, m + 1):
        instance = PlcInstance(num_servers, combination_matrix, k_star, stream_length)
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
