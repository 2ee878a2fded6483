"""The full-layer joint audit with one serialisation per walk path.

This is the walk as the audit defines it: every encoder path is extended by
every (position map, signs) pair of the engine's query randomness, each
extended path is serialised by `generate_queries`, and each server's view is
the published pair with that server's query blocks appended. The library
serialises each identity pattern's draws once per audit and adds the views
by multiplicity; the tests compare its reports with this oracle field by
field.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from plclab import audit
from plclab.audit import _encoder_view, _judge, _over_budget, _paths
from plclab.gflinalg import MatrixGF
from plclab.plc_engine import PlcInstance, PlcRandomness, generate_queries
from plclab.protocols import minimum_stream_length


def with_queries(paths, num_servers, stream_length):
    """Extend encoder paths by every (position map, signs) pair of the
    engine's query randomness, with its exact weight. Yields (weight, label,
    (encoder, descriptor))."""
    draws = 1
    for t in range(1, stream_length + 1):
        draws *= 2 * t
        if draws > audit._PATH_BUDGET:
            raise _over_budget(audit._PATH_BUDGET)
    per_draw = Fraction(1, draws)
    randomness = [
        PlcRandomness(tau, signs)
        for tau in permutations(range(1, stream_length + 1))
        for signs in product((1, -1), repeat=stream_length)
    ]
    for w, label, enc in paths:
        stack = MatrixGF([cv.entries for cv in enc.combination_vectors], enc.field)
        instance = PlcInstance(num_servers, stack, enc.demand_index, stream_length)
        w = w * per_draw
        for r in randomness:
            yield w, label, (enc, generate_queries(instance, r))


def served_views(path) -> tuple:
    enc, descriptor = path
    published = _encoder_view(enc)
    return tuple(
        (server, published + (blocks,))
        for server, blocks in enumerate(descriptor.per_server, 1)
    )


def audit_joint_full(num_servers, num_streams, demand_size, field):
    """`audit_joint_privacy(..., layer="full")`, one path per query draw."""
    supports = list(combinations(range(1, num_streams + 1), demand_size))
    paths = _paths(
        "exhaustive", "jplc", [(s, s) for s in supports], num_servers,
        num_streams, field, None, 0,
    )
    stream_length = minimum_stream_length("jplc", num_servers, num_streams, demand_size)
    return _judge(
        "joint-privacy", "full", "exhaustive", None,
        with_queries(paths, num_servers, stream_length), served_views, supports,
        lambda s: (s,), None, {"supports": len(supports)},
    )
