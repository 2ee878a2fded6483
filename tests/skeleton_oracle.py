"""The engine's skeleton built directly for any target theta.

This is the construction as the scheme states it, one target at a time:
positions are allocated fresh in server-major, lexicographic order for every
(ell-1)-subset that avoids theta, a subset that contains theta concatenates
the other servers' tables for the subset without theta, and signs alternate
over each sum's interference with (-1)^(ell-1) on theta. The library builds
only theta = M and relabels streams for the other targets; the tests compare
that relabelling against this oracle.
"""

from array import array
from itertools import combinations
from typing import Dict, List, Tuple


def other_servers(server: int, num_servers: int) -> List[int]:
    return [n for n in range(1, num_servers + 1) if n != server]


def sign_pattern(s: tuple, theta: int) -> Dict[int, int]:
    """Sign of each stream's term in the sum over subset s: alternating over
    the interference part, (-1)^(ell-1) on the target."""
    rest = [x for x in s if x != theta]
    eps_of = {x: (-1) ** i for i, x in enumerate(rest)}
    if theta in s:
        eps_of[theta] = (-1) ** (len(s) - 1)
    return eps_of


def build_skeleton(num_servers: int, num_streams: int, theta: int):
    """(sums, groups, first, peel) for target theta, in the layout of
    `plc_engine._build_skeleton`, with every stream under its own label.

    sums[i] is a tuple of (stream, position, eps) terms sorted by stream;
    groups[server-1][ell-1] lists the round's (subset bitmask, first) pairs;
    first[(server, mask)] is the index of the subset's first sum; peel holds
    the columns (v, sum, source, sign) of the target's fresh positions.
    """
    n, m = num_servers, num_streams
    streams = range(1, m + 1)
    val: Dict[tuple, Tuple[int, ...]] = {}
    sums: List[tuple] = []
    groups = [[[] for _ in streams] for _ in range(n)]
    first: Dict[Tuple[int, int], int] = {}
    peel = tuple(array("q") for _ in range(4))
    counter = 0
    for ell in streams:
        slot_count = (n - 1) ** (ell - 1)
        sub_slot = (n - 1) ** (ell - 2) if ell >= 2 else 0
        for server in range(1, n + 1):
            for u in combinations(streams, ell - 1):
                if theta in u:
                    rest = tuple(x for x in u if x != theta)
                    inherited = []
                    for n2 in other_servers(server, n):
                        inherited.extend(val[(n2, rest)])
                    val[(server, u)] = tuple(inherited)
                else:
                    val[(server, u)] = tuple(range(counter, counter + slot_count))
                    counter += slot_count
        subsets = [
            (s, sum(1 << (x - 1) for x in s), sign_pattern(s, theta))
            for s in combinations(streams, ell)
        ]
        for server in range(1, n + 1):
            others = other_servers(server, n)
            for s, mask, eps_of in subsets:
                at = first[(server, mask)] = len(sums)
                groups[server - 1][ell - 1].append((mask, at))
                for coord in range(slot_count):
                    sums.append(tuple(
                        (x, val[(server, tuple(y for y in s if y != x))][coord], eps_of[x])
                        for x in s
                    ))
                if theta not in s:
                    continue
                rest = tuple(x for x in s if x != theta)
                for coord, v in enumerate(val[(server, rest)]):
                    src = -1
                    if ell >= 2:
                        src = first[(others[coord // sub_slot], mask ^ 1 << (theta - 1))]
                        src += coord % sub_slot
                    for column, value in zip(peel, (v, at + coord, src, eps_of[theta])):
                        column.append(value)
    groups = tuple(tuple(map(tuple, server)) for server in groups)
    return tuple(sums), groups, first, peel
