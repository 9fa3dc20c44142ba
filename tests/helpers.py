"""Shared builders for randomized test instances.

Everything is seeded: the same seed always yields the same graph, assignment,
or matrix, so failures reproduce.
"""

import math
import random
import sys

from arbx import (
    ArbitrageWitness,
    BasisAssignment,
    CheckResult,
    MarketGraph,
    canonical_basis,
    complete,
    cycle_log_gain,
    fundamental_cycles,
    generate_graph,
    spanning_tree,
)
from arbx.exchange import require_tol

KINDS = ("tree", "gnp-connected", "preferential-attachment", "complete")
CYCLIC_KINDS = ("gnp-connected", "preferential-attachment", "complete")


def random_connected_graph(seed, n_lo=2, n_hi=8, require_chord=False) -> MarketGraph:
    rng = random.Random(seed)
    if require_chord:
        n = rng.randint(max(n_lo, 3), max(n_hi, 3))
        kind = rng.choice(CYCLIC_KINDS)
        g = _gen(kind, n, rng)
        while len(g.simple_edges) <= g.n - 1:
            g = _gen(kind, n, rng)
        return g
    return _gen(rng.choice(KINDS), rng.randint(n_lo, n_hi), rng)


def _gen(kind, n, rng) -> MarketGraph:
    seed = rng.randrange(2**32)
    if kind == "gnp-connected":
        return generate_graph(kind, n, p=0.6, seed=seed)
    if kind == "preferential-attachment":
        return generate_graph(kind, n, m=min(2, n - 1), seed=seed)
    return generate_graph(kind, n, seed=seed)


def random_assignment(g: MarketGraph, seed, scale=2.0) -> BasisAssignment:
    rng = random.Random(seed)
    spec = canonical_basis(g)
    return BasisAssignment(
        spec=spec, values=tuple(rng.uniform(-scale, scale) for _ in spec.entries)
    )


def random_log_matrix(g: MarketGraph, seed, scale=2.0):
    return complete(random_assignment(g, seed, scale=scale))


def chords_of(g: MarketGraph, spec) -> list[tuple[int, int]]:
    tree = {(min(i, j), max(i, j)) for i, j in spec.entries}
    return [e for e in g.simple_edges if e not in tree]


def reference_check_no_arbitrage(e, tol=1e-9):
    """The per-chord checker, kept as the reference for the array version:
    antisymmetry conditions, then each fundamental cycle's gain summed by
    ``cycle_log_gain``, then the worst failing condition as the witness."""
    require_tol(tol)
    g = e.graph
    arr = e.entries
    conditions = []
    for v in g.loops:
        conditions.append(((v, v), (v, v), float(arr[v - 1, v - 1])))
    for i, j in g.simple_edges:
        conditions.append(((i, j), (i, j, i), float(arr[i - 1, j - 1] + arr[j - 1, i - 1])))
    for fc in fundamental_cycles(g, spanning_tree(g)):
        conditions.append((fc.chord, fc.cycle, cycle_log_gain(e, fc.cycle)))
    max_abs = max((abs(gain) for _, _, gain in conditions), default=0.0)
    bad = [c for c in conditions if abs(c[2]) > tol]
    if not bad:
        return CheckResult(True, None, len(conditions), max_abs)
    _, cycle, gain = min(bad, key=lambda c: (-abs(c[2]), c[0]))
    mult = math.exp(gain) if gain <= math.log(sys.float_info.max) else math.inf
    witness = ArbitrageWitness(cycle=tuple(cycle), log_gain=gain, multiplicative_gain=mult)
    return CheckResult(False, witness, len(conditions), max_abs)
