"""Deterministic synthetic graph generators.

The paper evaluates on six SNAP/real graphs that are not redistributable
here, so :mod:`repro.graph.datasets` builds scaled-down analogs from these
generators.  Every generator takes an explicit ``seed`` and is fully
deterministic, so benchmarks are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "powerlaw_configuration",
    "planted_cliques",
    "rmat",
    "complete_graph",
    "star_graph",
    "cycle_graph",
    "path_graph",
]


def _rng(seed: int, label: str) -> np.random.Generator:
    """Seeded generator plus a sanitizer probe.

    Recording the (generator, seed) pair on construction means a
    double-run trace diverges as soon as any caller varies seeds or
    generator call order between runs — without paying to digest every
    draw on the fast path.
    """
    if sanitize.is_active():
        sanitize.emit("rng", label, seed)
    return np.random.default_rng(seed)


def erdos_renyi(n: int, p: float, *, seed: int = 0) -> CSRGraph:
    """G(n, p) random graph.

    Uses the geometric-skipping method so the cost is proportional to the
    number of edges rather than ``n**2``.  The skips are drawn in batches
    (``rng.random(k)``), which is the same PCG64 stream as one
    ``rng.random()`` per skip; the walk ends at the same skip either way.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = _rng(seed, "erdos_renyi")
    total = n * (n - 1) // 2
    if p == 0.0 or n <= 1:
        idx = np.empty(0, dtype=np.int64)
    elif p >= 1.0:
        idx = np.arange(total, dtype=np.int64)
    else:
        idx = _geometric_walk(rng, p, total)
    # Convert linear indices of the pairs in lexicographic order to
    # (u, v), u < v.
    u = ((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * idx)) // 2).astype(np.int64)
    v = u + 1 + idx - u * (2 * n - u - 1) // 2
    return from_edges(np.stack([u, v], axis=1), num_vertices=n)


def _geometric_walk(rng: np.random.Generator, p: float, total: int) -> np.ndarray:
    """Linear indices in ``[0, total)`` of the pairs G(n, p) keeps.

    Each index is the previous one plus ``1 + floor(log(1 - r) / log(1 - p))``
    for the next uniform ``r``; the walk ends at the first skip that
    reaches ``total``.
    """
    log1mp = np.log1p(-p)
    batch = int(p * total + 4 * np.sqrt(p * total)) + 16
    parts = []
    last = -1
    while True:
        r = rng.random(min(batch, total + 1))
        # A tiny p overflows the gap to inf, which ends the walk.
        with np.errstate(over="ignore"):
            gaps = np.floor(np.log1p(-r) / log1mp)
        # Clipping at ``total`` keeps the int cast exact and still ends
        # the walk at the same skip.
        idx = last + np.cumsum(1 + np.minimum(gaps, total).astype(np.int64))
        stop = int(np.searchsorted(idx, total))
        parts.append(idx[:stop])
        if stop < idx.size:
            return np.concatenate(parts)
        last = int(idx[-1])


def barabasi_albert(n: int, m: int, *, seed: int = 0) -> CSRGraph:
    """Preferential-attachment graph: each new vertex attaches to ``m`` others.

    Produces the heavy-tailed degree distribution typical of social
    networks, with a handful of very-high-degree hubs — the regime where the
    paper's load-imbalance argument (section 2.3) bites.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    rng = _rng(seed, "barabasi_albert")
    # Repeated-nodes list for preferential attachment.
    repeated: list[int] = []
    edges: list[tuple[int, int]] = []
    targets = list(range(m))
    for source in range(m, n):
        chosen = set()
        for t in targets:
            if t != source:
                chosen.add(t)
        for t in chosen:
            edges.append((source, t))
            repeated.append(source)
            repeated.append(t)
        # Choose m targets for the next vertex.
        if repeated:
            picks = rng.integers(0, len(repeated), size=m * 3)
            nxt: list[int] = []
            seen: set[int] = set()
            for pidx in picks:
                cand = repeated[int(pidx)]
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
                if len(nxt) == m:
                    break
            while len(nxt) < m:
                cand = int(rng.integers(0, source + 1))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
            targets = nxt
        else:
            targets = list(range(m))
    return from_edges(edges, num_vertices=n)


def powerlaw_configuration(
    n: int,
    *,
    exponent: float = 2.5,
    min_degree: int = 1,
    max_degree: int | None = None,
    seed: int = 0,
) -> CSRGraph:
    """Configuration-model graph with a power-law degree sequence.

    Degrees are drawn from ``P(d) ∝ d**-exponent`` on
    ``[min_degree, max_degree]``, stubs are paired uniformly at random, and
    self loops / multi-edges are dropped (so realized degrees are close to,
    not exactly, the drawn sequence — the standard erased configuration
    model).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if min_degree < 1:
        raise ValueError("min_degree must be >= 1")
    rng = _rng(seed, "powerlaw_configuration")
    hi = max_degree if max_degree is not None else max(min_degree + 1, n - 1)
    hi = min(hi, n - 1) if n > 1 else 1
    ds = np.arange(min_degree, hi + 1, dtype=np.float64)
    weights = ds ** (-exponent)
    weights /= weights.sum()
    degrees = rng.choice(
        np.arange(min_degree, hi + 1), size=n, p=weights
    ).astype(np.int64)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(0, n))] += 1
    stubs = np.repeat(np.arange(n), degrees)
    rng.shuffle(stubs)
    return from_edges(stubs.reshape(-1, 2), num_vertices=n)


def planted_cliques(
    n: int,
    *,
    num_cliques: int,
    clique_size: int,
    background_p: float = 0.0,
    seed: int = 0,
) -> CSRGraph:
    """Random background graph with dense cliques planted on random vertices.

    Used to build a "Mico-like" analog: a modest-sized graph that is rich in
    cliques, exercising the branch-level-parallelism-dominated regime of the
    clique benchmarks (paper section 6.2).
    """
    if clique_size > n:
        raise ValueError("clique_size cannot exceed n")
    rng = _rng(seed, "planted_cliques")
    parts = [np.empty((0, 2), dtype=np.int64)]
    if background_p > 0:
        parts.append(erdos_renyi(n, background_p, seed=seed + 1).edge_array())
    if num_cliques > 0:
        members = np.stack([
            rng.choice(n, size=clique_size, replace=False)
            for _ in range(num_cliques)
        ])
        i, j = np.triu_indices(clique_size, 1)
        parts.append(np.stack([members[:, i], members[:, j]], axis=2).reshape(-1, 2))
    return from_edges(np.concatenate(parts), num_vertices=n)


def rmat(
    scale: int,
    edge_factor: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> CSRGraph:
    """Recursive-matrix (Graph500-style) generator: ``2**scale`` vertices.

    RMAT graphs have strongly skewed degree distributions and community-ish
    structure, a good stand-in for web/social graphs such as LiveJournal.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("a + b + c must be in (0, 1)")
    n = 1 << scale
    num_edges = n * edge_factor
    rng = _rng(seed, "rmat")
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_edges)
        bit_src = (r >= a + b).astype(np.int64)
        r2 = rng.random(num_edges)
        # Conditional quadrant choice.
        top = r < a + b
        bit_dst = np.where(
            top,
            (r2 >= a / (a + b)).astype(np.int64),
            (r2 >= c / (1 - a - b)).astype(np.int64),
        )
        src = (src << 1) | bit_src
        dst = (dst << 1) | bit_dst
    return from_edges(np.stack([src, dst], axis=1), num_vertices=n)


def complete_graph(n: int) -> CSRGraph:
    """K_n."""
    return from_edges(
        [(i, j) for i in range(n) for j in range(i + 1, n)], num_vertices=n
    )


def star_graph(n_leaves: int) -> CSRGraph:
    """Vertex 0 connected to ``n_leaves`` leaves — a single extreme hub."""
    return from_edges([(0, i) for i in range(1, n_leaves + 1)])


def cycle_graph(n: int) -> CSRGraph:
    """C_n (requires ``n >= 3``)."""
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges([(i, (i + 1) % n) for i in range(n)], num_vertices=n)


def path_graph(n: int) -> CSRGraph:
    """P_n."""
    return from_edges([(i, i + 1) for i in range(n - 1)], num_vertices=n)
