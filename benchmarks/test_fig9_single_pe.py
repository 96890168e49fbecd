"""Figure 9: single-PE speedups of FINGERS over FlexMiner.

Paper: 6.2x geometric mean, up to 13.2x; Yo benefits least; tt and cyc
see the highest gains; clique patterns gain less (no set-level
parallelism).
"""

from repro.bench import experiments, geometric_mean


def test_fig9_single_pe(benchmark, publish):
    result = benchmark.pedantic(
        experiments.fig9, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("fig9", result.render())

    grid = result.grid
    # Headline shape: a clear multi-x mean win, with several-x spread.
    assert 3.0 < result.mean < 13.0, result.mean
    assert result.max < 25.0
    assert all(v > 1.0 for v in grid.values()), "FINGERS must never lose"

    def col_mean(g):
        return geometric_mean([grid[(p, g)] for p in result.patterns])

    # Yo gains least among the large graphs (lowest degree -> least
    # fine-grained parallelism).
    assert col_mean("Yo") <= min(col_mean(g) for g in ("Lj", "Or", "As", "Mi"))

    def row_mean(p):
        return geometric_mean([grid[(p, g)] for g in result.graphs])

    # Subtraction-heavy patterns beat plain triangle counting on average.
    assert row_mean("tt") > row_mean("tc")
    # Large graphs with hubs (Lj/Or) are where FINGERS shines most.
    assert col_mean("Lj") > col_mean("Pa")
