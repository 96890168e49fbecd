"""Figure 10: overall iso-area speedup, 20-PE FINGERS vs 40-PE FlexMiner.

Paper: 2.8x geometric mean, up to 8.9x.  Per-graph trends follow the
single-PE setting, with memory effects amplified: the low-degree large
graphs (Yo, Pa) gain least because bandwidth, not compute, binds.
"""

from repro.bench import experiments, geometric_mean


def test_fig10_overall(benchmark, publish):
    result = benchmark.pedantic(
        experiments.fig10, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("fig10", result.render())

    grid = result.grid
    assert 1.5 < result.mean < 9.0, result.mean
    assert result.max < 20.0

    # Iso-area halves the PE count, so chip speedups must sit below the
    # single-PE speedups of Figure 9 on average.
    fig9 = experiments.fig9()  # cached runs; cheap second time
    assert result.mean < fig9.mean

    def col_mean(g):
        return geometric_mean([grid[(p, g)] for p in result.patterns])

    # The small cache-resident graphs keep scaling with PEs.
    assert col_mean("Mi") > 1.5
    # Yo/Pa stay the weakest columns (memory-latency bound).
    weakest_two = sorted(result.graphs, key=col_mean)[:2]
    assert set(weakest_two) <= {"Yo", "Pa", "As"}
