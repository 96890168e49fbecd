"""Figure 13: shared-cache miss rate vs capacity (cyc pattern).

Paper: Mi stays near zero at every capacity (cache resident); Yo is
insensitive (short lists, high reuse); Lj is capacity-sensitive, and
FINGERS misses less than FlexMiner there (fewer PEs competing and
streaming reuse of long lists).
"""

from repro.bench import experiments


def test_fig13_cache(benchmark, publish):
    result = benchmark.pedantic(
        experiments.fig13, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("fig13", result.render())

    c = result.curves
    caps = result.capacities_mb

    # Mi fits: miss rates tiny for both designs at every capacity.
    for design in ("FINGERS", "FlexMiner"):
        for cap in caps:
            assert c[("Mi", design, cap)] < 0.05, (design, cap)

    # Yo: insensitive to capacity (flat curve).
    for design in ("FINGERS", "FlexMiner"):
        rates = [c[("Yo", design, cap)] for cap in caps]
        assert max(rates) - min(rates) < 0.15, rates

    # Lj: capacity-sensitive, and FINGERS <= FlexMiner at the default 4MB.
    lj_flex = [c[("Lj", "FlexMiner", cap)] for cap in caps]
    assert lj_flex[0] > lj_flex[-1], "Lj must improve with capacity"
    assert c[("Lj", "FINGERS", 4)] <= c[("Lj", "FlexMiner", 4)] + 0.02

    # Larger caches never hurt (monotone non-increasing, small tolerance).
    for g, d, _ in set((g, d, 0) for g, d, _ in c):
        rates = [c[(g, d, cap)] for cap in caps]
        assert all(b <= a + 0.03 for a, b in zip(rates, rates[1:])), (g, d, rates)
