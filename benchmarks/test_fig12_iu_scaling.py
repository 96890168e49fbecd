"""Figure 12: PE scalability in #IUs under iso-area (#IUs x s_l = 384).

Paper (on Yo): tt and cyc scale well to 16-24 IUs then drop at 48 (the
shrunken segments inflate item counts and the serial I/O floor); 4cl
barely scales (no set/segment-level parallelism); tt-unlimited (area
allowed to grow, s_l fixed) keeps improving.
"""

from repro.bench import experiments


def test_fig12_iu_scaling(benchmark, publish):
    result = benchmark.pedantic(
        experiments.fig12, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("fig12", result.render())

    s = result.series

    def peak(pattern):
        return max(s[(pattern, n)] for n in result.iu_counts)

    # tt and cyc must scale meaningfully; 4cl must not.
    assert peak("tt") > 1.5
    assert peak("cyc") > 1.5
    assert peak("4cl") < peak("tt")
    # The iso-area curve drops (or at least flattens) at 48 IUs for tt.
    best_n = max(result.iu_counts, key=lambda n: s[("tt", n)])
    assert best_n < 48, "iso-area tt must peak before 48 IUs"
    assert s[("tt", 48)] <= peak("tt")
    # Unlimited-area tt at 48 IUs beats iso-area tt at 48 IUs.
    assert s[("tt-unlimited", 48)] >= s[("tt", 48)]
    # And the unlimited curve is (weakly) monotone in IUs.
    vals = [s[("tt-unlimited", n)] for n in result.iu_counts]
    assert all(b >= a * 0.95 for a, b in zip(vals, vals[1:]))
