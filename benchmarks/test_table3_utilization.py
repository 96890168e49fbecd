"""Table 3: IU utilization (active rate) and load balance in one PE on Mi.

Paper: active rates 55-95% (tt the highest, tc the lowest), balance
rates tightly clustered at 66-71%.
"""

from repro.bench import experiments


def test_table3_utilization(benchmark, publish):
    result = benchmark.pedantic(
        experiments.table3, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("table3", result.render())

    rows = result.rows
    for pattern, (active, balance) in rows.items():
        assert 0.0 < active <= 1.0, pattern
        assert 0.3 < balance <= 1.0, pattern

    # The paper's qualitative ordering: the subtraction-heavy patterns
    # keep the IUs busier than plain clique intersection chains.
    assert rows["tt"][0] > rows["tc"][0]
    assert rows["cyc"][0] > rows["tc"][0]
    # Balance rates are much flatter across patterns than active rates.
    actives = [a for a, _ in rows.values()]
    balances = [b for _, b in rows.values()]
    assert (max(balances) - min(balances)) < (max(actives) - min(actives) + 0.25)
