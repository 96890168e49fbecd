"""Table 1: evaluated graph datasets (analog vs paper originals)."""

from repro.bench import experiments
from repro.graph import dataset_names, load_dataset


def test_table1_datasets(benchmark, publish):
    result = benchmark.pedantic(
        experiments.table1, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("table1", result.render())

    rows = {r[0].split(" (")[1].rstrip(")"): r for r in result.rows}
    assert set(rows) == set(dataset_names())
    # Analog degree signatures must track the paper's Table 1 ordering.
    avg = {n: rows[n][3] for n in rows}
    assert min(avg, key=avg.get) == "Yo"   # lowest average degree
    assert max(avg, key=avg.get) == "Or"   # highest average degree
    maxdeg = {n: rows[n][4] for n in rows}
    assert min(maxdeg, key=maxdeg.get) == "Pa"  # hub-free graph
    # Small graphs stay small.
    assert rows["As"][1] < rows["Yo"][1]
    assert rows["Mi"][1] < rows["Pa"][1]
