"""Software-parallelism study (the paper's section 3.5 future work).

Branch-granularity work stealing must fix the tree-granularity load
imbalance; the accelerators must still be far ahead in wall-clock time
(FlexMiner's paper claims an order of magnitude over CPU frameworks,
and FINGERS multiplies that by its iso-area factor).
"""

from repro.bench.software import software_comparison, software_scaling


def test_software_scaling(benchmark, publish):
    result = benchmark.pedantic(
        software_scaling, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("software_scaling", result.render())

    d = result.data
    # Branch granularity scales meaningfully at 16 cores...
    branch16 = d[("branch", 1)].cycles / d[("branch", 16)].cycles
    assert branch16 > 4.0
    # ...while tree granularity saturates on the hub tree.
    tree16 = d[("tree", 1)].cycles / d[("tree", 16)].cycles
    assert branch16 > 1.5 * tree16
    imbalance = {key: row.extras["load_imbalance"] for key, row in d.items()}
    assert imbalance[("tree", 16)] > imbalance[("branch", 16)]


def test_software_comparison(benchmark, publish):
    result = benchmark.pedantic(
        software_comparison, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("software_comparison", result.render())

    sw = result.data["software"]
    flex = result.data["flexminer"]
    fing = result.data["fingers"]
    sw_time = sw.cycles / 2.5
    flex_time = flex.cycles / 1.0
    fing_time = fing.cycles / 1.0
    # Both accelerators beat the 16-core CPU in wall-clock time; FINGERS
    # beats FlexMiner.
    assert flex_time < sw_time
    assert fing_time < flex_time
