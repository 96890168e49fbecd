"""Table 2 + section 6.1: PE area breakdown, power, and iso-area claims."""

import pytest

from repro.bench import experiments


def test_table2_area(benchmark, publish):
    result = benchmark.pedantic(
        experiments.table2, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("table2", result.render())

    # The paper's headline numbers.
    assert result.total_mm2 == pytest.approx(0.934, rel=0.01)
    assert result.pe_area_15nm == pytest.approx(0.26, abs=0.01)
    assert result.pe_area_15nm < 2 * result.flexminer_pe_area_15nm
    assert result.iso_area_fingers_pes == 20
    assert result.power["compute_mw"] == pytest.approx(98.5)
    assert result.power["caches_mw"] == pytest.approx(85.6)
    # IUs + dividers stay a small fraction: the paper's design principle
    # that fine-grained parallelism is almost free in area.
    iu_pct = result.components[0][2]
    div_pct = result.components[1][2]
    assert iu_pct + div_pct < 25.0
