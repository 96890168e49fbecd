"""Verdicts of compare.py on synthetic run sets."""

from catalogue import end_to_end
from compare import compare, verdict

PASS = end_to_end("pass_s")          # lower is better, bound 0.25
CYCLES = end_to_end("sim_cycles")    # equal


def test_same_runs_are_within_bound():
    assert verdict(PASS, [1.0], [1.05])[0] == "within"


def test_a_slowdown_past_the_bound_is_worse():
    assert verdict(PASS, [1.0, 1.01, 0.99], [1.4, 1.41, 1.39])[0] == "worse"


def test_a_gain_needs_ten_pairs_and_nine_tenths_won():
    base = [1.0 + 0.01 * i for i in range(10)]
    head = [0.8 + 0.01 * i for i in range(10)]
    assert verdict(PASS, base, head) == ("better", 1.0)
    assert verdict(PASS, base[:9], head[:9])[0] == "within"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 2.0, 1.0, 2.0]
    assert verdict(PASS, base, [1.5, 1.5, 1.5, 1.5])[0] == "unresolved"


def test_equal_metrics_must_match_exactly():
    assert verdict(CYCLES, [5.0, 5.0], [5.0])[0] == "within"
    assert verdict(CYCLES, [5.0], [5.0000001])[0] == "worse"


def test_one_row_per_metric_and_workload():
    def run(pass_s, cycles):
        return {"workloads": {
            "sim-1pe": {"metrics": {"pass_s": pass_s, "sim_cycles": cycles}},
            "count-er": {"metrics": {"pass_s": pass_s}},
        }}

    rows = compare([run(1.0, 7.0)], [run(1.01, 7.0)])
    assert {(r["metric"], r["workload"]) for r in rows} == {
        ("pass_s", "sim-1pe"), ("pass_s", "count-er"),
        ("sim_cycles", "sim-1pe"),
    }
    assert {r["verdict"] for r in rows} == {"within"}
