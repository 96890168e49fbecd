"""Self-time arithmetic, wrapper installation and restoration."""

import sys

import pytest
from tracing import TARGETS, Tracer, installed_wrappers, traced
from workloads import WORKLOADS, Inputs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _at(clock, t):
    clock.now = float(t)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    # job [0, 10] > a [1, 6] > b [2, 4];  job > c [7, 9]
    _at(clock, 0)
    with tracer.job_span("j"):
        _at(clock, 1)
        a = tracer.enter("a", True)
        _at(clock, 2)
        b = tracer.enter("b", False)
        _at(clock, 4)
        tracer.exit(b)
        _at(clock, 6)
        tracer.exit(a)
        _at(clock, 7)
        c = tracer.enter("c", True)
        _at(clock, 9)
        tracer.exit(c)
        _at(clock, 10)
    jobs = {"j"}
    assert tracer.self_s("a", jobs) == 3.0
    assert tracer.self_s("b", jobs) == 2.0
    assert tracer.self_s("c", jobs) == 2.0
    assert tracer.self_s("job", jobs) == 3.0
    assert tracer.inclusive_s("a", jobs) == 5.0
    # Everything inside the job accounts for exactly its duration minus
    # the job's own self time.
    assert tracer.self_time_excess() == {"j": -3.0}
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["a"]["parent"] == spans["job"]["id"]
    assert spans["c"]["parent"] == spans["job"]["id"]
    assert spans["a"]["self"] == 3.0


def test_recursive_group_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    _at(clock, 0)
    with tracer.job_span("j"):
        outer = tracer.enter("x", False)
        _at(clock, 1)
        inner = tracer.enter("x", False)
        _at(clock, 3)
        tracer.exit(inner)
        _at(clock, 4)
        tracer.exit(outer)
    assert tracer.calls("x", {"j"}) == 2
    assert tracer.inclusive_s("x", {"j"}) == 4.0
    assert tracer.self_s("x", {"j"}) == 4.0


def _target_values():
    values = {}
    for target in TARGETS:
        module = sys.modules[target.module]
        owner, _, attr = target.attr.rpartition(".")
        holder = getattr(module, owner) if owner else module
        values[(target.module, target.attr)] = vars(holder)[attr]
    return values


def test_wrappers_are_installed_where_names_are_looked_up_and_restored():
    import repro.hw.iu
    import repro.hw.pe
    import repro.setops.segmented

    with traced(Tracer()):
        pass  # imports every target module
    before = _target_values()
    original = repro.hw.iu.time_task_ops
    with traced(Tracer()):
        # The PE model binds time_task_ops by ``from ... import``.
        assert repro.hw.pe.time_task_ops is not original
        assert repro.hw.pe.time_task_ops.__e2e_original__ is original
        assert installed_wrappers()
    assert _target_values() == before
    assert repro.hw.pe.time_task_ops is original
    assert installed_wrappers() == []


def test_wrappers_are_restored_when_the_traced_code_raises():
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("boom")
    assert installed_wrappers() == []


def test_traced_results_equal_untraced_results():
    w = WORKLOADS["sim-1pe"]
    graphs = w.build(3)
    inputs = Inputs(graphs, w.compile(), w.roots(graphs))
    expected = w.oracle(inputs)

    def outputs():
        out = {}
        for job in w.jobs(inputs, expected, None):
            result = job.run()
            out[job.id] = (result.counts, result.cycles)
        return out

    plain = outputs()
    tracer = Tracer()
    with traced(tracer):
        with tracer.job_span("t"):
            traced_out = outputs()
    assert traced_out == plain
    assert tracer.calls("setops.apply_op", {"t"}) > 0
    assert tracer.calls("hw.chip", {"t"}) == len(plain)
