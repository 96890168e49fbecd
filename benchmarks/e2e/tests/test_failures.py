"""Failure accounting: a wrong answer is counted, not fatal."""

import dataclasses

import harness
import workloads


def test_injected_oracle_mismatch_yields_nonzero_error_rate(
    monkeypatch, tmp_path
):
    real = workloads.WORKLOADS["sim-1pe"]

    def wrong_oracle(inputs):
        return {p: count + 1 for p, count in real.oracle(inputs).items()}

    monkeypatch.setitem(
        workloads.WORKLOADS, "sim-1pe",
        dataclasses.replace(real, oracle=wrong_oracle),
    )
    result = harness.run_workload(
        "sim-1pe", seed=1, seconds=0.1, trace=False, scratch=tmp_path
    )
    # Warm-up plus one timed pass, six jobs each, every one wrong.
    assert result["attempted"] == 12
    assert result["failed"] == 12
    assert result["metrics"]["error_rate"] == 1.0
    assert "oracle" in result["errors"][0]
    # The run still measured everything.
    assert result["metrics"]["pass_s"] > 0


def test_a_raising_job_is_counted_and_the_run_continues(
    monkeypatch, tmp_path
):
    real = workloads.WORKLOADS["sim-1pe"]

    def jobs(inputs, expected, scratch):
        out = real.jobs(inputs, expected, scratch)

        def boom():
            raise ValueError("injected")

        return [dataclasses.replace(out[0], run=boom)] + out[1:]

    monkeypatch.setitem(
        workloads.WORKLOADS, "sim-1pe", dataclasses.replace(real, jobs=jobs)
    )
    result = harness.run_workload(
        "sim-1pe", seed=1, seconds=0.1, trace=False, scratch=tmp_path
    )
    assert result["failed"] == 2
    assert result["metrics"]["error_rate"] == 2 / 12
    assert "ValueError: injected" in result["errors"][0]
