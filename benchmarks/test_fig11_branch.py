"""Figure 11: speedups from branch-level parallelism (pseudo-DFS order).

Paper: up to 5x; the clique patterns (tc, 4cl, 5cl) benefit particularly
because they lack set-level and segment-level parallelism, so the task
groups are their main source of fine-grained work.
"""

from repro.bench import experiments, geometric_mean


def test_fig11_branch(benchmark, publish):
    result = benchmark.pedantic(
        experiments.fig11, rounds=1, iterations=1, warmup_rounds=0
    )
    publish("fig11", result.render())

    grid = result.grid
    assert all(v > 0.7 for v in grid.values()), "pseudo-DFS should rarely hurt"
    assert result.max < 10.0

    cliques = ["tc", "4cl", "5cl"]
    others = [p for p in result.patterns if p not in cliques and p != "3mc"]

    def mean_over(patterns, graph):
        return geometric_mean([grid[(p, graph)] for p in patterns])

    # On the miss-heavy large graphs, hiding fetch latency with task
    # groups is the cliques' major lever (paper section 6.4).
    for graph in ("Yo", "Lj"):
        assert mean_over(cliques, graph) > 1.1, graph
    # Somewhere in the grid the gain must be substantial (paper: up to 5x).
    assert result.max > 1.5
