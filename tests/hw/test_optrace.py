"""The set-op trace builder: vectorized IU model and replay tables."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BENCHMARK_PATTERNS
from repro.core.workload import resolve_workload
from repro.graph import builders, erdos_renyi
from repro.graph import generators as gen
from repro.hw import optrace
from repro.hw.api import FingersConfig, MemoryConfig
from repro.hw.iu import time_task_ops
from repro.hw.optrace import OpTrace, Rows, iu_task_stats
from repro.mining.api import plan_for
from repro.mining.engine import count_embeddings
from repro.pattern.plan import OpKind
from repro.setops.segmented import SegmentedSet

KINDS = list(OpKind)


def _rows(arrays: list[np.ndarray]) -> Rows:
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    values = (
        np.concatenate(arrays).astype(np.int32)
        if arrays else np.zeros(0, np.int32)
    )
    return Rows.of(SegmentedSet(values, offsets))


def _sorted_set(max_size: int):
    return st.lists(
        st.integers(0, 400), max_size=max_size, unique=True
    ).map(lambda xs: np.array(sorted(xs), dtype=np.int32))


configs = st.builds(
    lambda ius, ll, sl, ml, dl, ds: FingersConfig(
        num_pes=1, num_ius=ius, long_segment_len=ll, short_segment_len=sl,
        max_load=ml, divider_long_heads=dl, divider_short_heads=ds,
    ),
    st.sampled_from([1, 2, 3, 5, 24]),
    st.sampled_from([1, 2, 4, 16, 64]),
    st.sampled_from([1, 2, 4]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([1, 3, 15]),
    st.sampled_from([1, 5, 24]),
)


def _assert_matches_reference(tasks, kinds, cfg):
    """``tasks[r][j]`` = (source, operand) of op ``j`` in task ``r``."""
    ops = []
    for j, kind in enumerate(kinds):
        source = None
        if kind is not OpKind.INIT_COPY:
            source = _rows([task[j][0] for task in tasks])
        ops.append((kind, source, _rows([task[j][1] for task in tasks])))
    got = iu_task_stats(ops, len(tasks), cfg)
    for r, task in enumerate(tasks):
        want = time_task_ops(
            [
                (kind, None if kind is OpKind.INIT_COPY else src, opd)
                for kind, (src, opd) in zip(kinds, task)
            ],
            num_ius=cfg.num_ius,
            num_dividers=cfg.num_dividers,
            long_len=cfg.long_segment_len,
            short_len=cfg.short_segment_len,
            max_load=cfg.max_load,
            divider_long_heads=cfg.divider_long_heads,
            divider_short_heads=cfg.divider_short_heads,
            io_cycles_per_item=cfg.io_cycles_per_item,
        )
        assert (
            float(got.total_item_cycles[r]), float(got.max_item_cycles[r]),
            int(got.num_items[r]), float(got.iu_phase_cycles[r]),
            float(got.divider_phase_cycles[r]),
            float(got.balance_busy_sum[r]),
            float(got.balance_capacity_sum[r]),
        ) == (
            want.total_item_cycles, want.max_item_cycles, want.num_items,
            want.iu_phase_cycles, want.divider_phase_cycles,
            want.balance_busy_sum, want.balance_capacity_sum,
        ), (r, kinds, task)


@settings(max_examples=300, deadline=None)
@given(
    cfg=configs,
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    data=st.data(),
)
def test_vectorized_iu_model_equals_time_task_ops(cfg, kinds, data):
    num_tasks = data.draw(st.integers(1, 4))
    tasks = [
        [
            (data.draw(_sorted_set(120)), data.draw(_sorted_set(120)))
            for _ in kinds
        ]
        for _ in range(num_tasks)
    ]
    _assert_matches_reference(tasks, kinds, cfg)


def _span(start, stop, step=1):
    return np.arange(start, stop, step, dtype=np.int32)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("num_ius", [1, 2, 3, 24])
@pytest.mark.parametrize(
    "source, operand",
    [
        # Single long segment (long <= 16), short paired or not.
        (_span(0, 8), _span(4, 16)),
        (_span(0, 3), _span(10, 20)),
        # Small-op path: <= 6 long heads, <= 12 short heads.
        (_span(0, 40, 2), _span(0, 90)),
        # General load table, heavy loads (max_load splits).
        (_span(0, 400, 3), _span(0, 400)),
        # Anti-subtract flow: the long set is the source, with segments
        # no short segment touches.
        (_span(0, 300), _span(290, 330)),
        (_span(0, 80), np.zeros(0, np.int32)),
    ],
)
def test_each_pairing_regime_matches_reference(kind, num_ius, source, operand):
    cfg = FingersConfig(num_pes=1, num_ius=num_ius)
    _assert_matches_reference(
        [[(source, operand)], [(operand, source)]], [kind], cfg
    )


class TestTraceTables:
    def test_children_groups_partition_each_level(self):
        g = erdos_renyi(40, 0.3, seed=5)
        trace = OpTrace(
            g, [plan_for("4cl")], MemoryConfig(), group_size=3,
            fingers=FingersConfig(num_pes=1),
        )
        roots = list(range(g.num_vertices))
        chunk = next(trace.trees(roots)).chunk
        sizes = [hi - lo for lo, hi in zip(chunk.g_lo, chunk.g_hi)]
        assert min(sizes) >= 1 and max(sizes) <= 3
        # Every non-root group is pushed by exactly one parent group.
        pushed = sorted(
            group for lo, hi in zip(chunk.g_push_lo, chunk.g_push_hi)
            for group in range(lo, hi)
        )
        assert pushed == list(range(len(roots), len(chunk.g_lo)))

    def test_chunks_respect_the_byte_budget(self):
        g = erdos_renyi(120, 0.2, seed=6)
        trace = OpTrace(g, [plan_for("tt")], MemoryConfig())
        trees = list(trace.trees(range(g.num_vertices), budget_bytes=1))
        chunks = {id(t.chunk) for t in trees}
        # A one-byte budget shrinks chunks to a single root after the first.
        assert len(chunks) == g.num_vertices - 64 + 1
        assert [t.root for t in trees] == list(range(g.num_vertices))

    def test_leaf_counts_match_functional_count(self, monkeypatch):
        """Each root's leaves, summed over its tree, equal its functional
        count for every plan of every benchmark workload, on both
        designs, in single-root chunks — with the default op pieces and
        with pieces small enough to split every level."""
        g = _LEAF_GRAPH
        roots = range(g.num_vertices)
        pieces = (optrace._PIECE_VALUES, 5)
        for pattern in BENCHMARK_PATTERNS:
            _, plans, _ = resolve_workload(pattern)
            want = [
                [count_embeddings(g, plan, roots=[r]) for plan in plans]
                for r in roots
            ]
            for piece in pieces:
                monkeypatch.setattr(optrace, "_PIECE_VALUES", piece)
                for fingers in (FingersConfig(num_pes=1), None):
                    trace = OpTrace(
                        g, plans, MemoryConfig(),
                        group_size=3 if fingers else 1, fingers=fingers,
                    )
                    got = [
                        _leaf_totals(tree, len(plans))
                        for tree in trace.trees(roots, budget_bytes=1)
                    ]
                    assert got == want, (pattern, piece, fingers)


#: Hubs, planted 5-cliques and more than one first chunk of roots.
_LEAF_GRAPH = builders.relabel_by_degree(builders.from_edges(
    list(gen.barabasi_albert(72, 3, seed=4).edges())
    + list(gen.planted_cliques(72, num_cliques=3, clique_size=5, seed=5).edges()),
    num_vertices=72,
))


def _leaf_totals(tree, num_plans: int) -> list[int]:
    """Leaves counted in ``tree``, per plan."""
    chunk = tree.chunk
    totals = [0] * num_plans
    if chunk.g_plan[tree.group] < 0:
        tops = [(p, leaf, range(lo, hi))
                for p, leaf, lo, hi in chunk.merged[tree.group]]
    else:
        tops = [(chunk.g_plan[tree.group], 0, [tree.group])]
    for p, leaf, groups in tops:
        totals[p] += leaf
        stack = list(groups)
        while stack:
            g = stack.pop()
            totals[p] += chunk.g_leaf[g]
            stack.extend(range(chunk.g_push_lo[g], chunk.g_push_hi[g]))
    return totals
