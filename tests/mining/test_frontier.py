"""Frontier engine: spill invariance, edge cases, the word-parallel
terminal probe, the count-only leaf level, and the shared trunk.

The agreement sweep (test_kernel_agreement.py) covers the full
pattern × policy matrix; this file targets the frontier-specific
machinery — budget chunking never changing counts (property-based),
degenerate inputs, the word path of the fused terminal level and its
dispatch, the lazy state carry, the set-op trace's leaf counts, and the
multi-pattern shared level-0 trunk.
"""

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import from_edges, relabel_by_degree
from repro.graph.generators import barabasi_albert, erdos_renyi, rmat
from repro.mining import frontier
from repro.mining.engine import count_embeddings, count_multi, per_root_counts
from repro.mining.frontier import (
    FrontierEngine,
    _chunk_ranges,
    _State,
    filter_candidates,
    leaf_counts,
    materialize,
    run_level_ops,
)
from repro.pattern.compiler import compile_plan
from repro.pattern.multipattern import compile_multi_plan, motif_patterns
from repro.pattern.pattern import all_named_patterns, named_pattern
from repro.pattern.plan import OpKind, SetOp
from repro.setops import segmented
from repro.setops.kernels import (
    KernelPolicy,
    kernel_counters,
    reset_kernel_counters,
)
from repro.setops.segmented import SegmentedSet

GRAPH = erdos_renyi(80, 0.18, seed=21)
HUBBY = barabasi_albert(90, 6, seed=8)

RECURSIVE = KernelPolicy(engine="recursive")
FRONTIER = KernelPolicy(engine="frontier")


@contextmanager
def _spill_budget(budget: int):
    """Patch the frontier's spill budget to ``budget`` bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier, "FRONTIER_BUDGET_BYTES", budget)
        yield


def _edgekey_counts(engine: FrontierEngine, roots) -> np.ndarray:
    """``engine``'s per-root counts with the bitmap budget patched to 0:
    every membership probe takes the edge-key kernel, so the fused probe
    keeps its element path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmented, "BITMAP_BUDGET_BYTES", 0)
        return engine.per_root_counts(roots)


class TestChunkRanges:
    def test_single_range_when_under_budget(self):
        assert _chunk_ranges(np.array([3, 4, 5]), 100) == [(0, 3)]

    def test_cuts_cover_everything_exactly_once(self):
        w = np.array([10, 1, 1, 50, 1, 90, 2])
        ranges = _chunk_ranges(w, 12)
        flat = [i for a, b in ranges for i in range(a, b)]
        assert flat == list(range(w.size))

    def test_every_range_nonempty_even_over_budget(self):
        ranges = _chunk_ranges(np.array([100, 100]), 1)
        assert ranges == [(0, 1), (1, 2)]

    def test_empty(self):
        assert _chunk_ranges(np.zeros(0, dtype=np.int64), 10) == []


class TestSpillInvariance:
    @given(budget=st.integers(1, 1 << 22))
    @settings(max_examples=25, deadline=None)
    def test_any_budget_counts_identically(self, budget):
        plan = compile_plan(named_pattern("tt"))
        expected = count_embeddings(GRAPH, plan, kernels=RECURSIVE)
        with _spill_budget(budget):
            got = count_embeddings(GRAPH, plan, kernels=FRONTIER)
        assert got == expected

    @given(
        budget=st.integers(1, 1 << 18),
        pattern=st.sampled_from(["4cl", "house", "cyc", "dia"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_budget_and_pattern_product(self, budget, pattern):
        plan = compile_plan(named_pattern(pattern))
        a = list(per_root_counts(HUBBY, plan, kernels=RECURSIVE))
        with _spill_budget(budget):
            b = list(per_root_counts(HUBBY, plan, kernels=FRONTIER))
        assert a == b

    def test_tiny_budget_actually_spills(self):
        plan = compile_plan(named_pattern("house"))
        reset_kernel_counters()
        with _spill_budget(64):
            count_embeddings(GRAPH, plan, kernels=FRONTIER)
        assert kernel_counters().get("frontier/spill_chunks", 0) > 1

    def test_tiny_budget_splits_the_level_ops(self, monkeypatch):
        # The engine passes its block to every level op, so one op over
        # a frontier chunk gathers its source in more than one piece.
        pieces = []
        real_op, real_element = frontier._set_op, frontier._element_op

        def set_op(*args):
            pieces.append(0)
            return real_op(*args)

        def element_op(*args):
            pieces[-1] += 1
            return real_element(*args)

        monkeypatch.setattr(frontier, "_set_op", set_op)
        monkeypatch.setattr(frontier, "_element_op", element_op)
        plan = compile_plan(named_pattern("house"))
        with _spill_budget(4096):
            got = count_embeddings(GRAPH, plan, kernels=FRONTIER)
        assert max(pieces) > 1
        assert got == count_embeddings(GRAPH, plan, kernels=RECURSIVE)


class TestWorkingSetBound:
    """Counting stays within a small multiple of the frontier block:
    expansions, level ops and the fused probe all run over blocks."""

    @pytest.mark.parametrize("pattern, n, p", [
        ("house", 400, 0.09), ("5cl", 200, 0.4),
    ])
    def test_traced_peak_is_a_few_blocks(self, pattern, n, p):
        block = frontier.FRONTIER_BUDGET_BYTES
        assert 1 << 20 <= block <= 16 << 20  # a cache-sized block
        graph = relabel_by_degree(erdos_renyi(n, p, seed=1))
        plan = compile_plan(named_pattern(pattern))
        count_embeddings(graph, plan)  # warms the adjacency bitmap
        tracemalloc.start()
        try:
            count_embeddings(graph, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * block, (pattern, peak / (1 << 20))


class TestEdgeCases:
    def test_single_vertex_pattern(self):
        plan = compile_plan(named_pattern("edge"))
        assert plan.num_levels == 2
        a = count_embeddings(GRAPH, plan, kernels=RECURSIVE)
        b = count_embeddings(GRAPH, plan, kernels=FRONTIER)
        assert a == b

    def test_empty_roots(self):
        plan = compile_plan(named_pattern("tc"))
        engine = FrontierEngine(GRAPH, plan)
        out = engine.per_root_counts([])
        assert out.size == 0

    def test_edgeless_graph(self):
        lonely = from_edges([], num_vertices=5)
        plan = compile_plan(named_pattern("tc"))
        assert count_embeddings(lonely, plan, kernels=FRONTIER) == 0

    def test_roots_subset_and_duplicates(self):
        plan = compile_plan(named_pattern("tt"))
        roots = [7, 3, 3, 0, 79, 7]
        a = list(per_root_counts(GRAPH, plan, roots=roots, kernels=RECURSIVE))
        b = list(per_root_counts(GRAPH, plan, roots=roots, kernels=FRONTIER))
        assert a == b
        assert [r for r, _ in b] == roots

    def test_engine_reuse_across_root_lists(self):
        plan = compile_plan(named_pattern("4cl"))
        engine = FrontierEngine(GRAPH, plan)
        full = engine.per_root_counts(range(GRAPH.num_vertices))
        half = engine.per_root_counts(range(0, GRAPH.num_vertices, 2))
        assert np.array_equal(half, full[::2])


#: Mining orders whose last vertex hangs off the penultimate one only,
#: making the terminal chain an ``INIT_COPY``.
_COPY_ORDERS = {"tt": [(1, 2, 0, 3)], "wedge": [(1, 0, 2)], "3path": [(0, 1, 2, 3)]}


def _terminal_cases() -> list[tuple[str, tuple[int, ...] | None, bool]]:
    """``(pattern, order, vertex_induced)`` for every built-in whose
    penultimate level is batchable, plus the explicit orders that make
    the chain an ``INIT_COPY`` (no built-in default order does)."""
    cases = []
    for induced in (True, False):
        for name in sorted(all_named_patterns()):
            for order in (None, *_COPY_ORDERS.get(name, ())):
                plan = compile_plan(
                    named_pattern(name), order=order, vertex_induced=induced
                )
                k = plan.num_levels
                if k >= 3 and plan.chain_info(k - 2).batchable:
                    cases.append((name, order, induced))
    return cases


_TERMINAL_CASES = _terminal_cases()


def _case_id(case) -> str:
    name, order, induced = case
    shape = "auto" if order is None else "".join(map(str, order))
    return f"{name}-{shape}-{'vertex' if induced else 'edge'}"


def _terminal_plan(case):
    name, order, induced = case
    return compile_plan(named_pattern(name), order=order, vertex_induced=induced)


def _spy_words(monkeypatch) -> list[int]:
    """Record each word-path invocation (its child count)."""
    calls: list[int] = []
    real = FrontierEngine._terminal_words

    def spy(self, cols, root_rows, cand, *rest):
        calls.append(cand.total)
        return real(self, cols, root_rows, cand, *rest)

    monkeypatch.setattr(FrontierEngine, "_terminal_words", spy)
    return calls


class TestWordProbe:
    """The fused terminal level's word-parallel path (bitset AND +
    popcount) against the element path and the recursive oracle."""

    def test_cases_cover_every_chain_mode(self):
        plans = [_terminal_plan(c) for c in _TERMINAL_CASES]
        modes = {p.chain_info(p.num_levels - 2).mode for p in plans}
        assert modes == {"copy", "intersect", "subtract"}
        assert {c[2] for c in _TERMINAL_CASES} == {True, False}

    @given(
        case=st.sampled_from(_TERMINAL_CASES),
        n=st.sampled_from([1, 63, 64, 65, 127, 129]),
        p=st.floats(0.0, 0.15),
        seed=st.integers(0, 1 << 16),
        budget=st.integers(1, 1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_word_path_matches_element_path_and_oracle(
        self, case, n, p, seed, budget
    ):
        graph = erdos_renyi(n, p, seed=seed)
        plan = _terminal_plan(case)
        roots = range(n)
        oracle = [c for _, c in per_root_counts(graph, plan, kernels=RECURSIVE)]
        engine = FrontierEngine(graph, plan)
        with _spill_budget(budget):
            assert list(engine.per_root_counts(roots)) == oracle
            assert list(_edgekey_counts(engine, roots)) == oracle

    @pytest.mark.parametrize("case", _TERMINAL_CASES, ids=_case_id)
    def test_every_case_takes_the_word_path_on_a_dense_graph(
        self, case, monkeypatch
    ):
        graph = erdos_renyi(129, 0.3, seed=5)
        plan = _terminal_plan(case)
        calls = _spy_words(monkeypatch)
        engine = FrontierEngine(graph, plan)
        got = engine.per_root_counts(range(129))
        assert calls
        words = len(calls)  # one call per frontier block
        elements = _edgekey_counts(engine, range(129))
        assert len(calls) == words  # the edge-key run takes no word path
        assert np.array_equal(got, elements)

    def test_house_on_er_takes_the_word_path(self, monkeypatch):
        calls = _spy_words(monkeypatch)
        reset_kernel_counters()
        count_embeddings(GRAPH, compile_plan(named_pattern("house")))
        assert calls
        assert kernel_counters().get("seg_fused/bitmap", 0) >= len(calls)

    def test_over_budget_graph_keeps_the_element_path(self, monkeypatch):
        calls = _spy_words(monkeypatch)
        monkeypatch.setattr(segmented, "BITMAP_BUDGET_BYTES", 0)
        reset_kernel_counters()
        count_embeddings(GRAPH, compile_plan(named_pattern("house")))
        assert not calls
        assert kernel_counters().get("seg_fused/edgekey", 0) > 0

    def test_words_beyond_probes_keep_the_element_path(self, monkeypatch):
        # 2000 vertices at average degree ~4: each child's fixed-op
        # result is a few elements, far fewer than its 32 words.
        sparse = erdos_renyi(2000, 0.002, seed=3)
        calls = _spy_words(monkeypatch)
        reset_kernel_counters()
        plan = compile_plan(named_pattern("tt"))
        got = count_embeddings(sparse, plan)
        assert not calls
        assert kernel_counters().get("frontier/fused_invocations", 0) > 0
        assert got == count_embeddings(sparse, plan, kernels=RECURSIVE)

    def test_tiny_budget_chunks_the_word_path(self, monkeypatch):
        calls = _spy_words(monkeypatch)
        reset_kernel_counters()
        plan = compile_plan(named_pattern("house"))
        with _spill_budget(64):
            got = count_embeddings(GRAPH, plan, kernels=FRONTIER)
        assert calls
        assert kernel_counters().get("seg_fused/bitmap", 0) > len(calls)
        assert got == count_embeddings(GRAPH, plan, kernels=RECURSIVE)


class TestSharedTrunk:
    def _multi(self):
        patterns, names = motif_patterns(4)
        return compile_multi_plan(patterns, names=names)

    def test_count_multi_matches_independent_counts(self):
        multi = self._multi()
        default = frontier.FRONTIER_BUDGET_BYTES
        for policy, budget in (
            (RECURSIVE, default), (FRONTIER, default), (FRONTIER, 1),
            (None, default),
        ):
            with _spill_budget(budget):
                got = count_multi(GRAPH, multi, kernels=policy)
            for name, plan in zip(multi.names, multi.plans):
                expected = count_embeddings(GRAPH, plan, kernels=RECURSIVE)
                assert got[name] == expected, (name, policy, budget)

    def test_trunk_reuses_level0_states(self):
        """The shared trunk must eliminate repeated level-0 INIT_COPY
        gathers: counting N plans together performs fewer segmented runs
        than counting them separately."""
        multi = self._multi()
        reset_kernel_counters()
        count_multi(GRAPH, multi, kernels=FRONTIER)
        fused = dict(kernel_counters())
        reset_kernel_counters()
        for plan in multi.plans:
            count_embeddings(GRAPH, plan, kernels=FRONTIER)
        separate = dict(kernel_counters())
        assert fused.get("frontier/runs", 0) == len(
            [p for p in multi.plans if p.num_levels >= 2]
        )
        # Shared level-0 results mean strictly fewer segmented set-op
        # dispatches overall.
        fused_ops = sum(v for k, v in fused.items() if k.startswith("seg_"))
        separate_ops = sum(
            v for k, v in separate.items() if k.startswith("seg_")
        )
        assert fused_ops <= separate_ops

    def test_count_multi_with_roots_subset(self):
        multi = self._multi()
        roots = [0, 2, 40, 41]
        a = count_multi(GRAPH, multi, roots=roots, kernels=RECURSIVE)
        b = count_multi(GRAPH, multi, roots=roots, kernels=FRONTIER)
        assert a == b

    def test_count_multi_jobs_matches_serial(self):
        multi = self._multi()
        serial = count_multi(GRAPH, multi)
        assert count_multi(GRAPH, multi, jobs=2) == serial


@dataclass(frozen=True)
class _Filters:
    """The two plan queries the leaf filters read, with drawn levels."""

    bounds: tuple[int, ...]
    excludes: tuple[int, ...]

    def lower_bound_levels(self, level):
        return self.bounds

    def exclude_levels(self, level):
        return self.excludes


@st.composite
def _leaf_inputs(draw, sizes=st.integers(1, 40), word_edges=False):
    """A graph, a frontier, a (maybe lazily mapped) source state, one
    non-copy op and its leaf filters.  With ``word_edges``, ids (and so
    bounds and excludes) favour bits 0, 63 and 64 and the last id."""
    n = draw(sizes)
    graph = erdos_renyi(n, draw(st.sampled_from([0.0, 0.2, 0.6])),
                        seed=draw(st.integers(0, 50)))
    nxt = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))
    vertex = st.integers(0, n - 1)
    if word_edges:
        edges = sorted({v for v in (0, 63, 64, n - 1) if v < n})
        vertex = st.one_of(st.sampled_from(edges), vertex)
    cols = [
        np.array(draw(st.lists(vertex, min_size=rows, max_size=rows)),
                 dtype=np.int32)
        for _ in range(nxt)
    ]
    lazy = draw(st.booleans())
    seg_rows = draw(st.integers(1, 6)) if lazy else rows
    sets = [
        sorted(draw(st.sets(vertex, max_size=n))) for _ in range(seg_rows)
    ]
    offsets = np.zeros(seg_rows + 1, dtype=np.int64)
    np.cumsum([len(x) for x in sets], out=offsets[1:])
    values = np.array([v for x in sets for v in x], dtype=np.int32)
    sel = None
    if lazy:
        sel = np.array(
            draw(st.lists(st.integers(0, seg_rows - 1),
                          min_size=rows, max_size=rows)),
            dtype=np.int64,
        )
    kind = draw(st.sampled_from(
        [OpKind.INTERSECT, OpKind.SUBTRACT, OpKind.ANTI_SUBTRACT]
    ))
    op = SetOp(kind, draw(st.integers(0, nxt - 1)), 0, 1, (nxt,), nxt)
    levels = st.lists(st.integers(0, nxt - 1), max_size=3, unique=True)
    plan = _Filters(tuple(draw(levels)), tuple(draw(levels)))
    return graph, plan, nxt, op, SegmentedSet(values, offsets), sel, cols


class TestLeafCounts:
    """``leaf_counts`` is the size of the filtered extension set, read
    off the bounded source suffix instead of the built result."""

    @given(inputs=_leaf_inputs(), max_values=st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_equals_filtered_materialized_result(self, inputs, max_values):
        graph, plan, nxt, op, seg, sel, cols = inputs
        got = leaf_counts(
            graph, plan, nxt, op, _State(seg, sel), cols,
            max_values=max_values,
        )
        states = {0: _State(seg, sel)}
        run_level_ops(graph, [op], cols, states, max_values=1 << 30)
        want = filter_candidates(plan, materialize(states, 1), nxt, cols)
        assert got.tolist() == want.lengths.tolist()

    def test_tallies_under_the_op_kind_label(self):
        seg = SegmentedSet(np.arange(5, dtype=np.int32),
                           np.array([0, 5], dtype=np.int64))
        cols = [np.array([0], dtype=np.int32)]
        for kind, label in ((OpKind.INTERSECT, "seg_intersect/"),
                            (OpKind.ANTI_SUBTRACT, "seg_subtract/")):
            reset_kernel_counters()
            op = SetOp(kind, 0, 0, 1, (1,), 1)
            leaf_counts(GRAPH, _Filters((), ()), 1, op, _State(seg, None),
                        cols, max_values=2)
            assert set(kernel_counters()) == {label + "bitmap"}


@contextmanager
def _forced_word_rows(pick):
    """Patch the word-path size rule: ``pick(lens)`` is the wide-row
    mask (``None``: every row keeps the element path)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontier, "_word_rows", lambda graph, lens, *op: pick(lens))
        yield


_WORD_EDGE_INPUTS = _leaf_inputs(
    sizes=st.sampled_from([1, 63, 64, 65, 100, 129]), word_edges=True
)


def _drawn_mask(seed):
    """Every row wide (seed 0) or a seeded random subset of them."""
    rng = np.random.default_rng(seed)
    return lambda lens: rng.random(lens.size) < (1.0 if seed == 0 else 0.6)


class TestWordRows:
    """The word path of ``leaf_counts`` and of the level ops (bitset AND,
    then popcount or decode) equals the element path row by row on rows
    forced wide; the size rule picks hub rows, not dense ER rows."""

    @given(inputs=_WORD_EDGE_INPUTS, max_values=st.integers(1, 300),
           seed=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_word_leaf_counts_equal_element_path(self, inputs, max_values, seed):
        graph, plan, nxt, op, seg, sel, cols = inputs

        def counts():
            return leaf_counts(
                graph, plan, nxt, op, _State(seg, sel), cols,
                max_values=max_values,
            ).tolist()

        with _forced_word_rows(lambda lens: None):
            want = counts()
        with _forced_word_rows(_drawn_mask(seed)):
            assert counts() == want

    @given(inputs=_WORD_EDGE_INPUTS,
           max_values=st.one_of(st.just(1 << 30), st.integers(1, 300)),
           seed=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_word_level_ops_equal_element_path(self, inputs, max_values, seed):
        graph, _, _, op, seg, sel, cols = inputs

        def result():
            states = {0: _State(seg, sel)}
            run_level_ops(graph, [op], cols, states, max_values=max_values)
            out = materialize(states, 1)
            return out.values.tolist(), out.offsets.tolist()

        with _forced_word_rows(lambda lens: None):
            want = result()
        with _forced_word_rows(_drawn_mask(seed)):
            assert result() == want

    def test_word_pieces_tally_and_respect_the_piece_bound(self, monkeypatch):
        graph = erdos_renyi(129, 0.3, seed=4)  # three words per bitset
        source = segmented.gather_neighbors(graph, np.arange(8))
        cols = [np.arange(8, 16, dtype=np.int32)]
        pieces = []
        real = frontier._word_pieces

        def spy(*args):
            for rows, bits in real(*args):
                pieces.append(rows.size)
                yield rows, bits

        monkeypatch.setattr(frontier, "_word_pieces", spy)
        op = SetOp(OpKind.SUBTRACT, 0, 0, 1, (1,), 1)
        reset_kernel_counters()
        with _forced_word_rows(lambda lens: np.ones(lens.size, dtype=bool)):
            run_level_ops(graph, [op], cols, {0: _State(source, None)},
                          max_values=7)
        assert pieces == [2, 2, 2, 2]  # 7 // 3 rows per piece
        assert kernel_counters() == {"seg_subtract/bitmap": 4}

    def test_rule_fires_on_an_lj_like_hub_row(self):
        lj = rmat(13, 6, seed=1)  # the Lj analog's 8,192 vertices
        deg = lj.degrees()
        hub = int(np.argmax(deg))
        leaf = min(lj.neighbors(hub), key=lambda v: deg[v])
        lens, verts = deg[[hub]], np.array([leaf])
        assert frontier._word_rows(lj, lens).tolist() == [True]
        assert frontier._word_rows(
            lj, lens, OpKind.INTERSECT, verts
        ).tolist() == [True]
        # Decoding a subtraction's result could touch every word.
        assert frontier._word_rows(lj, lens, OpKind.SUBTRACT, verts) is None

    def test_rule_keeps_dense_er_rows_on_elements(self, monkeypatch):
        dense = relabel_by_degree(erdos_renyi(200, 0.4, seed=2))
        deg = dense.degrees()
        lens = np.repeat(deg, deg)  # N(u) against every v in N(u)
        for kind in (OpKind.INTERSECT, OpKind.SUBTRACT):
            assert frontier._word_rows(dense, lens, kind, dense.indices) is None
        calls = []
        monkeypatch.setattr(frontier, "_word_pieces",
                            lambda *a: calls.append(a) or iter(()))
        for name in ("4cl", "5cl"):
            plan = compile_plan(named_pattern(name))
            assert count_embeddings(dense, plan) == count_embeddings(
                dense, plan, kernels=RECURSIVE
            )
        assert not calls

    def test_hub_graph_runs_word_rows_in_the_engine(self, monkeypatch):
        hub = from_edges([(0, v) for v in range(1, 200)]
                         + [(v, v + 1) for v in range(1, 199)])
        calls = []
        real = frontier._word_pieces
        monkeypatch.setattr(frontier, "_word_pieces",
                            lambda *a: calls.append(a) or real(*a))
        plan = compile_plan(named_pattern("tt"))
        got = count_embeddings(hub, plan)
        assert calls
        assert got == count_embeddings(hub, plan, kernels=RECURSIVE)
