"""Frontier-at-a-time plan executor (the breadth-batched engine).

The recursive reference engine (:mod:`repro.mining.engine`) walks the
search tree one embedding at a time; every Python-level recursion step
costs more than the NumPy set op it wraps.  This module executes the
same :class:`~repro.pattern.plan.ExecutionPlan` IR *breadth-first*: all
partial embeddings of one level live in a single struct-of-arrays
**frontier**, and each level's schedule runs as segmented batch set
operations over the whole frontier at once
(:mod:`repro.setops.segmented`), following the GPU extension-strategy
playbook (DuMato, G2Miner) cited in PAPERS.md.

Frontier layout
---------------
A level-``L`` frontier holds one row per partial embedding
``(u_0 .. u_L)``:

* ``cols`` — ``L + 1`` int32 columns; ``cols[d][r]`` is row ``r``'s
  level-``d`` vertex;
* ``root_rows`` — int64 positions into the run's root list (for the
  per-root count vector; multiple rows share a root);
* ``states`` — plan state id → ``(SegmentedSet, sel)``.  ``sel`` is a
  lazy row map: a state produced on an ancestor frontier is *not*
  re-materialized when the frontier expands — consumers gather through
  ``sel`` on demand (and the gathered form is memoized).  This keeps an
  expansion from copying every carried candidate set ``fanout`` times.

Execution
---------
Per level: run the schedule's ops segmented, filter the extension set
with vectorized symmetry-breaking lower bounds and injectivity excludes,
then either count (last level: per-row lengths; penultimate level of a
chain-shaped schedule: the fused terminal probe, which hoists the
child-independent ops out of the per-child work) or expand to the
next level.

Frontier blocks
---------------
The engine works in cache-sized **blocks** of
:data:`FRONTIER_BUDGET_BYTES`, as FINGERS keeps only a small group of
sibling tasks in flight so its working set stays on chip.  Expansion
cuts the children into contiguous blocks of child rows and descends
into one block at a time (depth-first over blocks, breadth-first
within one).  Each level op gathers its source rows in
pieces of ``FRONTIER_BUDGET_BYTES // _FLAT_BYTES`` values, and the
fused probe's element and word paths run over blocks of the same size.
Counts are identical for every block size; only the working set and the
speed change (docs/KERNELS.md, "Frontier blocks").

The fused probe has two paths.  The element path checks each child's
candidates one by one through the segmented membership kernels.  The
word path treats candidate sets as ``ceil(|V| / 64)`` uint64 words:
each parent row's fixed-op result becomes one bitset (its fixed bounds
and excludes applied once), and each child counts
``popcount(parent & A[child])`` against its adjacency-bitmap row
(``& ~A[child]`` when subtracting; its own bound as a greater-than
mask).  The word path runs when the membership dispatch picks
``bitmap`` (a graph over the bitmap budget keeps the element path) and
``children × words`` does not exceed the element probes; chunks are
budgeted at ``4 × words × 8`` bytes per child.

Level ops take a word path of their own for wide rows.  A row whose
source is longer than ``words`` plus the cost of decoding its result
(:data:`_DECODE_BITS` per result word that can be nonzero) becomes
``bits(source) & A[v]`` (``& ~A[v]`` when subtracting), decoded back to
sorted ids; every other row keeps the element probes.  The rule is a
pure function of row sizes and the graph, so dense mid-size rows (the
``count-er`` benchmark's) stay on elements and hub rows of a large
sparse graph go to words (docs/KERNELS.md, "Word-path rows").

The set-op trace builder (:mod:`repro.hw.optrace`) reuses these level
functions.  Its leaf level calls :func:`leaf_counts`, which sizes a
filtered extension set without building it: each source row is probed
only above its lower bound, or, when that suffix is longer than
``words``, counted as ``popcount`` of its bitset against the adjacency
row and the bound mask, as the fused terminal probe does.

Everything here is functional-only: counts are bit-identical to the
recursive oracle for every budget, and dispatch decisions are pure
functions of sizes and the graph so sanitized double runs trace
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, MutableMapping, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pattern.plan import ExecutionPlan, OpKind, SetOp
from repro.setops import segmented as sg
from repro.setops.kernels import _tally

__all__ = [
    "FRONTIER_BUDGET_BYTES",
    "FrontierEngine",
    "carried_states",
    "expand_rows",
    "filter_candidates",
    "leaf_counts",
    "materialize",
    "run_level_ops",
]

#: The frontier block: expansions, level-op pieces and fused-probe
#: chunks each stay near this many bytes of working set.  Calibrated on
#: the ``count-er`` job list of the end-to-end benchmark (docs/KERNELS.md,
#: "Frontier blocks"); any size gives identical counts.
FRONTIER_BUDGET_BYTES = 4 << 20
#: Working-set estimate per element of a set op or of the fused
#: terminal probe's element path (value, owner, row id, membership keys
#: and mask, slack).
_FLAT_BYTES = 40
#: Working-set estimate per child and bitset word of the word-parallel
#: terminal probe (parent bitset, adjacency row, bound mask, result).
_WORD_BYTES = 4 * 8
#: Word-path cost of decoding one nonzero result word to ids, in
#: element-probe units (one unpacked bit per id position).
_DECODE_BITS = 64


@dataclass
class _State:
    """One carried plan state: the segmented values plus the lazy row
    map from current frontier rows into ``seg`` rows (``None`` =
    identity, i.e. produced on this frontier)."""

    seg: sg.SegmentedSet
    sel: np.ndarray | None


def _block_values() -> int:
    """Set-op source values per piece: one block's worth."""
    return FRONTIER_BUDGET_BYTES // _FLAT_BYTES


def _chunk_ranges(weights: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Contiguous index ranges whose weight sums stay near ``budget``.

    Greedy left-to-right cut; every range gets at least one index, so a
    single over-budget row still executes (its own memory is
    irreducible).  Pure in (weights, budget) — chunking never reads
    runtime state, keeping spill decisions deterministic.
    """
    n = int(weights.size)
    if n == 0:
        return []
    cum = np.cumsum(weights, dtype=np.int64)
    if int(cum[-1]) <= budget:
        return [(0, n)]
    ranges = []
    pos = 0
    base = 0
    while pos < n:
        nxt = int(np.searchsorted(cum, base + budget, side="right"))
        nxt = min(max(nxt, pos + 1), n)
        ranges.append((pos, nxt))
        base = int(cum[nxt - 1])
        pos = nxt
    return ranges


def carried_states(plan: ExecutionPlan) -> list[tuple[int, ...]]:
    """Per level, the state ids consumed strictly after it — the only
    states an expansion past that level must carry forward."""
    consumed: list[set[int]] = []
    for sched in plan.levels:
        used = {
            op.source_state
            for op in sched.ops
            if op.source_state is not None
        }
        if sched.extend_state is not None:
            used.add(sched.extend_state)
        consumed.append(used)
    carry: list[tuple[int, ...]] = []
    for level in range(len(plan.levels)):
        later: set[int] = set()
        for upper in consumed[level + 1 :]:
            later |= upper
        carry.append(tuple(sorted(later)))
    return carry


def materialize(
    states: MutableMapping[int, _State], sid: int
) -> sg.SegmentedSet:
    """A state's values at the current frontier's segmentation
    (gathered through the lazy row map once, then memoized)."""
    st = states[sid]
    if st.sel is None:
        return st.seg
    seg = st.seg.take_rows(st.sel)
    states[sid] = _State(seg, None)
    return seg


def _word_rows(
    graph: CSRGraph,
    lens: np.ndarray,
    kind: OpKind | None = None,
    verts: np.ndarray | None = None,
) -> np.ndarray | None:
    """Rows of ``lens`` elements whose set op runs faster on bitsets,
    or ``None`` for none.

    The element path costs ``lens`` membership probes.  The word path
    costs ``words`` ANDs plus :data:`_DECODE_BITS` per nonzero result
    word to decode, and at most ``min(words, bound)`` are nonzero: the
    result bound is ``min(lens, deg verts)`` for an intersection
    (``kind``), ``lens`` for a subtraction, and 0 when the result is
    only counted (``kind=None``).  Pure in the sizes and the graph;
    word rows need the ``bitmap`` kernel's adjacency bitmap.
    """
    words = (graph.num_vertices + 63) >> 6
    if (
        lens.size == 0
        or int(lens.max()) <= words
        or sg.pick_segment_kernel(graph) != "bitmap"
    ):
        return None
    bound = 0 if kind is None else lens
    if kind is OpKind.INTERSECT:
        indptr = graph.indptr
        bound = np.minimum(lens, indptr[verts + 1] - indptr[verts])
    wide = words + _DECODE_BITS * np.minimum(words, bound) < lens
    return wide if wide.any() else None


def _element_op(
    kind: OpKind,
    src: sg.SegmentedSet,
    graph: CSRGraph,
    verts: np.ndarray,
) -> sg.SegmentedSet:
    if kind is OpKind.INTERSECT:
        return sg.intersect_neighbors(src, graph, verts)
    return sg.subtract_neighbors(src, graph, verts)


def _word_pieces(
    graph: CSRGraph,
    kind: OpKind,
    seg: sg.SegmentedSet,
    seg_rows: np.ndarray,
    wide: np.ndarray,
    max_values: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``wide`` rows in pieces of ``max_values // words`` rows:
    each piece's row indices and their sources ``seg[seg_rows]`` as
    bitsets, every distinct source row packed once.  Tallied as
    ``seg_<op>/bitmap``, like the element probes they replace."""
    words = (graph.num_vertices + 63) >> 6
    label = "intersect" if kind is OpKind.INTERSECT else "subtract"
    idx = np.flatnonzero(wide)
    step = max(1, max_values // words)
    for a in range(0, idx.size, step):
        _tally(f"seg_{label}/bitmap")
        piece = idx[a : a + step]
        distinct, inverse = np.unique(seg_rows[piece], return_inverse=True)
        yield piece, sg.row_bitsets(seg.take_rows(distinct), words)[inverse]


def _set_op(
    kind: OpKind,
    src: _State,
    graph: CSRGraph,
    verts: np.ndarray,
    max_values: int,
) -> sg.SegmentedSet:
    """Per-row ``src[r] ∩ N(verts[r])`` (``−`` for a subtraction), read
    through ``src``'s lazy row map in pieces of about ``max_values``
    source values.

    Rows :func:`_word_rows` picks skip the element probes: their result
    is ``bits(src[r]) & ±A[verts[r]]`` decoded back to ids.
    """
    seg, sel = src.seg, src.sel
    lens = seg.lengths if sel is None else seg.lengths[sel]
    wide = _word_rows(graph, lens, kind, verts)
    order = np.arange(lens.size) if wide is None else np.flatnonzero(~wide)
    parts = []
    for a, b in _chunk_ranges(lens[order], max_values):
        rows = order[a:b]
        if wide is None and sel is None:
            piece = seg.slice_rows(a, b)
        else:
            piece = seg.take_rows(rows if sel is None else sel[rows])
        parts.append(_element_op(kind, piece, graph, verts[rows]))
    if wide is None:
        return sg.concat(parts)
    adj = graph.adjacency_bitmap()
    subtract = kind is not OpKind.INTERSECT
    pieces = _word_pieces(
        graph, kind, seg, np.arange(seg.rows) if sel is None else sel, wide,
        max_values,
    )
    for rows, bits in pieces:
        parts.append(sg.bitset_rows(_and_rows(bits, adj, verts[rows], subtract)))
        order = np.concatenate((order, rows))
    # Back to row order: row ``r`` is row ``where[r]`` of the parts.
    where = np.empty(lens.size, dtype=np.int64)
    where[order] = np.arange(lens.size)
    return sg.concat(parts).take_rows(where)


def run_level_ops(
    graph: CSRGraph,
    ops: Sequence[SetOp],
    cols: list[np.ndarray],
    states: MutableMapping[int, _State],
    shared: MutableMapping[int, sg.SegmentedSet] | None = None,
    *,
    max_values: int,
) -> list[tuple[SetOp, _State | None, sg.SegmentedSet]]:
    """Run one level's schedule segmented over every frontier row.

    Each op's result lands in ``states``.  ``shared`` is the
    multi-pattern level-0 trunk: ops whose result id is present reuse
    it instead of re-executing, and new results are published into it.
    Each op gathers its source rows in pieces of about ``max_values``
    values instead of materializing the whole source state, which
    bounds the working set on hub-heavy frontiers.

    Returns ``(op, source, result)`` for every op actually executed, in
    schedule order; ``source`` is the consumed state (``None`` for
    ``INIT_COPY``), possibly still behind a lazy row map.
    """
    executed = []
    for op in ops:
        if shared is not None and op.result_state in shared:
            states[op.result_state] = _State(shared[op.result_state], None)
            continue
        verts = cols[op.operand_level]
        src = None
        if op.kind is OpKind.INIT_COPY:
            seg = sg.gather_neighbors(graph, verts)
        else:
            src = states[op.source_state]
            seg = _set_op(op.kind, src, graph, verts, max_values)
        states[op.result_state] = _State(seg, None)
        if shared is not None:
            shared[op.result_state] = seg
        executed.append((op, src, seg))
    return executed


def _lower_bound(
    plan: ExecutionPlan, nxt: int, cols: list[np.ndarray]
) -> np.ndarray | None:
    """Each row's symmetry-breaking lower bound for level ``nxt`` (the
    largest of its bounding ancestors), or ``None`` when unbounded."""
    bounds = plan.lower_bound_levels(nxt)
    if not bounds:
        return None
    bound = cols[bounds[0]]
    for b in bounds[1:]:
        bound = np.maximum(bound, cols[b])
    return bound


def filter_candidates(
    plan: ExecutionPlan,
    cand: sg.SegmentedSet,
    nxt: int,
    cols: list[np.ndarray],
) -> sg.SegmentedSet:
    """Symmetry-breaking and injectivity filters for level ``nxt``,
    vectorized over the whole frontier (the segmented analog of
    :func:`repro.mining.engine.filtered_candidates`)."""
    lens = cand.lengths
    keep: np.ndarray | None = None
    bound = _lower_bound(plan, nxt, cols)
    if bound is not None:
        keep = cand.values > np.repeat(bound, lens)
    for d in plan.exclude_levels(nxt):
        mask = cand.values != np.repeat(cols[d], lens)
        keep = mask if keep is None else keep & mask
    if keep is None:
        return cand
    return sg.compress(cand, keep)


def leaf_counts(
    graph: CSRGraph,
    plan: ExecutionPlan,
    nxt: int,
    op: SetOp,
    source: _State,
    cols: list[np.ndarray],
    *,
    max_values: int,
) -> np.ndarray:
    """Per-row size of ``filter_candidates`` applied to ``op``'s result,
    without building the result.

    Each row's sorted source (read through its lazy row map, never
    gathered whole) is cut to the part above the row's level-``nxt``
    lower bound with one keyed ``searchsorted`` over
    ``(seg_row << 32) | value``; only that suffix is probed against
    ``N(cols[op.operand_level])`` — hits kept for an intersection,
    misses for a subtraction — then the injectivity excludes apply and
    the survivors are summed per row.  Rows are handled in pieces of
    about ``max_values`` suffix elements.  A row whose suffix is longer
    than ``words`` (:func:`_word_rows`) is counted on bitsets instead,
    in pieces of ``max_values // words`` rows.
    """
    seg, sel = source.seg, source.sel
    rows = cols[0].size
    seg_rows = np.arange(rows, dtype=np.int64) if sel is None else sel
    starts = seg.offsets[:-1][seg_rows]
    ends = seg.offsets[1:][seg_rows]
    bound = _lower_bound(plan, nxt, cols)
    if bound is not None and seg.total:
        keys = (seg.row_ids() << 32) | seg.values
        starts = np.searchsorted(
            keys, (seg_rows << 32) | bound, side="right"
        )
    lens = ends - starts
    excludes = plan.exclude_levels(nxt)
    intersect = op.kind is OpKind.INTERSECT
    verts = cols[op.operand_level]
    counts = np.zeros(rows, dtype=np.int64)
    wide = _word_rows(graph, lens)
    if wide is not None:
        lens = np.where(wide, 0, lens)
    for a, b in _chunk_ranges(lens, max_values):
        values, offsets = sg._gather(seg.values, starts[a:b], lens[a:b])
        if values.size == 0:
            continue
        plens = lens[a:b]
        hit = sg.neighbor_membership(
            graph, values, np.repeat(verts[a:b], plens),
            op="intersect" if intersect else "subtract",
        )
        keep = hit if intersect else ~hit
        for d in excludes:
            keep &= values != np.repeat(cols[d][a:b], plens)
        kept = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(keep, out=kept[1:])
        counts[a:b] = kept[offsets[1:]] - kept[offsets[:-1]]
    if wide is None:
        return counts
    adj = graph.adjacency_bitmap()
    pieces = _word_pieces(graph, op.kind, seg, seg_rows, wide, max_values)
    for rows, bits in pieces:
        counts[rows] = _word_counts(
            bits, adj, verts[rows], not intersect,
            None if bound is None else bound[rows],
            [cols[d][rows] for d in excludes],
        )
    return counts


def _and_rows(
    bits: np.ndarray, adj: np.ndarray, verts: np.ndarray, subtract: bool
) -> np.ndarray:
    """``bits[i] & A[verts[i]]`` (``& ~A`` when ``subtract``), new rows."""
    hits = adj[verts]
    if subtract:
        np.invert(hits, out=hits)
    hits &= bits
    return hits


def _word_counts(
    bits: np.ndarray,
    adj: np.ndarray,
    verts: np.ndarray,
    subtract: bool,
    bound: np.ndarray | None,
    excludes: Sequence[np.ndarray],
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Per row ``i``: ``popcount(bits[i] & A[verts[i]])`` (``& ~A``
    when ``subtract``) over the ids above ``bound[i]``, not counting
    any ``excludes[j][i]``; summed over the row groups beginning at
    ``starts`` when given.
    """
    words = adj.shape[1]
    hits = _and_rows(bits, adj, verts, subtract)
    if bound is not None:
        hits &= sg.gt_mask(bound, words)
    for ex in excludes:
        sg.clear_bits(hits, ex)
    if starts is None:
        starts = np.arange(verts.size)
    return np.add.reduceat(
        np.bitwise_count(hits).ravel(), starts * words, dtype=np.int64
    )


def expand_rows(
    part: sg.SegmentedSet,
    first_row: int,
    cols: list[np.ndarray],
    states: MutableMapping[int, _State],
    carried: Iterable[int],
) -> tuple[np.ndarray, list[np.ndarray], dict[int, _State]]:
    """Extend frontier rows ``first_row ..`` by their candidates.

    ``part`` holds the candidates of consecutive rows starting at
    ``first_row``.  Returns each child's parent row, the child
    frontier's columns, and those ``carried`` states already produced,
    re-pointed at the children through lazy row maps (no candidate set
    is copied).
    """
    parent = part.row_ids() + first_row
    new_cols = [col[parent] for col in cols]
    new_cols.append(part.values)
    new_states: dict[int, _State] = {}
    for sid in carried:
        st = states.get(sid)
        if st is None:
            continue
        sel = parent if st.sel is None else st.sel[parent]
        new_states[sid] = _State(st.seg, sel)
    return parent, new_cols, new_states


class FrontierEngine:
    """Breadth-batched counting executor for one (graph, plan).

    Build once, then :meth:`per_root_counts` any number of root lists.
    Counting only — listing materializes every embedding anyway, so the
    recursive enumerator keeps that job (docs/KERNELS.md).
    """

    def __init__(self, graph: CSRGraph, plan: ExecutionPlan) -> None:
        self.graph = graph
        self.plan = plan
        k = plan.num_levels
        self.k = k
        self.carry_after = carried_states(plan)
        # Fused terminal level: chain-shaped penultimate schedules count
        # all grandchildren in one probe pass.
        self.terminal = None
        if k >= 3:
            info = plan.chain_info(k - 2)
            if info.batchable:
                self.terminal = info

    # ------------------------------------------------------------------

    def per_root_counts(
        self,
        roots: Iterable[int],
        *,
        shared_level0: MutableMapping[int, sg.SegmentedSet] | None = None,
    ) -> np.ndarray:
        """Embedding count per root, aligned with the given root order.

        ``shared_level0`` is the multi-pattern trunk (paper section 4's
        merged level-0 states): a mutable mapping of unified state id →
        level-0 result over *the same root list*.  Ops whose result id
        is present are reused instead of re-executed; newly computed
        level-0 results are published into it.
        """
        roots_arr = np.asarray(list(roots), dtype=np.int32)
        counts = np.zeros(roots_arr.size, dtype=np.int64)
        if roots_arr.size == 0:
            return counts
        if self.k == 1:
            counts[:] = 1
            return counts
        self._counts = counts
        self._shared = shared_level0
        _tally("frontier/runs")
        self._advance(
            [roots_arr],
            np.arange(roots_arr.size, dtype=np.int64),
            {},
            0,
        )
        self._shared = None
        return counts

    # ------------------------------------------------------------------

    def _advance(
        self,
        cols: list[np.ndarray],
        root_rows: np.ndarray,
        states: MutableMapping[int, _State],
        level: int,
    ) -> None:
        plan = self.plan
        sched = plan.levels[level]
        shared = self._shared if level == 0 else None
        run_level_ops(
            self.graph, sched.ops, cols, states, shared,
            max_values=_block_values(),
        )
        nxt = level + 1
        cand = filter_candidates(
            plan, materialize(states, sched.extend_state), nxt, cols
        )
        if nxt == self.k - 1:
            # Last level: candidates are counted, never enumerated.
            np.add.at(self._counts, root_rows, cand.lengths)
            return
        if nxt == self.k - 2 and self.terminal is not None:
            self._terminal_count(cols, root_rows, states, cand)
            return
        self._expand(cols, root_rows, states, cand, level)

    # ------------------------------------------------------------------

    def _expand(
        self,
        cols: list[np.ndarray],
        root_rows: np.ndarray,
        states: MutableMapping[int, _State],
        cand: sg.SegmentedSet,
        level: int,
    ) -> None:
        """Extend every row by its surviving candidates, in blocks of
        child rows, and advance each block to the next level."""
        lens = cand.lengths
        if cand.total == 0:
            return
        carried = [
            sid for sid in self.carry_after[level] if sid in states
        ]
        bytes_per_row = 4 * (len(cols) + 1) + 8 + 8 * len(carried)
        chunks = _chunk_ranges(lens * bytes_per_row, FRONTIER_BUDGET_BYTES)
        if len(chunks) > 1:
            _tally("frontier/spill_chunks", len(chunks))
        for a, b in chunks:
            part = cand.slice_rows(a, b)
            if part.total == 0:
                continue
            parent, new_cols, new_states = expand_rows(
                part, a, cols, states, carried
            )
            self._advance(
                new_cols, root_rows[parent], new_states, level + 1
            )

    # ------------------------------------------------------------------

    def _terminal_count(
        self,
        cols: list[np.ndarray],
        root_rows: np.ndarray,
        states: MutableMapping[int, _State],
        cand: sg.SegmentedSet,
    ) -> None:
        """Count all level-``k-1`` candidates of every level-``k-2``
        child without materializing the child frontier.

        The chain's fixed (child-independent) ops commute with its one
        ``N(child)`` op, so they run segmented over the *parent* rows
        once.  Then either the word path (:meth:`_terminal_words`) or
        one flat membership/bounds pass over each child's candidate
        slice yields the surviving counts.
        """
        graph, plan = self.graph, self.plan
        info = self.terminal
        ops = plan.levels[self.k - 2].ops
        if cand.total == 0:
            return
        _tally("frontier/fused_invocations")
        _tally("frontier/fused_children", cand.total)

        mask_ops: list[tuple[OpKind, int]] = []
        s_prime: sg.SegmentedSet | None = None
        if info.mode == "copy":
            # Fixed ops downstream of INIT_COPY N(v) become per-element
            # membership predicates on the child's own neighbor slice.
            mask_ops = [
                (op.kind, op.operand_level)
                for i, op in enumerate(ops)
                if i != info.child_op_index
            ]
        else:
            # Run the chain once with the child op as a pass-through
            # (fixed-operand ops commute with the single N(v) op).
            local: dict[int, sg.SegmentedSet] = {}

            def resolve(sid: int) -> sg.SegmentedSet:
                got = local.get(sid)
                if got is not None:
                    return got
                return materialize(states, sid)

            for i, op in enumerate(ops):
                if i == info.child_op_index:
                    if op.source_state is not None:
                        local[op.result_state] = resolve(op.source_state)
                    continue
                local[op.result_state] = _set_op(
                    op.kind, _State(resolve(op.source_state), None), graph,
                    cols[op.operand_level], _block_values(),
                )
            s_prime = local[ops[-1].result_state]

        bounds = plan.lower_bound_levels(self.k - 1)
        fixed_bounds = [b for b in bounds if b < self.k - 2]
        self_bound = (self.k - 2) in bounds
        excludes = plan.exclude_levels(self.k - 1)
        fixed_excludes = [d for d in excludes if d < self.k - 2]
        self_exclude = (self.k - 2) in excludes
        fb: np.ndarray | None = None
        if fixed_bounds:
            fb = cols[fixed_bounds[0]]
            for b in fixed_bounds[1:]:
                fb = np.maximum(fb, cols[b])

        child_parent = cand.row_ids()
        if info.mode == "copy":
            indptr = graph.indptr
            weights = indptr[cand.values + 1] - indptr[cand.values]
        else:
            weights = s_prime.lengths[child_parent]
        # Words cost ``children × words`` regardless of how many
        # candidates survive; elements cost one probe per candidate.
        probes = int(weights.sum())
        words = (graph.num_vertices + 63) >> 6
        if (
            cand.total * words <= probes
            and sg.pick_segment_kernel(graph) == "bitmap"
        ):
            self._terminal_words(
                cols, root_rows, cand, child_parent, s_prime, mask_ops,
                fb, fixed_excludes, self_bound, self_exclude,
            )
            return
        chunks = _chunk_ranges(weights * _FLAT_BYTES, FRONTIER_BUDGET_BYTES)
        if len(chunks) > 1:
            _tally("frontier/spill_chunks", len(chunks))
        counts = self._counts
        for ja, jb in chunks:
            cp = child_parent[ja:jb]
            cv = cand.values[ja:jb]
            if info.mode == "copy":
                flat = sg.gather_neighbors(graph, cv)
            else:
                flat = s_prime.take_rows(cp)
            if flat.total == 0:
                continue
            fl = flat.lengths
            frow = np.repeat(cp, fl)
            vals = flat.values
            owners: np.ndarray | None = None
            if info.mode == "copy":
                keep = np.ones(vals.size, dtype=bool)
                for kind, d in mask_ops:
                    hit = sg.neighbor_membership(
                        graph, vals, cols[d][frow], op="fused"
                    )
                    keep &= hit if kind is OpKind.INTERSECT else ~hit
            else:
                owners = np.repeat(cv, fl)
                hit = sg.neighbor_membership(graph, vals, owners, op="fused")
                keep = hit if info.mode == "intersect" else ~hit
            if self_bound or fb is not None:
                if owners is None:
                    owners = np.repeat(cv, fl)
                if fb is None:
                    lb = owners
                elif self_bound:
                    lb = np.maximum(fb[frow], owners)
                else:
                    lb = fb[frow]
                keep &= vals > lb
            for d in fixed_excludes:
                keep &= vals != cols[d][frow]
            if self_exclude and info.mode == "subtract":
                if owners is None:
                    owners = np.repeat(cv, fl)
                keep &= vals != owners
            hit_rows = frow[keep]
            if hit_rows.size:
                counts += np.bincount(
                    root_rows[hit_rows], minlength=counts.size
                )

    def _terminal_words(
        self,
        cols: list[np.ndarray],
        root_rows: np.ndarray,
        cand: sg.SegmentedSet,
        child_parent: np.ndarray,
        s_prime: sg.SegmentedSet | None,
        mask_ops: list[tuple[OpKind, int]],
        fb: np.ndarray | None,
        fixed_excludes: list[int],
        self_bound: bool,
        self_exclude: bool,
    ) -> None:
        """The word-parallel fused terminal probe.

        Each parent row becomes one bitset ``P`` of its fixed-op result
        (``copy`` mode: the AND of its mask ops' adjacency rows), with
        the fixed bounds and excludes applied once; each child then
        counts ``popcount(P & A[child])`` (``& ~A[child]`` when
        subtracting) under its own bound and exclude.
        """
        mode = self.terminal.mode
        adj = self.graph.adjacency_bitmap()
        words = adj.shape[1]
        step = max(1, FRONTIER_BUDGET_BYTES // (_WORD_BYTES * words))
        chunk_starts = range(0, cand.total, step)
        if len(chunk_starts) > 1:
            _tally("frontier/spill_chunks", len(chunk_starts))
        counts = self._counts
        for ja in chunk_starts:
            _tally("seg_fused/bitmap")
            cp = child_parent[ja : ja + step]
            cv = cand.values[ja : ja + step]
            starts = np.flatnonzero(
                np.concatenate(([True], cp[1:] != cp[:-1]))
            )
            parents = cp[starts]
            if mode == "copy":
                bits = np.full((parents.size, words), sg.ALL_BITS)
                for kind, d in mask_ops:
                    nb = adj[cols[d][parents]]
                    if kind is not OpKind.INTERSECT:
                        np.invert(nb, out=nb)
                    bits &= nb
            else:
                bits = sg.row_bitsets(s_prime.take_rows(parents), words)
            if fb is not None:
                bits &= sg.gt_mask(fb[parents], words)
            for d in fixed_excludes:
                sg.clear_bits(bits, cols[d][parents])
            # Popcounts summed per parent, then per root.
            subtract = mode == "subtract"
            per_parent = _word_counts(
                np.repeat(bits, np.diff(starts, append=cp.size), axis=0),
                adj, cv, subtract, cv if self_bound else None,
                [cv] if self_exclude and subtract else [], starts,
            )
            np.add.at(counts, root_rows[parents], per_parent)
