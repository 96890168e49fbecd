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
next level.  Expansion and the fused probe are **memory-bounded**: when
the materialized result would exceed ``KernelPolicy.
frontier_budget_bytes``, the frontier is processed in contiguous row
chunks — identical counts for every budget, only peak memory changes
(docs/KERNELS.md, "Frontier engine").

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

The set-op trace builder (:mod:`repro.hw.optrace`) reuses these level
functions.  Its leaf level calls :func:`leaf_counts`, which sizes a
filtered extension set without building it: each source row is probed
only above its lower bound.

Everything here is functional-only: counts are bit-identical to the
recursive oracle for every policy, and dispatch decisions are pure
functions of sizes and the graph so sanitized double runs trace
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, MutableMapping, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pattern.plan import ExecutionPlan, OpKind, SetOp
from repro.setops import segmented as sg
from repro.setops.kernels import DEFAULT_POLICY, KernelPolicy, _tally

__all__ = [
    "FrontierEngine",
    "carried_states",
    "expand_rows",
    "filter_candidates",
    "leaf_counts",
    "materialize",
    "run_level_ops",
]

#: Working-set estimate per element of the fused terminal probe's
#: element path (value, owner, row id, membership keys and mask, slack).
_FLAT_BYTES = 40
#: Working-set estimate per child and bitset word of the word-parallel
#: terminal probe (parent bitset, adjacency row, bound mask, result).
_WORD_BYTES = 4 * 8


@dataclass
class _State:
    """One carried plan state: the segmented values plus the lazy row
    map from current frontier rows into ``seg`` rows (``None`` =
    identity, i.e. produced on this frontier)."""

    seg: sg.SegmentedSet
    sel: np.ndarray | None


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


def _set_op(
    kind: OpKind,
    src: sg.SegmentedSet,
    graph: CSRGraph,
    verts: np.ndarray,
) -> sg.SegmentedSet:
    if kind is OpKind.INTERSECT:
        return sg.intersect_neighbors(src, graph, verts)
    return sg.subtract_neighbors(src, graph, verts)


def run_level_ops(
    graph: CSRGraph,
    ops: Sequence[SetOp],
    cols: list[np.ndarray],
    states: MutableMapping[int, _State],
    shared: MutableMapping[int, sg.SegmentedSet] | None = None,
    *,
    max_values: int | None = None,
) -> list[tuple[SetOp, _State | None, sg.SegmentedSet]]:
    """Run one level's schedule segmented over every frontier row.

    Each op's result lands in ``states``.  ``shared`` is the
    multi-pattern level-0 trunk: ops whose result id is present reuse
    it instead of re-executing, and new results are published into it.
    With ``max_values``, each op gathers its source rows in pieces of
    about that many values instead of materializing the whole source
    state, which bounds the working set on hub-heavy frontiers.

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
        elif max_values is None:
            src = _State(materialize(states, op.source_state), None)
            seg = _set_op(op.kind, src.seg, graph, verts)
        else:
            src = states[op.source_state]
            lens = src.seg.lengths if src.sel is None else src.seg.lengths[src.sel]
            parts = []
            for a, b in _chunk_ranges(lens, max_values):
                rows = (
                    src.seg.slice_rows(a, b) if src.sel is None
                    else src.seg.take_rows(src.sel[a:b])
                )
                parts.append(_set_op(op.kind, rows, graph, verts[a:b]))
            seg = sg.concat(parts)
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
    about ``max_values`` suffix elements.
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
    return counts


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
    """Breadth-batched counting executor for one (graph, plan, policy).

    Build once, then :meth:`per_root_counts` any number of root lists.
    Counting only — listing materializes every embedding anyway, so the
    recursive enumerator keeps that job (docs/KERNELS.md).
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan: ExecutionPlan,
        policy: KernelPolicy | None = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.policy = policy if policy is not None else DEFAULT_POLICY
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
        run_level_ops(self.graph, sched.ops, cols, states, shared)
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
        """Extend every row by its surviving candidates, chunked to the
        spill budget, and advance each chunk to the next level."""
        lens = cand.lengths
        if cand.total == 0:
            return
        carried = [
            sid for sid in self.carry_after[level] if sid in states
        ]
        bytes_per_row = 4 * (len(cols) + 1) + 8 + 8 * len(carried)
        chunks = _chunk_ranges(
            lens * bytes_per_row, self.policy.frontier_budget_bytes
        )
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
                    op.kind, resolve(op.source_state), graph,
                    cols[op.operand_level],
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
        chunks = _chunk_ranges(
            weights * _FLAT_BYTES, self.policy.frontier_budget_bytes
        )
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
        step = max(
            1, self.policy.frontier_budget_bytes // (_WORD_BYTES * words)
        )
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
            hits = np.repeat(bits, np.diff(starts, append=cp.size), axis=0)
            nb = adj[cv]
            if mode == "subtract":
                np.invert(nb, out=nb)
            hits &= nb
            if self_bound:
                hits &= sg.gt_mask(cv, words)
            if self_exclude and mode == "subtract":
                sg.clear_bits(hits, cv)
            # Popcounts summed per parent, then per root.
            per_parent = np.add.reduceat(
                np.bitwise_count(hits).ravel(), starts * words, dtype=np.int64
            )
            np.add.at(counts, root_rows[parents], per_parent)
