"""Execution-plan intermediate representation.

A compiled plan describes, for a pattern relabelled into its mining order
``u_0 .. u_{k-1}``:

* per level ``i``, the *set-operation schedule*: which partial candidate
  sets ``S_j`` (``j > i``) are updated with ``N(u_i)`` and how
  (paper Equation 1 — intersection, subtraction, anti-subtraction);
* which updates are shared between future levels (the paper notes
  ``S_1 = S_2(1) = S_3(1)`` are computed once) — expressed here through
  symbolic *state ids*: an op produces one state that may serve several
  future levels until their schedules diverge;
* the symmetry-breaking restrictions and the injectivity exclusions that
  filter candidates at each level.

Both the functional mining engine and the hardware timing models execute
this IR; the number of distinct ops at a level is exactly the set-level
parallelism available to a FINGERS PE there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.pattern.pattern import Pattern
from repro.pattern.symmetry import Restriction

__all__ = ["OpKind", "SetOp", "LevelChain", "LevelSchedule", "ExecutionPlan"]


class OpKind(enum.Enum):
    """The set-operation kinds of paper Equation (1).

    ``INIT_COPY`` is the degenerate first materialization
    ``S_j := N(u_i)`` at level ``j``'s first connected ancestor ``i``.
    ``ANTI_SUBTRACT`` is the postponed subtraction of an earlier
    *disconnected* ancestor's neighbor list, executed right after the init
    (the paper postpones these to avoid materializing large unions).
    """

    INIT_COPY = "init"
    INTERSECT = "intersect"
    SUBTRACT = "subtract"
    ANTI_SUBTRACT = "anti_subtract"


@dataclass(frozen=True)
class SetOp:
    """One set operation in a level's schedule.

    Attributes
    ----------
    kind:
        Operation kind.
    operand_level:
        The ancestor level ``d`` whose neighbor list ``N(u_d)`` is the
        operand.  For ops executed at level ``i`` this is ``i`` except for
        ``ANTI_SUBTRACT``, whose operand is an earlier level.
    source_state:
        State id consumed (``None`` for ``INIT_COPY``).
    result_state:
        State id produced.
    serves:
        The future levels whose partial candidate sets this state currently
        stands for (more than one while schedules coincide).
    final_for:
        If not ``None``, the produced state is the fully materialized
        candidate set for that level.
    """

    kind: OpKind
    operand_level: int
    source_state: int | None
    result_state: int
    serves: tuple[int, ...]
    final_for: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        src = f"S#{self.source_state}" if self.source_state is not None else ""
        sym = {
            OpKind.INIT_COPY: "copy",
            OpKind.INTERSECT: "∩",
            OpKind.SUBTRACT: "−",
            OpKind.ANTI_SUBTRACT: "−*",
        }[self.kind]
        return (
            f"S#{self.result_state} = {src} {sym} N(u{self.operand_level})"
            f" [serves {list(self.serves)}]"
        )


@dataclass(frozen=True)
class LevelChain:
    """Shape analysis of one level's schedule for the frontier engine.

    A level is *chain-shaped* when its ops form a single linear pipeline
    ending in the extension set, with exactly one op whose operand is the
    level's own vertex ``N(u_level)``.  Fixed-operand intersections and
    subtractions then commute with that one child-dependent op, which is
    what lets the frontier engine's fused terminal level
    (:class:`repro.mining.frontier.FrontierEngine`) hoist the fixed part
    out of the per-child work.

    Attributes
    ----------
    level:
        The analyzed level.
    child_op_index:
        Index (into the schedule's ``ops``) of the unique op whose
        operand is ``N(u_level)`` — meaningful only when ``batchable``.
    mode:
        How the child op combines: ``"copy"`` (INIT_COPY of
        ``N(u_level)``), ``"intersect"``, or ``"subtract"`` (SUBTRACT or
        ANTI_SUBTRACT).  Empty when not batchable.
    reason:
        ``None`` when the level is batchable, otherwise a short
        human-readable explanation of which structural condition failed
        (surfaced by ``ExecutionPlan.describe`` tooling and tests).
    """

    level: int
    child_op_index: int = -1
    mode: str = ""
    reason: str | None = None

    @property
    def batchable(self) -> bool:
        """Whether the batched (hoisted) execution shape applies."""
        return self.reason is None


@dataclass(frozen=True)
class LevelSchedule:
    """All work performed at one level, right after ``u_level`` is chosen."""

    level: int
    ops: tuple[SetOp, ...]
    #: State id of the candidate set to extend from at the *next* level
    #: (``None`` at the last level, which only counts).
    extend_state: int | None

    @property
    def num_ops(self) -> int:
        """Set-level parallelism available at this level."""
        return len(self.ops)


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete compiled plan for one pattern.

    Attributes
    ----------
    pattern:
        The pattern *after* relabelling into the mining order, so pattern
        vertex ``i`` is matched at level ``i``.
    vertex_order:
        The original pattern vertex placed at each level (for reporting).
    levels:
        ``k - 1`` schedules, one per level ``0 .. k-2`` (the last level has
        no ops; its candidates are counted/listed directly).
    restrictions:
        Symmetry-breaking restrictions over levels.
    vertex_induced:
        Whether subtraction ops for non-edges were compiled in.
    num_states:
        Total number of symbolic set states.
    """

    pattern: Pattern
    vertex_order: tuple[int, ...]
    levels: tuple[LevelSchedule, ...]
    restrictions: tuple[Restriction, ...]
    vertex_induced: bool
    num_states: int

    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Pattern size ``k`` (levels ``0 .. k-1``)."""
        return self.pattern.num_vertices

    def schedule(self, level: int) -> LevelSchedule:
        """Schedule executed right after choosing ``u_level``."""
        return self.levels[level]

    def lower_bound_levels(self, level: int) -> tuple[int, ...]:
        """Earlier levels whose mapped vertex lower-bounds candidates here.

        All restrictions synthesized by the stabilizer chain have the form
        ``v_small < v_large``; at ``level == large`` the candidate must
        exceed ``v[small]``.
        """
        return tuple(
            r.smaller for r in self.restrictions if r.larger == level
        )

    def exclude_levels(self, level: int) -> tuple[int, ...]:
        """Earlier levels whose mapped vertex must be filtered out here.

        A candidate for ``u_level`` can collide with an earlier ancestor
        ``u_d`` only when ``d`` and ``level`` are non-adjacent in the
        pattern (adjacent ancestors are excluded for free because
        ``u_d not in N(u_d)``), so only those need an explicit injectivity
        check.
        """
        return tuple(
            d
            for d in range(level)
            if not self.pattern.has_edge(d, level)
        )

    def describe(self) -> str:
        """Human-readable plan dump (see ``examples/quickstart.py``)."""
        lines = [
            f"pattern k={self.num_levels}, order={list(self.vertex_order)}, "
            f"{'vertex' if self.vertex_induced else 'edge'}-induced",
            "restrictions: "
            + (", ".join(str(r) for r in self.restrictions) or "(none)"),
        ]
        for sched in self.levels:
            lines.append(f"level {sched.level}:")
            for op in sched.ops:
                suffix = (
                    f"  -> final S_{op.final_for}" if op.final_for is not None else ""
                )
                lines.append(f"  {op}{suffix}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Shape analysis consumed by the frontier engine
    # ------------------------------------------------------------------

    def chain_info(self, level: int) -> LevelChain:
        """Classify one level's schedule for batched execution.

        The frontier engine's fused terminal level requires the level
        to be a *linear chain*: non-empty ops, the extension set
        produced by the last op, every non-initial op consuming the
        previous op's result, and exactly one op whose operand is the
        level's own vertex.  The
        returned :class:`LevelChain` either marks the level batchable
        (with the child op's index and combine mode) or carries the
        reason it is not.
        """
        sched = self.levels[level]
        ops = sched.ops

        def fail(reason: str) -> LevelChain:
            return LevelChain(level=level, reason=reason)

        if not ops:
            return fail("empty schedule")
        if sched.extend_state != ops[-1].result_state:
            return fail("extension set is not the last op's result")
        produced = {op.result_state for op in ops}
        for i, op in enumerate(ops):
            if i == 0:
                if op.source_state is not None and op.source_state in produced:
                    return fail("first op sources a state produced in-level")
            elif op.source_state != ops[i - 1].result_state:
                return fail("ops do not form a linear chain")
        child_ops = [i for i, op in enumerate(ops) if op.operand_level == level]
        if len(child_ops) != 1:
            return fail(
                f"{len(child_ops)} child-dependent ops (need exactly one)"
            )
        child_idx = child_ops[0]
        mode = {
            OpKind.INIT_COPY: "copy",
            OpKind.INTERSECT: "intersect",
            OpKind.SUBTRACT: "subtract",
            OpKind.ANTI_SUBTRACT: "subtract",
        }[ops[child_idx].kind]
        if mode == "copy" and child_idx != 0:
            return fail("INIT_COPY of the level vertex is not the first op")
        return LevelChain(level=level, child_op_index=child_idx, mode=mode)

    # ------------------------------------------------------------------
    # Static structure queries used by the hardware model
    # ------------------------------------------------------------------

    def max_set_parallelism(self) -> int:
        """Largest number of distinct ops at any level."""
        return max((s.num_ops for s in self.levels), default=0)

    def total_ops(self) -> int:
        """Total distinct set ops across all levels."""
        return sum(s.num_ops for s in self.levels)
