"""Segment pairing: the load table of one set operation.

Segment-level parallelism (paper sections 3.4 and 4.2) divides the two
inputs of one set operation into fixed-length segments — the *long* set
(usually the streamed neighbor list) into segments of ``s_l = 16`` ids and
the *short* set (usually the partial candidate set) into segments of
``s_s = 4`` — pairs overlapping segments, and spreads the pairs over the
PE's intersect units.  The *task divider* does the pairing with a binary
search of each short head against the long head list, accumulates a *load
table* (how many short segments overlap each long segment), and splits
overloaded long segments across IUs using a maximum-load threshold.

:func:`pairing_loads` computes the load table for the IU timing model
(:mod:`repro.hw.iu`); :func:`pair_segments` also returns each short
segment's span and is the reference the tests hold it to (paper
Figures 4 and 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LONG_SEGMENT_LEN",
    "SHORT_SEGMENT_LEN",
    "SegmentPairing",
    "pair_segments",
    "pairing_loads",
]

#: Paper defaults (section 3.4): long segments of 16 ids, short of 4.
LONG_SEGMENT_LEN = 16
SHORT_SEGMENT_LEN = 4


@dataclass(frozen=True)
class SegmentPairing:
    """Result of pairing a short set's segments against a long set's.

    Attributes
    ----------
    loads:
        ``loads[l]`` = number of short segments overlapping long segment
        ``l`` (the paper's load table, summed over columns).
    spans:
        Per short segment ``i``, the inclusive long-segment index range
        ``(start, end)`` it overlaps, or ``None`` when the short segment
        falls entirely outside the long set's value range.
    num_long_segments / num_short_segments:
        Segment counts of the two inputs.
    """

    loads: np.ndarray
    spans: tuple[tuple[int, int] | None, ...]
    num_long_segments: int
    num_short_segments: int

    @property
    def total_pairs(self) -> int:
        """Total (long segment, short segment) pairs to process."""
        return int(self.loads.sum())


def pair_segments(
    short: np.ndarray,
    long: np.ndarray,
    *,
    short_len: int = SHORT_SEGMENT_LEN,
    long_len: int = LONG_SEGMENT_LEN,
) -> SegmentPairing:
    """Pair overlapping segments of two sorted sets (paper Figure 7).

    Each short head is binary-searched against the long head list; short
    segment ``i`` then overlaps long segments ``pos_i - 1 .. end_i`` where
    ``end_i`` is determined by the segment's last element.  Short segments
    entirely below the long set's range pair with nothing.
    """
    short = np.asarray(short)
    long = np.asarray(long)
    n_long = max(1, -(-long.size // long_len)) if long.size else 0
    n_short = max(1, -(-short.size // short_len)) if short.size else 0
    if long.size == 0 or short.size == 0:
        return SegmentPairing(
            loads=np.zeros(n_long, dtype=np.int64),
            spans=tuple([None] * n_short),
            num_long_segments=n_long,
            num_short_segments=n_short,
        )
    long_heads = long[::long_len]
    starts = short[::short_len]
    last_idx = np.minimum(
        np.arange(1, n_short + 1) * short_len, short.size
    ) - 1
    ends_vals = short[last_idx]
    # pos = index of the long head immediately larger than the element;
    # the element then falls in long segment pos - 1.
    start_seg = np.searchsorted(long_heads, starts, side="right") - 1
    end_seg = np.searchsorted(long_heads, ends_vals, side="right") - 1
    loads = np.zeros(n_long, dtype=np.int64)
    spans: list[tuple[int, int] | None] = []
    for i in range(n_short):
        s = int(start_seg[i])
        e = int(end_seg[i])
        if e < 0:
            # Entire short segment below the long set's smallest value.
            spans.append(None)
            continue
        s = max(s, 0)
        spans.append((s, e))
        loads[s : e + 1] += 1
    return SegmentPairing(
        loads=loads,
        spans=tuple(spans),
        num_long_segments=n_long,
        num_short_segments=n_short,
    )


def pairing_loads(
    short: np.ndarray,
    long: np.ndarray,
    *,
    short_len: int = SHORT_SEGMENT_LEN,
    long_len: int = LONG_SEGMENT_LEN,
) -> np.ndarray:
    """Vectorized load table: short segments overlapping each long segment.

    Same semantics as :func:`pair_segments` (whose ``loads`` field the
    tests compare against) without materializing spans — the hot path of
    the hardware timing model.
    """
    short = np.asarray(short)
    long = np.asarray(long)
    n_long = -(-long.size // long_len) if long.size else 1
    if long.size == 0 or short.size == 0:
        return np.zeros(max(1, n_long), dtype=np.int64)
    n_short = -(-short.size // short_len)
    long_heads = long[::long_len]
    starts = short[::short_len]
    last_idx = np.minimum(np.arange(1, n_short + 1) * short_len, short.size) - 1
    ends_vals = short[last_idx]
    start_seg = np.searchsorted(long_heads, starts, side="right") - 1
    end_seg = np.searchsorted(long_heads, ends_vals, side="right") - 1
    valid = end_seg >= 0
    start_seg = np.maximum(start_seg[valid], 0)
    end_seg = end_seg[valid]
    diff = np.zeros(n_long + 1, dtype=np.int64)
    np.add.at(diff, start_seg, 1)
    np.add.at(diff, end_seg + 1, -1)
    return np.cumsum(diff[:-1])
