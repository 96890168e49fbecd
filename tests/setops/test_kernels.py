"""Unit tests for the counted merge entry point of the recursive oracle.

:class:`KernelContext` must return exactly what
:func:`repro.setops.merge.apply_op` returns for every op kind, and tally
one dispatch per op (docs/KERNELS.md).
"""

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert
from repro.pattern.plan import OpKind
from repro.setops.kernels import (
    KernelContext,
    kernel_counters,
    reset_kernel_counters,
)
from repro.setops.merge import apply_op


def arr(values):
    return np.asarray(values, dtype=np.int32)


class TestDispatchMachinery:
    def test_counters_tally_dispatch(self):
        ctx = KernelContext()
        big = arr(list(range(0, 4000, 2)))
        small = arr([3, 5, 100])
        reset_kernel_counters()
        ctx.apply_op(OpKind.INIT_COPY, None, big)
        ctx.apply_op(OpKind.INTERSECT, small, big)
        ctx.apply_op(OpKind.SUBTRACT, big, small)
        ctx.apply_op(OpKind.ANTI_SUBTRACT, big, small)
        assert kernel_counters() == {
            "copy": 1,
            "intersect/merge": 1,
            "subtract/merge": 2,
        }
        reset_kernel_counters()
        assert kernel_counters() == {}


class TestKernelContext:
    def test_apply_op_matches_merge_reference(self):
        graph = barabasi_albert(300, 6, seed=2)
        ctx = KernelContext()
        for v in range(0, 300, 7):
            operand = graph.neighbors(v)
            source = graph.neighbors((v + 1) % 300)
            for kind in (
                OpKind.INIT_COPY,
                OpKind.INTERSECT,
                OpKind.SUBTRACT,
                OpKind.ANTI_SUBTRACT,
            ):
                src = None if kind is OpKind.INIT_COPY else source
                got = ctx.apply_op(kind, src, operand)
                want = apply_op(kind, src, operand)
                assert got.dtype == np.int32
                assert np.array_equal(got, want), (v, kind)

    def test_requires_source_for_binary_ops(self):
        with pytest.raises(ValueError, match="requires a source"):
            KernelContext().apply_op(OpKind.INTERSECT, None, arr([1, 2]))
