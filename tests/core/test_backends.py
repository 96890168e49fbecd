"""The backend registry: contents, lookup, dispatch, and agreement.

The tentpole claim of the ``repro.core`` layer is that every execution
path is a registry lookup away, and that all backends agree on counts
for the same job.
"""

from dataclasses import dataclass, field

import pytest

from repro.core import (
    Backend,
    backend_for_config,
    backend_names,
    get_backend,
)
from repro.core.result import RunResult
from repro.graph import erdos_renyi
from repro.setops.kernels import KernelPolicy


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == [
            "fingers", "flexminer", "functional", "software",
        ]

    def test_get_backend_returns_backend(self):
        for name in backend_names():
            backend = get_backend(name)
            assert isinstance(backend, Backend)
            assert backend.name == name
            assert backend.description

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("asic-from-the-future")

    def test_backend_for_config_dispatches_on_type(self):
        from repro.hw.config import FingersConfig, FlexMinerConfig
        from repro.sw.config import SoftwareConfig

        assert backend_for_config(FingersConfig()).name == "fingers"
        assert backend_for_config(FlexMinerConfig()).name == "flexminer"
        assert backend_for_config(SoftwareConfig()).name == "software"
        assert backend_for_config(KernelPolicy()).name == "functional"

    def test_functional_config_is_the_kernel_policy(self):
        backend = get_backend("functional")
        assert backend.config_type is KernelPolicy
        assert backend.default_config(units=4) == KernelPolicy()

    def test_backend_for_config_unknown_type(self):
        with pytest.raises(TypeError, match="no registered backend"):
            backend_for_config(object())


class TestBackendAgreement:
    def test_all_backends_same_count(self):
        g = erdos_renyi(25, 0.3, seed=11)
        counts = {}
        for name in backend_names():
            backend = get_backend(name)
            res = backend.run(g, "tc", backend.default_config(units=2))
            assert isinstance(res, RunResult)
            assert res.backend == name
            counts[name] = res.count
        assert len(set(counts.values())) == 1, counts

    def test_sharded_equals_unsharded_everywhere(self):
        g = erdos_renyi(30, 0.3, seed=12)
        for name in ("fingers", "flexminer", "software"):
            backend = get_backend(name)
            cfg = backend.default_config(units=2)
            plain = backend.run(g, "tc", cfg)
            sharded = backend.run(g, "tc", cfg, jobs=2)
            assert sharded.count == plain.count
            assert sharded.num_shards > 1

    def test_functional_backend_has_no_timing(self):
        g = erdos_renyi(20, 0.3, seed=13)
        res = get_backend("functional").run(g, "tc")
        assert res.cycles == 0.0
        assert res.units == ()

    def test_run_attaches_workload_identity(self):
        g = erdos_renyi(20, 0.3, seed=14)
        backend = get_backend("fingers")
        res = backend.run(g, "tc", backend.default_config(units=2))
        assert res.workload == "tc"
        assert res.counts_by_name == {"tc": res.count}


class TestCacheKeys:
    def test_key_distinguishes_backends(self):
        g = erdos_renyi(20, 0.3, seed=15)
        keys = {
            name: get_backend(name).cache_key(
                g, "tc", get_backend(name).default_config(units=2)
            )
            for name in ("fingers", "flexminer")
        }
        assert keys["fingers"] != keys["flexminer"]

    def test_key_distinguishes_configs_and_models(self):
        g = erdos_renyi(20, 0.3, seed=16)
        backend = get_backend("fingers")
        base = backend.cache_key(g, "tc", backend.default_config(units=2))
        other_cfg = backend.cache_key(g, "tc", backend.default_config(units=4))
        sharded = [
            backend.cache_key(g, "tc", backend.default_config(units=2),
                              jobs=jobs)
            for jobs in (1, 2, 3)
        ]
        # The model is part of the key; the worker count is not.
        assert len(set(sharded)) == 1
        assert len({base, other_cfg, sharded[0]}) == 3

    def test_key_stable_for_equal_inputs(self):
        g = erdos_renyi(20, 0.3, seed=17)
        backend = get_backend("software")
        a = backend.cache_key(g, "tc", backend.default_config(units=2))
        b = backend.cache_key(g, "tc", backend.default_config(units=2))
        assert a == b


@dataclass(frozen=True)
class HiddenConfig:
    """A config whose one field neither ``repr`` nor a custom
    ``__repr__`` shows."""

    knob: int = field(default=1, repr=False)

    def __repr__(self):
        return "HiddenConfig()"


def test_cache_key_sees_fields_repr_hides():
    """Cache keys render every dataclass field (``config_signature``),
    so a field ``repr`` hides cannot alias two configs' entries."""
    g = erdos_renyi(20, 0.3, seed=18)
    one, two = HiddenConfig(knob=1), HiddenConfig(knob=2)
    assert repr(one) == repr(two)
    backend = get_backend("fingers")
    assert backend.cache_key(g, "tc", one) != backend.cache_key(g, "tc", two)
