"""Sweep-spec validation and deterministic matrix expansion."""

import json
import sys

import pytest

from repro.experiments import Cell, SpecError, load_spec, load_spec_file
from repro.hw.api import FingersConfig
from repro.setops.kernels import KernelPolicy


def _minimal(**overrides):
    sweep = {
        "name": "demo",
        "patterns": ["tc"],
        "graphs": ["As"],
        "backends": ["functional"],
    }
    sweep.update(overrides.pop("sweep", {}))
    data = {"sweep": sweep}
    data.update(overrides)
    return data


class TestValidation:
    def test_minimal_spec_loads(self):
        spec = load_spec(_minimal())
        assert spec.name == "demo"
        assert spec.patterns == ("tc",)
        assert spec.jobs == (0,)
        assert spec.schedules == ("dynamic",)

    def test_missing_sweep_section(self):
        with pytest.raises(SpecError, match="missing"):
            load_spec({})

    def test_all_problems_collected_in_one_error(self):
        data = _minimal(sweep={
            "name": "bad name!",
            "patterns": ["nonsense"],
            "graphs": ["Nope"],
            "backends": ["vaporware"],
            "schedules": ["chaotic"],
        }, configs={"vaporware": {"num_pes": 1}})
        with pytest.raises(SpecError) as excinfo:
            load_spec(data)
        problems = "\n".join(excinfo.value.problems)
        assert len(excinfo.value.problems) >= 5
        assert "bad name!" in problems
        assert "nonsense" in problems
        assert "'Nope'" in problems
        assert "'vaporware'" in problems
        assert "'chaotic'" in problems

    def test_unknown_sections_and_keys(self):
        data = _minimal(typo_section={})
        data["sweep"]["typo_key"] = 1
        with pytest.raises(SpecError) as excinfo:
            load_spec(data)
        problems = "\n".join(excinfo.value.problems)
        assert "typo_section" in problems and "typo_key" in problems

    def test_config_fields_checked_against_dataclass(self):
        data = _minimal(
            sweep={"backends": ["fingers"]},
            configs={"fingers": {"num_pes": 1, "warp_drive": True}},
        )
        with pytest.raises(SpecError, match="warp_drive"):
            load_spec(data)

    def test_config_for_unswept_backend_rejected(self):
        data = _minimal(configs={"fingers": {"num_pes": 1}})
        with pytest.raises(SpecError, match="does not match a swept"):
            load_spec(data)

    def test_jobs_must_be_nonnegative_ints(self):
        with pytest.raises(SpecError, match="jobs"):
            load_spec(_minimal(sweep={"jobs": [-1]}))
        with pytest.raises(SpecError, match="jobs"):
            load_spec(_minimal(sweep={"jobs": [True]}))

    def test_kernel_policy_needs_functional_backend(self):
        """``engine`` is a field of the functional config only."""
        for entry in (
            {"engine": "recursive"},
            [{"name": "recursive", "engine": "recursive"}],
        ):
            data = _minimal(
                sweep={"backends": ["fingers"]}, configs={"fingers": entry}
            )
            with pytest.raises(SpecError, match="unknown field 'engine'"):
                load_spec(data)

    def test_kernel_policy_section_is_retired(self):
        data = _minimal(
            kernel_policies=[{"name": "recursive", "engine": "recursive"}]
        )
        with pytest.raises(SpecError, match="'kernel_policies'"):
            load_spec(data)

    def test_kernel_policy_name_rules(self):
        for variants in (
            [{"engine": "recursive"}],               # missing name
            [{"name": 3}],                           # not a string
            [{"name": "a/b"}],                       # not a store-safe name
            [{"name": "a"}, {"name": "a"}],          # repeated
            [{"name": "a", "not_a_field": 1}],       # unknown field
            [{"name": "a", "force_kernel": "merge"}],  # retired field
            [{"name": "a", "frontier_budget_bytes": 4096}],  # retired field
            [],                                      # no variant
            [{"name": "a"}, 3],                      # not a table
        ):
            with pytest.raises(SpecError):
                load_spec(_minimal(configs={"functional": variants}))

    def test_non_table_config_is_a_problem(self):
        data = _minimal(sweep={"backends": ["fingers"]}, configs={"fingers": 3})
        with pytest.raises(SpecError, match=r"configs\.fingers\] must be a table"):
            load_spec(data)

    def test_scalar_axis_is_one_problem(self):
        with pytest.raises(SpecError) as excinfo:
            load_spec(_minimal(sweep={"schedules": "dynamic"}))
        assert excinfo.value.problems == ["sweep.schedules must be a list of strings"]
        with pytest.raises(SpecError) as excinfo:
            load_spec(_minimal(sweep={"jobs": 2}))
        assert len(excinfo.value.problems) == 1
        assert excinfo.value.problems[0].startswith("sweep.jobs must be")

    def test_config_values_checked_at_load(self):
        data = _minimal(
            sweep={"backends": ["fingers"]}, configs={"fingers": {"num_pes": "a"}}
        )
        with pytest.raises(SpecError, match=r"\[configs\.fingers\]"):
            load_spec(data)
        for backend, field, value in [
            ("fingers", "task_overhead_cycles", -1),
            ("fingers", "io_cycles_per_item", -2),
            ("fingers", "private_cache_bytes", -64),
            ("fingers", "stream_buffer_bytes", -1),
            ("fingers", "max_task_group_size", 0),
            ("fingers", "divider_long_heads", 0),
            ("fingers", "divider_short_heads", 0),
            ("flexminer", "task_overhead_cycles", -50),
            ("flexminer", "private_cache_bytes", -1),
            ("software", "task_overhead_cycles", -1),
            ("software", "steal_overhead_cycles", -1),
            ("software", "llc_bytes", -1),
        ]:
            data = _minimal(
                sweep={"backends": [backend]},
                configs={backend: {field: value}},
            )
            message = rf"\[configs\.{backend}\] {field} must be >= [01]"
            with pytest.raises(SpecError, match=message):
                load_spec(data)
        # zero cycles and bytes stay legal
        load_spec(_minimal(
            sweep={"backends": ["flexminer"]},
            configs={"flexminer": {"task_overhead_cycles": 0,
                                   "private_cache_bytes": 0}},
        ))

    def test_kernel_policy_values_checked_at_load(self):
        for field, value, message in [
            ("engine", "bogus", "unknown engine 'bogus'"),
            ("engine", "nosuch", "unknown engine 'nosuch'"),
            # The retired auto-tuner opt-in fails loudly at load.
            ("tuned", True, r"unknown field 'tuned' \(valid: engine\)"),
        ]:
            one_table = _minimal(configs={"functional": {field: value}})
            with pytest.raises(
                SpecError, match=rf"\[configs\.functional\] {message}"
            ):
                load_spec(one_table)
            array = _minimal(
                configs={"functional": [{"name": "a", field: value}]}
            )
            with pytest.raises(
                SpecError, match=rf"\[\[configs\.functional\]\] 'a' {message}"
            ):
                load_spec(array)

    def test_available_graphs_override(self):
        data = _minimal(sweep={"graphs": ["tiny"]})
        with pytest.raises(SpecError):
            load_spec(data)
        spec = load_spec(data, available_graphs=["tiny"])
        assert spec.graphs == ("tiny",)


class TestExpansion:
    def test_expansion_is_deterministic_and_ordered(self):
        data = _minimal(sweep={
            "patterns": ["tc", "4cl"],
            "graphs": ["As", "Mi"],
            "backends": ["functional", "fingers"],
        })
        spec = load_spec(data)
        cells = spec.expand()
        assert cells == spec.expand()  # same spec, same matrix
        assert cells[0] == Cell("tc", "As", "functional")
        assert cells[1] == Cell("tc", "As", "fingers")
        assert cells[-1] == Cell("4cl", "Mi", "fingers")
        assert len(cells) == 2 * 2 * 2

    def test_jobs_zero_means_unsharded(self):
        spec = load_spec(_minimal(sweep={"jobs": [0, 4]}))
        assert [c.jobs for c in spec.expand()] == [None, 4]

    def test_policy_axis_applies_to_functional_only(self):
        """An array of named tables gives its own backend one cell per
        entry, in array order; other backends keep ``default``."""
        data = _minimal(
            sweep={"backends": ["functional", "fingers"]},
            configs={"functional": [
                {"name": "recursive", "engine": "recursive"},
                {"name": "default"},
            ]},
        )
        cells = load_spec(data).expand()
        assert [(c.backend, c.policy) for c in cells] == [
            ("functional", "recursive"),
            ("functional", "default"),
            ("fingers", "default"),
        ]

    def test_config_for_builds_overridden_config(self):
        data = _minimal(
            sweep={"backends": ["functional", "fingers"]},
            configs={
                "fingers": {"num_pes": 2},
                "functional": [{"name": "default"},
                               {"name": "oracle", "engine": "recursive"}],
            },
        )
        spec = load_spec(data)
        fingers = spec.config_for(Cell("tc", "As", "fingers"))
        assert isinstance(fingers, FingersConfig)
        assert fingers.num_pes == 2
        default = spec.config_for(Cell("tc", "As", "functional"))
        assert default == KernelPolicy()
        oracle = spec.config_for(Cell("tc", "As", "functional",
                                      policy="oracle"))
        assert oracle == KernelPolicy(engine="recursive")

    def test_one_table_functional_config(self):
        spec = load_spec(_minimal(configs={"functional": {"engine": "recursive"}}))
        (cell,) = spec.expand()
        assert cell.policy == "default"
        assert spec.config_for(cell) == KernelPolicy(engine="recursive")

    def test_cell_label(self):
        assert Cell("tc", "As", "fingers").label == "tc/As/fingers"
        assert Cell(
            "tc", "As", "functional", policy="legacy",
            jobs=4, schedule="static_block",
        ).label == "tc/As/functional/legacy/static_block/jobs=4"


class TestSpecFiles:
    def test_json_spec_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(_minimal()), encoding="utf-8")
        assert load_spec_file(path).name == "demo"

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("sweep: {}", encoding="utf-8")
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec_file(path)

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib is stdlib from 3.11"
    )
    def test_committed_smoke_toml_loads(self):
        spec = load_spec_file("examples/sweeps/smoke.toml")
        assert spec.name == "smoke"
        assert len(spec.expand()) == 2

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="tomllib is stdlib from 3.11"
    )
    @pytest.mark.parametrize("stem, policies", [
        ("engine_frontier", ("default", "recursive")),
    ])
    def test_committed_variant_tomls_expand(self, stem, policies):
        spec = load_spec_file(f"examples/sweeps/{stem}.toml")
        cells = spec.expand()
        assert [c.policy for c in cells] == list(policies) * len(spec.patterns)
        assert [c.pattern for c in cells] == [
            p for p in spec.patterns for _ in policies
        ]

    @pytest.mark.skipif(
        sys.version_info >= (3, 11), reason="exercises the pre-3.11 gate"
    )
    def test_toml_gated_with_clear_error(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("[sweep]\nname = 'x'\n", encoding="utf-8")
        with pytest.raises(SpecError, match="3.11"):
            load_spec_file(path)


class TestMemoryAndEdgeGrammar:
    """The two spec forms the paper figures need: a chip variant's
    ``memory`` table and the ``<pattern>:edge`` workload name."""

    def _chips(self, fingers, backends=("fingers",), **sweep):
        return _minimal(
            sweep={"backends": list(backends), **sweep},
            configs={backends[0]: fingers},
        )

    def test_memory_variant_builds_memory_config(self):
        from repro.hw.api import MemoryConfig
        from repro.hw.noc import NoCConfig

        spec = load_spec(self._chips([
            {"name": "slow", "num_pes": 1, "memory": {"dram_latency": 800}},
            {"name": "narrow", "num_pes": 1,
             "memory": {"noc": {"bytes_per_cycle": 2.0}}},
            {"name": "plain", "num_pes": 1},
        ]))
        slow, narrow, plain = spec.expand()
        assert spec.memory_for(slow) == MemoryConfig(dram_latency=800)
        assert spec.memory_for(narrow) == MemoryConfig(
            noc=NoCConfig(bytes_per_cycle=2.0)
        )
        assert spec.memory_for(plain) is None
        assert spec.config_for(slow) == FingersConfig(num_pes=1)

    def test_unknown_memory_field_rejected(self):
        with pytest.raises(SpecError, match=r"memory unknown field 'dram'"):
            load_spec(self._chips({"memory": {"dram": 1}}))
        with pytest.raises(SpecError, match=r"memory .*bandwidth"):
            load_spec(self._chips({"memory": {"noc": {"bandwidth": 1}}}))

    def test_memory_not_a_table_rejected(self):
        with pytest.raises(SpecError, match="memory must be a table"):
            load_spec(self._chips({"memory": 4}))

    @pytest.mark.parametrize("backend", ["functional", "software"])
    def test_memory_only_on_chip_models(self, backend):
        data = self._chips(
            {"memory": {"dram_latency": 50}}, backends=(backend,)
        )
        with pytest.raises(SpecError, match=rf"only the fingers and "
                                            rf"flexminer .* not {backend}"):
            load_spec(data)

    def test_edge_workload_name(self):
        spec = load_spec(_minimal(sweep={"patterns": ["tt", "tt:edge"]}))
        assert [c.pattern for c in spec.expand()] == ["tt", "tt:edge"]

    @pytest.mark.parametrize("pattern", ["zz:edge", "tt:vertex", "3mc:edge"])
    def test_bad_edge_workload_rejected(self, pattern):
        with pytest.raises(SpecError, match=rf"pattern '{pattern}'"):
            load_spec(_minimal(sweep={"patterns": [pattern]}))
