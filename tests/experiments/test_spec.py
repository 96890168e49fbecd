"""Sweep-spec validation and deterministic matrix expansion."""

import json
import sys

import pytest

from repro.experiments import Cell, SpecError, load_spec, load_spec_file
from repro.hw.api import FingersConfig


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
        data = _minimal(
            sweep={"backends": ["fingers"]},
            kernel_policies=[{"name": "recursive", "engine": "recursive"}],
        )
        with pytest.raises(SpecError, match="functional"):
            load_spec(data)

    def test_kernel_policy_name_rules(self):
        for policies in (
            [{"engine": "recursive"}],               # missing name
            [{"name": "default"}],                   # reserved
            [{"name": "a"}, {"name": "a"}],          # repeated
            [{"name": "a", "not_a_field": 1}],       # unknown field
            [{"name": "a", "force_kernel": "merge"}],  # retired field
        ):
            with pytest.raises(SpecError):
                load_spec(_minimal(kernel_policies=policies))

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

    def test_kernel_policy_values_checked_at_load(self):
        for policy, message in [
            ({"name": "a", "engine": "bogus"}, "kernel policy 'a'.*bogus"),
            ({"name": "b", "frontier_budget_bytes": 0},
             "kernel policy 'b'.*frontier_budget_bytes must be >= 1"),
        ]:
            data = _minimal(kernel_policies=[policy])
            with pytest.raises(SpecError, match=message):
                load_spec(data)

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
        data = _minimal(
            sweep={"backends": ["functional", "fingers"]},
            kernel_policies=[
                {"name": "recursive", "engine": "recursive"},
            ],
        )
        cells = load_spec(data).expand()
        policies = {(c.backend, c.policy) for c in cells}
        assert policies == {
            ("functional", "default"),
            ("functional", "recursive"),
            ("fingers", "default"),
        }

    def test_config_for_builds_overridden_config(self):
        data = _minimal(
            sweep={"backends": ["functional", "fingers"]},
            configs={"fingers": {"num_pes": 2}},
            kernel_policies=[{"name": "small-spill",
                              "frontier_budget_bytes": 4096}],
        )
        spec = load_spec(data)
        fingers = spec.config_for(Cell("tc", "As", "fingers"))
        assert isinstance(fingers, FingersConfig)
        assert fingers.num_pes == 2
        default = spec.config_for(Cell("tc", "As", "functional"))
        assert default.kernels is None
        small = spec.config_for(Cell("tc", "As", "functional",
                                     policy="small-spill"))
        assert small.kernels.frontier_budget_bytes == 4096

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
        sys.version_info >= (3, 11), reason="exercises the pre-3.11 gate"
    )
    def test_toml_gated_with_clear_error(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("[sweep]\nname = 'x'\n", encoding="utf-8")
        with pytest.raises(SpecError, match="3.11"):
            load_spec_file(path)
