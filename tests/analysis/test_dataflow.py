"""Tier-C dataflow analyzer: call graph, facts, and each rule family.

Every rule gets a trigger fixture (fires) and a clean fixture (does
not).
"""

import textwrap

from repro.analysis.dataflow import (
    analyze_sources,
    build_project,
    compute_facts,
)


def src(text):
    return textwrap.dedent(text).strip() + "\n"


def fired(sources, rule=None):
    findings = analyze_sources(
        {name: src(text) for name, text in sources.items()}
    )
    if rule is None:
        return [f.rule for f in findings]
    return [f for f in findings if f.rule == rule]


def model_of(sources):
    return build_project(
        {
            name: (f"<{name}>", src(text))
            for name, text in sources.items()
        }
    )


# ----------------------------------------------------------------------
# Call graph construction
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_local_and_from_import_edges(self):
        model = model_of({
            "repro.a": """
                def helper():
                    return 1

                def caller():
                    return helper()
            """,
            "repro.b": """
                from repro.a import helper

                def outside():
                    return helper()
            """,
        })
        assert "repro.a.helper" in model.calls["repro.a.caller"]
        assert "repro.a.helper" in model.calls["repro.b.outside"]

    def test_module_alias_edge(self):
        model = model_of({
            "repro.a": """
                def helper():
                    return 1
            """,
            "repro.b": """
                import repro.a as a

                def outside():
                    return a.helper()
            """,
        })
        assert "repro.a.helper" in model.calls["repro.b.outside"]

    def test_self_dispatch_includes_subclass_overrides(self):
        model = model_of({
            "repro.m": """
                class Base:
                    def run(self):
                        return self.step()

                    def step(self):
                        raise NotImplementedError

                class Impl(Base):
                    def step(self):
                        return 42
            """,
        })
        targets = model.calls["repro.m.Base.run"]
        assert "repro.m.Base.step" in targets
        assert "repro.m.Impl.step" in targets

    def test_duck_typed_method_matching(self):
        model = model_of({
            "repro.m": """
                class Engine:
                    def simulate(self):
                        return 1

                def drive(engine):
                    return engine.simulate()
            """,
        })
        assert "repro.m.Engine.simulate" in model.calls["repro.m.drive"]

    def test_builtin_method_names_not_matched(self):
        model = model_of({
            "repro.m": """
                class Custom:
                    def append(self, x):
                        return x

                def collect(items):
                    out = []
                    out.append(1)
                    return out
            """,
        })
        assert model.calls["repro.m.collect"] == set()

    def test_instantiation_edges_to_init(self):
        model = model_of({
            "repro.m": """
                class Thing:
                    def __init__(self):
                        self.x = 1

                def build():
                    return Thing()
            """,
        })
        assert "repro.m.Thing.__init__" in model.calls["repro.m.build"]

    def test_syntax_error_module_skipped(self):
        model = model_of({
            "repro.ok": "def fine():\n    return 1",
            "repro.broken": "def broken(:\n    pass",
        })
        assert "repro.ok" in model.modules
        assert "repro.broken" not in model.modules


# ----------------------------------------------------------------------
# Fact propagation
# ----------------------------------------------------------------------


class TestFacts:
    def test_run_shards_first_arg_is_worker_entry(self):
        model = model_of({
            "repro.w": """
                from repro.parallel.pool import run_shards

                def _worker(payload, shard):
                    return helper(shard)

                def helper(shard):
                    return shard

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        })
        facts = compute_facts(model)
        assert "repro.w._worker" in facts.worker_entries
        # Transitive: helper runs in workers too, with a witness chain.
        assert facts.runs_in_worker("repro.w.helper")
        assert "w._worker" in facts.worker_witness("repro.w.helper")
        # The driver itself does not run in workers.
        assert not facts.runs_in_worker("repro.w.drive")

    def test_pool_initializer_kwarg_is_worker_entry(self):
        model = model_of({
            "repro.w": """
                from concurrent.futures import ProcessPoolExecutor

                def _init(state):
                    pass

                def drive():
                    with ProcessPoolExecutor(initializer=_init) as ex:
                        pass
            """,
        })
        facts = compute_facts(model)
        assert "repro.w._init" in facts.worker_entries

    def test_executor_submit_arg_is_worker_entry(self):
        model = model_of({
            "repro.w": """
                def _task(x):
                    return x

                def drive(ex):
                    return ex.submit(_task, 1)
            """,
        })
        facts = compute_facts(model)
        assert "repro.w._task" in facts.worker_entries


# ----------------------------------------------------------------------
# RACE001 / RACE002
# ----------------------------------------------------------------------

_RACE_TRIGGER = {
    "repro.w": """
        from repro.parallel.pool import run_shards

        _CACHE = {}

        def _worker(payload, shard):
            _CACHE[shard] = payload
            return shard

        def drive(chunks):
            return run_shards(_worker, {}, chunks, 4)
    """,
}


class TestRace:
    def test_race001_global_mutation_on_worker_path(self):
        findings = fired(_RACE_TRIGGER, "RACE001")
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert "worker entry" in findings[0].message

    def test_race001_global_rebind_on_worker_path(self):
        findings = fired({
            "repro.w": """
                from repro.parallel.pool import run_shards

                _STATE = None

                def _worker(payload, shard):
                    global _STATE
                    _STATE = shard
                    return shard

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        }, "RACE001")
        assert len(findings) == 1
        assert "_STATE" in findings[0].message

    def test_race001_transitive_through_helper(self):
        findings = fired({
            "repro.w": """
                from repro.parallel.pool import run_shards

                _SEEN = []

                def _worker(payload, shard):
                    note(shard)
                    return shard

                def note(shard):
                    _SEEN.append(shard)

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        }, "RACE001")
        assert len(findings) == 1
        assert "note" in findings[0].message

    def test_race001_clean_when_not_on_worker_path(self):
        assert fired({
            "repro.w": """
                _CACHE = {}

                def remember(key, value):
                    _CACHE[key] = value
            """,
        }, "RACE001") == []

    def test_race001_local_shadow_not_flagged(self):
        assert fired({
            "repro.w": """
                from repro.parallel.pool import run_shards

                _CACHE = {}

                def _worker(payload, shard):
                    _CACHE = {}
                    _CACHE[shard] = payload
                    return shard

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        }, "RACE001") == []

    def test_race001_noqa_suppresses(self):
        sources = {
            "repro.w": src("""
                from repro.parallel.pool import run_shards

                _CACHE = {}

                def _worker(payload, shard):
                    _CACHE[shard] = payload  # noqa: RACE001
                    return shard

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """),
        }
        assert analyze_sources(sources) == []

    def test_race002_payload_mutation_in_worker_entry(self):
        findings = fired({
            "repro.w": """
                from repro.parallel.pool import run_shards

                def _worker(payload, shard):
                    payload["seen"] = shard
                    return shard

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        }, "RACE002")
        assert len(findings) == 1
        assert "payload" in findings[0].message

    def test_race002_clean_read_only_payload(self):
        assert fired({
            "repro.w": """
                from repro.parallel.pool import run_shards

                def _worker(payload, shard):
                    local = list(payload["roots"])
                    local.append(shard)
                    return local

                def drive(chunks):
                    return run_shards(_worker, {}, chunks, 4)
            """,
        }, "RACE002") == []


# ----------------------------------------------------------------------
# DTYPE001
# ----------------------------------------------------------------------

_FAKE_KERNELS = """
    def intersect_adaptive(a, b, policy=None):
        return a
"""


class TestDtype:
    def test_astype_feeding_kernel_fires(self):
        findings = fired({
            "repro.mining.fake": """
                import numpy as np
                from repro.setops.kernels import intersect_adaptive

                def count(a, b):
                    widened = a.astype(np.int64)
                    return intersect_adaptive(widened, b).size
            """,
            "repro.setops.kernels": _FAKE_KERNELS,
        }, "DTYPE001")
        assert len(findings) == 1
        assert ".astype" in findings[0].message

    def test_np_array_inline_arg_fires(self):
        findings = fired({
            "repro.mining.fake": """
                import numpy as np
                from repro.setops.kernels import intersect_adaptive

                def count(a, b):
                    return intersect_adaptive(np.array(a), b).size
            """,
            "repro.setops.kernels": _FAKE_KERNELS,
        }, "DTYPE001")
        assert len(findings) == 1

    def test_asarray_int32_is_clean(self):
        assert fired({
            "repro.mining.fake": """
                import numpy as np
                from repro.setops.kernels import intersect_adaptive

                def count(a, b):
                    ids = np.asarray(a, dtype=np.int32)
                    return intersect_adaptive(ids, b).size
            """,
            "repro.setops.kernels": _FAKE_KERNELS,
        }, "DTYPE001") == []

    def test_conversion_not_reaching_kernel_is_clean(self):
        assert fired({
            "repro.mining.fake": """
                import numpy as np

                def widen(a):
                    return a.astype(np.int64)
            """,
            "repro.setops.kernels": _FAKE_KERNELS,
        }, "DTYPE001") == []

    def test_cold_path_module_not_in_scope(self):
        assert fired({
            "repro.experiments.fake": """
                import numpy as np
                from repro.setops.kernels import intersect_adaptive

                def count(a, b):
                    return intersect_adaptive(np.array(a), b).size
            """,
            "repro.setops.kernels": _FAKE_KERNELS,
        }, "DTYPE001") == []


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------


def test_real_tree_is_flow_clean():
    """src/repro carries no un-suppressed Tier-C findings (the audited
    pool/kernels sites are noqa'd with reasons)."""
    from pathlib import Path

    from repro.analysis.dataflow import lint_flow_paths

    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert lint_flow_paths([root]) == []
