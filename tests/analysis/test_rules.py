"""Each Tier-A rule fires on its trigger fixture exactly once, and the
clean fixture produces zero findings."""

from pathlib import Path

from repro.analysis import lint_source


def rules_fired(source, module="repro.mining.snippet"):
    return [f.rule for f in lint_source(source, module=module)]


# ----------------------------------------------------------------------
# DET001 — unseeded randomness
# ----------------------------------------------------------------------


def test_det001_global_random_module():
    src = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_det001_from_import():
    src = (
        "from random import shuffle\n"
        "def mix(items):\n"
        "    shuffle(items)\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_det001_numpy_legacy_global():
    src = (
        "import numpy as np\n"
        "def noise(n):\n"
        "    return np.random.rand(n)\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_det001_numpy_submodule_import():
    """``import numpy.random`` binds ``numpy``, so the fully dotted call
    is the global RNG too."""
    src = (
        "import numpy\n"
        "import numpy.random\n"
        "def mix(x):\n"
        "    numpy.random.shuffle(x)\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_det001_unseeded_default_rng():
    src = (
        "import numpy as np\n"
        "def make_rng():\n"
        "    return np.random.default_rng()\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_det001_seeded_rng_is_clean():
    src = (
        "import numpy as np\n"
        "import random\n"
        "def make(seed):\n"
        "    return np.random.default_rng(seed), random.Random(seed)\n"
    )
    assert rules_fired(src) == []


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------


def test_det002_time_read_in_simulation_path():
    src = (
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n"
    )
    assert rules_fired(src, module="repro.hw.snippet") == ["DET002"]


def test_det002_datetime_now():
    src = (
        "from datetime import datetime\n"
        "def stamp():\n"
        "    return datetime.now()\n"
    )
    assert rules_fired(src, module="repro.sw.snippet") == ["DET002"]


def test_det002_out_of_scope_module_not_flagged():
    src = "import time\nT = time.time()\n"
    assert rules_fired(src, module="repro.graph.snippet") == []


# ----------------------------------------------------------------------
# DET003 — unordered-set iteration
# ----------------------------------------------------------------------


def test_det003_for_over_set_literal():
    src = (
        "def walk():\n"
        "    for v in {3, 1, 2}:\n"
        "        yield v\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_set_pop():
    src = (
        "def drain(ext: set[int]) -> list[int]:\n"
        "    out = []\n"
        "    while ext:\n"
        "        out.append(ext.pop())\n"
        "    return out\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_list_materialization_of_set():
    src = (
        "def order(items):\n"
        "    seen = set(items)\n"
        "    return list(seen)\n"
    )
    assert rules_fired(src) == ["DET003"]


def test_det003_sorted_iteration_is_clean():
    src = (
        "def walk(ext: set[int]):\n"
        "    for v in sorted(ext):\n"
        "        yield v\n"
        "    return len(ext), sum(ext)\n"
    )
    assert rules_fired(src) == []


def test_det003_not_applied_outside_hot_paths():
    src = "def walk():\n    return [v for _ in {1, 2} for v in (1,)]\n"
    assert rules_fired(src, module="repro.graph.snippet") == []


# ----------------------------------------------------------------------
# PAR001 — worker-pool dispatch
# ----------------------------------------------------------------------


def test_par001_lambda_to_run_shards():
    src = (
        "from repro.parallel.pool import run_shards\n"
        "def go(payload, shards, jobs):\n"
        "    return run_shards(lambda p, s: s, payload, shards, jobs)\n"
    )
    assert rules_fired(src, module="repro.parallel.snippet") == ["PAR001"]


def test_par001_nested_function_to_run_shards():
    src = (
        "from repro.parallel.pool import run_shards\n"
        "def go(payload, shards, jobs):\n"
        "    def worker(p, s):\n"
        "        return s\n"
        "    return run_shards(worker, payload, shards, jobs)\n"
    )
    assert rules_fired(src, module="repro.parallel.snippet") == ["PAR001"]


def test_par001_lambda_to_executor_map():
    src = (
        "def go(executor, shards):\n"
        "    return list(executor.map(lambda s: s, shards))\n"
    )
    assert rules_fired(src, module="repro.parallel.snippet") == ["PAR001"]


def test_par001_module_level_worker_is_clean():
    src = (
        "from repro.parallel.pool import run_shards\n"
        "def worker(p, s):\n"
        "    return s\n"
        "def go(payload, shards, jobs):\n"
        "    return run_shards(worker, payload, shards, jobs)\n"
    )
    assert rules_fired(src, module="repro.parallel.snippet") == []


# ----------------------------------------------------------------------
# ARCH001 — registry bypass
# ----------------------------------------------------------------------


def test_arch001_run_chip_import_fires():
    src = (
        "from repro.hw.chip import run_chip\n"
        "def go(graph, plans, config):\n"
        "    return run_chip(graph, plans, config, None)\n"
    )
    assert rules_fired(src, module="repro.bench.snippet") == ["ARCH001"]


def test_arch001_relative_import_fires():
    src = "from .miner import SoftwareMiner\n"
    assert rules_fired(src, module="repro.sw.snippet") == ["ARCH001"]


def test_arch001_each_guarded_name_fires_once():
    src = "from repro.sw.miner import SoftwareMiner, simulate_software\n"
    assert rules_fired(src, module="repro.mining.snippet") == [
        "ARCH001", "ARCH001",
    ]


def test_arch001_backend_layer_is_exempt():
    src = "from repro.hw.chip import run_chip\n"
    assert rules_fired(src, module="repro.core.backends") == []


def test_arch001_defining_module_is_exempt():
    src = "from repro.hw.chip import run_chip\n"
    assert rules_fired(src, module="repro.hw.chip") == []


def test_arch001_registry_import_is_clean():
    src = (
        "from repro.core.backend import get_backend\n"
        "def go(graph):\n"
        "    return get_backend('fingers').run(graph, 'tc')\n"
    )
    assert rules_fired(src, module="repro.bench.snippet") == []


def test_arch001_non_repro_source_is_clean():
    src = "from somewhere.else_ import run_chip\n"
    assert rules_fired(src, module="repro.bench.snippet") == []


# ----------------------------------------------------------------------
# PERF001 — array-copy churn inside loops
# ----------------------------------------------------------------------


def test_perf001_np_delete_in_for_loop():
    src = (
        "import numpy as np\n"
        "def drop(values, forbidden):\n"
        "    for f in forbidden:\n"
        "        values = np.delete(values, np.searchsorted(values, f))\n"
        "    return values\n"
    )
    assert rules_fired(src, module="repro.setops.snippet") == ["PERF001"]


def test_perf001_np_append_in_while_loop():
    src = (
        "import numpy as np\n"
        "def grow(out, feed):\n"
        "    while feed:\n"
        "        out = np.append(out, feed.pop(0))\n"
        "    return out\n"
    )
    assert rules_fired(src, module="repro.hw.snippet") == ["PERF001"]


def test_perf001_from_import_alias_fires():
    src = (
        "from numpy import delete as np_delete\n"
        "def drop(values, idxs):\n"
        "    for i in idxs:\n"
        "        values = np_delete(values, i)\n"
        "    return values\n"
    )
    assert rules_fired(src, module="repro.mining.snippet") == ["PERF001"]


def test_perf001_nested_loop_fires_once():
    src = (
        "import numpy as np\n"
        "def churn(rows):\n"
        "    for row in rows:\n"
        "        for i in row:\n"
        "            row = np.delete(row, i)\n"
        "    return rows\n"
    )
    assert rules_fired(src, module="repro.setops.snippet") == ["PERF001"]


def test_perf001_outside_loop_is_clean():
    src = (
        "import numpy as np\n"
        "def drop_one(values, i):\n"
        "    return np.delete(values, i)\n"
    )
    assert rules_fired(src, module="repro.setops.snippet") == []


def test_perf001_not_applied_outside_hot_packages():
    src = (
        "import numpy as np\n"
        "def churn(values, idxs):\n"
        "    for i in idxs:\n"
        "        values = np.delete(values, i)\n"
        "    return values\n"
    )
    assert rules_fired(src, module="repro.graph.snippet") == []


def test_perf001_vectorized_mask_is_clean():
    src = (
        "import numpy as np\n"
        "def drop(values, forbidden):\n"
        "    keep = np.ones(values.size, dtype=bool)\n"
        "    for f in forbidden:\n"
        "        keep &= values != f\n"
        "    return values[keep]\n"
    )
    assert rules_fired(src, module="repro.setops.snippet") == []


# ----------------------------------------------------------------------
# DTYPE001 — dtype churn feeding the set-op kernels
# ----------------------------------------------------------------------


def test_dtype001_astype_feeding_kernel_fires():
    src = (
        "import numpy as np\n"
        "from repro.setops.kernels import intersect_adaptive\n"
        "def count(a, b):\n"
        "    widened = a.astype(np.int64)\n"
        "    return intersect_adaptive(widened, b).size\n"
    )
    findings = lint_source(src, module="repro.mining.snippet")
    assert [f.rule for f in findings] == ["DTYPE001"]
    assert ".astype" in findings[0].message


def test_dtype001_np_array_inline_arg_fires():
    src = (
        "import numpy as np\n"
        "from repro.setops.kernels import intersect_adaptive\n"
        "def count(a, b):\n"
        "    return intersect_adaptive(np.array(a), b).size\n"
    )
    assert rules_fired(src) == ["DTYPE001"]


def test_dtype001_asarray_int32_is_clean():
    src = (
        "import numpy as np\n"
        "from repro.setops.kernels import intersect_adaptive\n"
        "def count(a, b):\n"
        "    ids = np.asarray(a, dtype=np.int32)\n"
        "    return intersect_adaptive(ids, b).size\n"
    )
    assert rules_fired(src) == []


def test_dtype001_conversion_not_reaching_kernel_is_clean():
    src = (
        "import numpy as np\n"
        "def widen(a):\n"
        "    return a.astype(np.int64)\n"
    )
    assert rules_fired(src) == []


def test_dtype001_cold_path_module_not_in_scope():
    src = (
        "import numpy as np\n"
        "from repro.setops.kernels import intersect_adaptive\n"
        "def count(a, b):\n"
        "    return intersect_adaptive(np.array(a), b).size\n"
    )
    assert rules_fired(src, module="repro.experiments.snippet") == []


def test_dtype001_dotted_import_resolves_full_path():
    """``import repro.setops.kernels`` binds ``repro``: a call into
    another ``repro`` package is no kernel call, a fully dotted kernel
    call still is."""
    head = (
        "import numpy as np\n"
        "import repro.setops.kernels\n"
        "def count(a, b):\n"
    )
    other = "    return repro.mining.api.count(a.astype(np.int64), b)\n"
    kernel = (
        "    return repro.setops.kernels.intersect_adaptive(\n"
        "        a.astype(np.int64), b).size\n"
    )
    assert rules_fired(head + other) == []
    assert rules_fired(head + kernel) == ["DTYPE001"]


def test_dtype001_fires_on_seeded_frontier_gather():
    """The real frontier module is clean; an ``.astype`` seeded into its
    ``sg.gather_neighbors`` call (a module-alias import) fires."""
    import repro.mining.frontier as frontier

    source = Path(frontier.__file__).read_text(encoding="utf-8")
    call = "sg.gather_neighbors(graph, verts)"
    assert call in source
    module = "repro.mining.frontier"
    assert rules_fired(source, module=module) == []
    seeded = source.replace(
        call, "sg.gather_neighbors(graph, verts.astype(np.int64))", 1
    )
    assert rules_fired(seeded, module=module) == ["DTYPE001"]


# ----------------------------------------------------------------------
# STORE001 — result writes around the experiment store
# ----------------------------------------------------------------------


def test_store001_write_text_in_bench():
    src = (
        "def publish(results_dir, name, text):\n"
        "    (results_dir / f\"{name}.txt\").write_text(text)\n"
    )
    assert rules_fired(src, module="repro.bench.snippet") == ["STORE001"]


def test_store001_open_for_write_in_experiments():
    src = (
        "def dump(path, payload):\n"
        "    with open(path, \"w\") as handle:\n"
        "        handle.write(payload)\n"
    )
    assert rules_fired(src, module="repro.experiments.snippet") == [
        "STORE001"
    ]


def test_store001_path_open_append():
    src = (
        "def log(path, line):\n"
        "    with path.open(\"a\", encoding=\"utf-8\") as handle:\n"
        "        handle.write(line)\n"
    )
    assert rules_fired(src, module="repro.bench.snippet") == ["STORE001"]


def test_store001_reads_are_clean():
    src = (
        "def slurp(path):\n"
        "    with path.open() as handle:\n"
        "        text = handle.read()\n"
        "    return text + open(path).read() + path.read_text()\n"
    )
    assert rules_fired(src, module="repro.bench.snippet") == []


def test_store001_store_and_report_modules_allowed():
    src = "def save(path, text):\n    path.write_text(text)\n"
    for module in ("repro.experiments.store", "repro.experiments.report"):
        assert rules_fired(src, module=module) == []


def test_store001_out_of_scope_module_not_flagged():
    src = "def save(path, text):\n    path.write_text(text)\n"
    assert rules_fired(src, module="repro.cache") == []


# ----------------------------------------------------------------------
# HYG001 — hygiene
# ----------------------------------------------------------------------


def test_hyg001_mutable_default():
    src = "def add(x, acc=[]):\n    acc.append(x)\n    return acc\n"
    assert rules_fired(src) == ["HYG001"]


# ----------------------------------------------------------------------
# ERR001 — broad exception swallows on worker/hot paths
# ----------------------------------------------------------------------

_SWALLOW = (
    "def safe(fn):\n"
    "    try:\n"
    "        return fn()\n"
    "    except Exception:\n"
    "        pass\n"
)


def test_err001_broad_swallow_on_hot_path():
    assert rules_fired(_SWALLOW) == ["ERR001"]


def test_err001_applies_to_resilience_scope_packages():
    for module in ("repro.cache", "repro.experiments.executor",
                   "repro.resilience.faults"):
        assert rules_fired(_SWALLOW, module=module) == ["ERR001"]


def test_err001_not_applied_outside_scope():
    assert rules_fired(_SWALLOW, module="repro.graph.io") == []


def test_err001_bare_except_swallow():
    src = _SWALLOW.replace("except Exception:", "except:")
    # The bare clause alone is ruff's E722; ERR001 errors on the swallow.
    assert rules_fired(src) == ["ERR001"]


def test_err001_broad_tuple_element_fires():
    src = _SWALLOW.replace(
        "except Exception:", "except (KeyError, BaseException):"
    )
    assert rules_fired(src) == ["ERR001"]


def test_err001_continue_and_docstring_bodies_are_swallows():
    src = (
        "def drain(items):\n"
        "    for item in items:\n"
        "        try:\n"
        "            item()\n"
        "        except Exception:\n"
        "            'tolerated'\n"
        "            continue\n"
    )
    assert rules_fired(src) == ["ERR001"]


def test_err001_handler_that_acts_is_clean():
    src = (
        "def safe(fn, log):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception as exc:\n"
        "        log(exc)\n"
        "        return None\n"
    )
    assert rules_fired(src) == []


def test_err001_narrow_swallow_is_clean():
    src = _SWALLOW.replace("except Exception:", "except (OSError, KeyError):")
    assert rules_fired(src) == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------


def test_noqa_pragma_suppresses_one_line():
    src = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)  # noqa: DET001\n"
    )
    assert rules_fired(src) == []


def test_noqa_other_rule_does_not_suppress():
    src = (
        "import random\n"
        "def pick(items):\n"
        "    return random.choice(items)  # noqa: DET003\n"
    )
    assert rules_fired(src) == ["DET001"]


def test_syntax_error_reported_as_finding():
    findings = lint_source("def broken(:\n", module="repro.mining.snippet")
    assert [f.rule for f in findings] == ["SYNTAX"]


def test_clean_fixture_has_zero_findings():
    src = (
        "import numpy as np\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class SnippetConfig:\n"
        "    seed: int = 7\n"
        "\n"
        "def walk(graph, roots: set[int]):\n"
        "    rng = np.random.default_rng(7)\n"
        "    total = 0\n"
        "    for root in sorted(roots):\n"
        "        total += int(rng.integers(10))\n"
        "    return total\n"
    )
    for module in ("repro.mining.x", "repro.hw.x", "repro.parallel.x"):
        assert rules_fired(src, module=module) == []


def test_rule_catalog_ids_unique_and_documented():
    from repro.analysis import rule_catalog

    rules = rule_catalog()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids))
    assert {"DET001", "DET002", "DET003", "PAR001", "ARCH001", "PERF001",
            "DTYPE001", "STORE001", "ERR001", "HYG001"} <= set(ids)
    assert all(r.summary for r in rules)


def test_repro_package_lints_clean():
    """The installed tree has no Tier-A findings (accepted sites carry
    inline ``# noqa`` pragmas)."""
    from repro.analysis import lint_paths
    from repro.analysis.codelint import default_lint_root

    findings = lint_paths([default_lint_root()])
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in findings
    )
