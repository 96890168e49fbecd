"""Public-API surface tests: everything advertised must import and work."""

import ast
import importlib
import re
from pathlib import Path

import pytest

API_DOC = Path(__file__).resolve().parents[1] / "docs" / "API.md"


PACKAGES = [
    "repro",
    "repro.graph",
    "repro.pattern",
    "repro.core",
    "repro.setops",
    "repro.mining",
    "repro.hw",
    "repro.sw",
    "repro.bench",
    "repro.experiments",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PACKAGES[:-1])
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert getattr(module, symbol, None) is not None, (name, symbol)

    def test_lazy_hw_exports(self):
        import repro

        assert repro.FingersConfig is not None
        assert repro.FlexMinerConfig is not None
        assert callable(repro.simulate)
        assert callable(repro.speedup_grid)
        with pytest.raises(AttributeError):
            repro.not_a_real_symbol

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestDocstrings:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_every_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__) > 40, name

    def test_every_public_symbol_documented(self):
        undocumented = []
        for name in PACKAGES[:-1]:
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                obj = getattr(module, symbol)
                if callable(obj) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{name}.{symbol}")
        assert not undocumented, undocumented


class TestReadmeQuickstart:
    def test_quickstart_snippet_works(self):
        """The README's quickstart must stay runnable."""
        from repro import load_dataset, count, motif_census

        graph = load_dataset("Mi")
        assert count(graph, "tc") > 0
        census = motif_census(graph, 3)
        assert census["tc"] == count(graph, "tc")

        from repro import simulate, FingersConfig, FlexMinerConfig

        roots = range(0, graph.num_vertices, 8)
        fingers = simulate(graph, "tc", FingersConfig(num_pes=1), roots=roots)
        baseline = simulate(graph, "tc", FlexMinerConfig(num_pes=1), roots=roots)
        assert fingers.speedup_over(baseline) > 1.0


def _api_doc_imports():
    """``(module, name)`` for every ``from repro... import`` in the
    ```` ```python ```` blocks of docs/API.md."""
    blocks = re.findall(r"```python\n(.*?)```", API_DOC.read_text(), re.S)
    assert blocks
    pairs = []
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "repro"
            ):
                pairs.extend((node.module, a.name) for a in node.names)
    return pairs


class TestApiDoc:
    def test_every_documented_import_resolves(self):
        missing = []
        for module_name, name in _api_doc_imports():
            module = importlib.import_module(module_name)
            if hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                missing.append(f"{module_name}.{name}")
        assert not missing, missing
