"""Pinned graphs: every analog and a grid of generator calls, by fingerprint.

Each case builds one graph and records its :meth:`CSRGraph.fingerprint`
(SHA-256 over ``indptr | indices``), so any change to a generator's RNG
draws, to the builders' dedupe/symmetrize/sort, or to the stored dtypes
shows up as a diff.  ``tests/graph/data/graph_pins.json`` holds the
expected values; they were generated before graph construction was
rewritten as whole-array NumPy, and every graph must still match them.

Regenerate (only when a graph is meant to change, and say so in the
change description)::

    PYTHONPATH=src python tests/graph/test_graph_pins.py --regen
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.graph import builders
from repro.graph import generators as gen
from repro.graph.datasets import _BUILDERS, load_dataset

PINS = Path(__file__).with_name("data") / "graph_pins.json"


def _with_cliques(base, num: int, size: int, seed: int):
    """``base`` plus planted cliques, built from edge tuples and
    degree-relabelled: the recipe of the e2e benchmark inputs."""
    n = base.num_vertices
    cliques = gen.planted_cliques(n, num_cliques=num, clique_size=size, seed=seed)
    edges = list(base.edges()) + list(cliques.edges())
    return builders.relabel_by_degree(builders.from_edges(edges, num_vertices=n))


def _cases() -> dict:
    cases = {}
    for name in sorted(_BUILDERS):
        for ordered in (True, False):
            cases[f"dataset-{name}-{'ordered' if ordered else 'raw'}"] = (
                lambda name=name, ordered=ordered: load_dataset(
                    name, degree_ordered=ordered
                )
            )
    for n in (0, 1, 2, 3, 10, 57, 200):
        for p in (0.0, 1e-9, 0.004, 0.05, 0.3, 0.9, 0.999, 1.0):
            for seed in (0, 7):
                cases[f"er-{n}-{p!r}-{seed}"] = (
                    lambda n=n, p=p, seed=seed: gen.erdos_renyi(n, p, seed=seed)
                )
    for scale, ef, seed in ((1, 1, 0), (4, 2, 0), (6, 4, 1), (9, 3, 2), (11, 6, 3)):
        cases[f"rmat-{scale}-{ef}-{seed}"] = (
            lambda scale=scale, ef=ef, seed=seed: gen.rmat(scale, ef, seed=seed)
        )
    cases["rmat-7-5-4-skewed"] = lambda: gen.rmat(7, 5, a=0.45, b=0.25, c=0.2, seed=4)
    for n, exp, lo, hi, seed in (
        (1, 2.5, 1, None, 0),
        (2, 2.5, 1, None, 1),
        (50, 2.5, 1, None, 2),
        (400, 2.1, 3, 60, 3),
        (3000, 2.7, 2, 150, 4),
    ):
        cases[f"powerlaw-{n}-{exp}-{lo}-{hi}-{seed}"] = (
            lambda n=n, exp=exp, lo=lo, hi=hi, seed=seed: gen.powerlaw_configuration(
                n, exponent=exp, min_degree=lo, max_degree=hi, seed=seed
            )
        )
    for n, k, size, bg, seed in (
        (5, 1, 5, 0.0, 0),
        (60, 4, 6, 0.0, 1),
        (300, 20, 5, 0.03, 2),
        (1000, 50, 7, 0.002, 3),
    ):
        cases[f"cliques-{n}-{k}-{size}-{bg}-{seed}"] = (
            lambda n=n, k=k, size=size, bg=bg, seed=seed: gen.planted_cliques(
                n, num_cliques=k, clique_size=size, background_p=bg, seed=seed
            )
        )
    for n, m, seed in ((2, 1, 0), (30, 2, 1), (500, 5, 2)):
        cases[f"ba-{n}-{m}-{seed}"] = (
            lambda n=n, m=m, seed=seed: gen.barabasi_albert(n, m, seed=seed)
        )
    for seed in (1, 2, 3):
        cases[f"mi-like-{seed}"] = lambda seed=seed: _with_cliques(
            gen.barabasi_albert(600, 4, seed=seed), 104, 7, seed + 1
        )
        cases[f"lj-like-{seed}"] = lambda seed=seed: _with_cliques(
            gen.rmat(13, 6, seed=seed), 110, 7, seed + 1
        )
        cases[f"er-relabel-{seed}"] = lambda seed=seed: builders.relabel_by_degree(
            gen.erdos_renyi(400, 0.09, seed=seed)
        )
    cases["er-relabel-ascending"] = lambda: builders.relabel_by_degree(
        gen.erdos_renyi(300, 0.05, seed=5), descending=False
    )
    cases["complete-7"] = lambda: gen.complete_graph(7)
    cases["star-9"] = lambda: gen.star_graph(9)
    cases["cycle-11"] = lambda: gen.cycle_graph(11)
    cases["path-6"] = lambda: gen.path_graph(6)
    return cases


CASES = _cases()


@lru_cache(maxsize=1)
def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_is_pinned(name):
    graph = CASES[name]()
    assert graph.indptr.dtype.name == "int64"
    assert graph.indices.dtype.name == "int32"
    assert graph.fingerprint() == _pins()[name]


def test_pin_file_covers_every_case():
    assert set(_pins()) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_graph_pins.py --regen")
    PINS.parent.mkdir(parents=True, exist_ok=True)
    data = {name: CASES[name]().fingerprint() for name in sorted(CASES)}
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} pins to {PINS}")
