"""Graph signatures: determinism, memoization, and sensitivity."""

import pickle

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.tuning import GraphSignature, graph_signature


def test_signature_is_deterministic_across_instances():
    a = graph_signature(erdos_renyi(90, 0.15, seed=7))
    b = graph_signature(erdos_renyi(90, 0.15, seed=7))
    assert a == b
    assert a.key() == b.key()


def test_signature_fields_are_plausible():
    g = erdos_renyi(90, 0.15, seed=7)
    sig = graph_signature(g)
    assert sig.num_vertices == 90
    assert sig.num_edges == g.num_edges
    assert len(sig.degree_deciles) == 11
    assert sig.degree_deciles == tuple(sorted(sig.degree_deciles))
    assert 0.0 <= sig.hub_mass <= 1.0


def test_different_graphs_get_different_keys():
    er = graph_signature(erdos_renyi(90, 0.15, seed=7))
    ba = graph_signature(barabasi_albert(110, 5, seed=3))
    assert er.key() != ba.key()


def test_signature_is_memoized_on_the_instance():
    g = erdos_renyi(50, 0.2, seed=1)
    assert graph_signature(g) is graph_signature(g)


def test_memo_survives_but_does_not_pickle():
    """The signature cache is derived data: pickling a graph must not
    carry it, and an unpickled graph recomputes the same signature."""
    g = erdos_renyi(50, 0.2, seed=1)
    sig = graph_signature(g)
    clone = pickle.loads(pickle.dumps(g))
    assert clone._signature_cache is None
    assert graph_signature(clone) == sig


def test_hub_mass_rises_with_skew():
    uniform = graph_signature(erdos_renyi(300, 0.15, seed=13))
    skewed = graph_signature(barabasi_albert(300, 5, seed=3))
    assert skewed.hub_mass > uniform.hub_mass


def test_key_is_stable_text_digest():
    sig = GraphSignature(
        num_vertices=10, num_edges=20,
        degree_deciles=(1,) * 11, hub_mass=0.25,
    )
    assert sig.key() == sig.key()
    assert len(sig.key()) == 16
