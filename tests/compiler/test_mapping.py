"""Initial mapping strategies."""

import gc

import networkx as nx
import pytest

from repro.circuits import get_benchmark
from repro.compiler import greedy_mapping, random_mapping
from repro.compiler import mapping as mapping_module
from repro.topologies import get_topology


@pytest.fixture(scope="module")
def falcon():
    return get_topology("falcon")


@pytest.fixture(scope="module")
def bv9():
    return get_benchmark("bv-9")


def test_random_mapping_injective(falcon, bv9):
    mapping = random_mapping(bv9, falcon, seed=3)
    assert len(mapping) == 9
    assert len(set(mapping.values())) == 9
    assert set(mapping) == set(range(9))


def test_random_mapping_region_connected(falcon, bv9):
    for seed in range(10):
        mapping = random_mapping(bv9, falcon, seed=seed)
        region = falcon.graph.subgraph(mapping.values())
        assert nx.is_connected(region), f"seed {seed} not connected"


def test_random_mapping_deterministic(falcon, bv9):
    assert random_mapping(bv9, falcon, seed=5) == random_mapping(
        bv9, falcon, seed=5
    )


def test_random_mapping_varies_with_seed(falcon, bv9):
    maps = {tuple(sorted(random_mapping(bv9, falcon, seed=s).items())) for s in range(8)}
    assert len(maps) > 1


def test_random_mapping_rejects_oversize(falcon):
    from repro.circuits import QuantumCircuit

    with pytest.raises(ValueError):
        random_mapping(QuantumCircuit(28), falcon, seed=1)


def test_greedy_mapping_injective_and_tight(falcon, bv9):
    mapping = greedy_mapping(bv9, falcon)
    assert len(set(mapping.values())) == 9
    # The ancilla (most interactions) should sit next to many inputs.
    ancilla_phys = mapping[8]
    neighbors = set(falcon.graph.neighbors(ancilla_phys))
    mapped_inputs = {mapping[q] for q in range(8)}
    assert neighbors & mapped_inputs


def test_greedy_mapping_whole_device():
    grid = get_topology("grid")
    circuit = get_benchmark("bv-16")
    mapping = greedy_mapping(circuit, grid)
    assert len(set(mapping.values())) == 16


def test_path_memo_dies_with_its_graph(bv9):
    # The memo is keyed on the graph object, not its id(): once the
    # topology is gone its paths are gone, so a later graph that reuses
    # the freed id can never read them.
    mapping_module._PATH_CACHE.clear()
    topology = get_topology("falcon")
    random_mapping(bv9, topology, seed=3)
    assert len(mapping_module._PATH_CACHE) == 1
    del topology
    gc.collect()
    assert len(mapping_module._PATH_CACHE) == 0

