"""Topology construction tests: fat-tree port counts, rail-opt inventory, OCS."""

import pytest

from repro.errors import CircuitConflictError, CircuitError, TopologyError
from repro.topology.base import (
    LinkKind,
    NodeKind,
    Topology,
    _natural_key,
    nic_port_node_name,
)
from repro.topology.devices import dgx_h200_cluster, perlmutter_testbed
from repro.topology.fattree import build_fat_tree_fabric, fat_tree_inventory
from repro.topology.ocs import Circuit, CircuitConfiguration, OpticalCircuitSwitch
from repro.topology.railopt import build_rail_optimized_fabric, rail_optimized_inventory


# --------------------------------------------------------------------------- #
# Fat tree
# --------------------------------------------------------------------------- #


def test_fat_tree_every_nic_port_attaches_to_one_edge_switch():
    cluster = perlmutter_testbed(num_nodes=2)
    fabric = build_fat_tree_fabric(cluster)
    topology = fabric.topology
    ports_per_gpu = cluster.nic_port_config.num_ports
    for gpu in range(cluster.num_gpus):
        for port in range(ports_per_gpu):
            name = nic_port_node_name(gpu, port)
            edge_links = [
                link
                for link in topology.out_links(name)
                if topology.node(link.dst).kind == NodeKind.ELECTRICAL_SWITCH
            ]
            assert len(edge_links) == 1, f"{name} must uplink to exactly one edge"


def test_fat_tree_edge_switch_port_counts_respect_radix():
    cluster = dgx_h200_cluster(num_gpus=64)
    fabric = build_fat_tree_fabric(cluster)
    topology = fabric.topology
    radix = cluster.electrical_switch.radix
    switches = topology.nodes(NodeKind.ELECTRICAL_SWITCH)
    assert len(switches) == fabric.edge_switches + fabric.aggregation_switches + (
        fabric.core_switches
    )
    for switch in switches:
        # Each bidirectional neighbor pair is one physical port (possibly a
        # fat aggregate); the un-aggregated host-facing side is exact.
        down = [
            link
            for link in topology.in_links(switch.name)
            if topology.node(link.src).kind == NodeKind.NIC_PORT
        ]
        assert len(down) <= radix


def test_fat_tree_inventory_matches_graph_construction():
    cluster = perlmutter_testbed(num_nodes=4)
    inventory = fat_tree_inventory(cluster)
    fabric = build_fat_tree_fabric(cluster)
    assert fabric.inventory == inventory
    assert inventory.electrical_switches > 0
    assert inventory.ocs_ports == 0


def test_fat_tree_is_fully_connected_across_domains():
    cluster = perlmutter_testbed(num_nodes=2)
    topology = build_fat_tree_fabric(cluster).topology
    # GPU 0 (domain 0) must reach GPU 4 (domain 1) through the packet fabric.
    path = topology.shortest_path("gpu0", "gpu4")
    assert path, "expected a multi-hop path between domains"
    assert topology.path_bottleneck_bandwidth(path) > 0


# --------------------------------------------------------------------------- #
# Rail-optimized
# --------------------------------------------------------------------------- #


def test_rail_optimized_inventory_matches_graph_construction():
    cluster = perlmutter_testbed(num_nodes=4)
    fabric = build_rail_optimized_fabric(cluster)
    assert fabric.inventory == rail_optimized_inventory(cluster)
    # One leaf per rail suffices for 4 endpoints against a 64-radix switch.
    assert fabric.leaf_switches_per_rail == 1
    assert fabric.spine_switches >= 1


# --------------------------------------------------------------------------- #
# Deterministic routing and equal-cost path enumeration
# --------------------------------------------------------------------------- #


def _diamond(order):
    """A two-tier diamond (s -> m<i> -> t) built in the given middle order."""
    topo = Topology("diamond")
    topo.add_node("s", NodeKind.ELECTRICAL_SWITCH)
    topo.add_node("t", NodeKind.ELECTRICAL_SWITCH)
    for middle in order:
        topo.add_node(middle, NodeKind.ELECTRICAL_SWITCH)
    for middle in order:
        topo.add_link("s", middle, bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
        topo.add_link(middle, "t", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    return topo


def test_shortest_path_ties_break_by_name_not_insertion_order():
    middles = ["m1", "m2", "m10", "m3"]
    forward = _diamond(middles)
    shuffled = _diamond(list(reversed(middles)))
    forward_names = [link.dst for link in forward.shortest_path("s", "t")]
    shuffled_names = [link.dst for link in shuffled.shortest_path("s", "t")]
    assert forward_names == shuffled_names
    # Natural order: the digit run compares as an int, so m2 < m10.
    assert forward_names[0] == "m1"


def test_neighbor_lists_follow_natural_keys_across_ties_and_new_nodes():
    # "m1" and "m01" have equal natural keys, so the sort keeps their link
    # order, which here is the reverse of their node order.
    topo = Topology()
    for name in ("s", "m10", "m1", "m2", "m01"):
        topo.add_node(name, NodeKind.ELECTRICAL_SWITCH)
    for name in ("m10", "m01", "m2", "m1"):
        topo.add_link("s", name, bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    topo.shortest_path("s", "m2")
    topo.add_node("m0", NodeKind.ELECTRICAL_SWITCH)
    topo.add_link("s", "m0", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    succ, _ = topo._search_lists()
    routing = [neighbor for neighbor, _ in topo._routing_lists()["s"]]
    assert succ["s"] == routing == ["m0", "m01", "m1", "m2", "m10"]
    out_names = [link.dst for link in topo.out_links("s")]
    assert routing == sorted(out_names, key=_natural_key)


def _switches(*names):
    topo = Topology()
    for name in names:
        topo.add_node(name, NodeKind.ELECTRICAL_SWITCH)
    return topo


def _link(topo, src, dst):
    return topo.add_link(src, dst, bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)


def test_removing_a_neighbors_last_link_moves_it_to_the_end_when_re_added():
    topo = _switches("a", "b", "c", "d")
    ab = _link(topo, "a", "b")
    _link(topo, "a", "c")
    _link(topo, "a", "d")
    topo.remove_link(ab.link_id)
    assert [link.dst for link in topo.out_links("a")] == ["c", "d"]
    _link(topo, "a", "b")
    assert [link.dst for link in topo.out_links("a")] == ["c", "d", "b"]
    assert [link.src for link in topo.in_links("b")] == ["a"]


def test_fail_and_restore_keep_adjacency_order_in_in_links_and_links_between():
    topo = _switches("a", "b", "c", "x")
    first = _link(topo, "a", "x")
    bx = _link(topo, "b", "x")
    cx = _link(topo, "c", "x")
    second = _link(topo, "a", "x")
    # Failing one of two parallel links keeps the neighbor's entry in place.
    topo.fail_link(first.link_id)
    assert topo.in_links("x") == [second, bx, cx]
    topo.restore_link(first.link_id)
    assert topo.links_between("a", "x") == [second, first]
    assert topo.in_links("x") == [second, first, bx, cx]
    # Failing a neighbor's only link drops its entry; restoring appends it.
    topo.fail_link(bx.link_id)
    assert topo.links_between("b", "x") == []
    assert topo.in_links("x") == [second, first, cx]
    topo.restore_link(bx.link_id)
    assert topo.in_links("x") == [second, first, cx, bx]
    assert topo.links_between("b", "x") == [bx]
    assert topo.out_links("a") == [second, first]


def test_parallel_links_route_over_the_lowest_live_id():
    topo = _switches("a", "b")
    low = _link(topo, "a", "b")
    high = _link(topo, "a", "b")
    assert topo.shortest_path("a", "b") == [low]
    assert topo.paths_from("a")["b"] == [low]
    topo.fail_link(low.link_id)
    assert topo.shortest_path("a", "b") == [high]
    assert topo.paths_from("a")["b"] == [high]
    # Restored, the lower id wins again although it now sits after ``high``.
    topo.restore_link(low.link_id)
    assert topo.links_between("a", "b") == [high, low]
    assert topo.shortest_path("a", "b") == [low]
    assert topo.paths_from("a")["b"] == [low]


def test_equal_cost_paths_enumerates_all_minimum_hop_paths():
    topo = _diamond(["m1", "m2", "m3"])
    paths = topo.equal_cost_paths("s", "t")
    assert len(paths) == 3
    assert [path[0].dst for path in paths] == ["m1", "m2", "m3"]
    hop_count = len(topo.shortest_path("s", "t"))
    assert all(len(path) == hop_count for path in paths)
    # The single-path route is the first entry of the equal-cost set.
    assert list(paths[0]) == topo.shortest_path("s", "t")


def test_equal_cost_paths_insertion_order_invariant():
    middles = ["m1", "m2", "m10", "m3"]
    forward = _diamond(middles)
    shuffled = _diamond(list(reversed(middles)))
    forward_mids = [[link.dst for link in path] for path in forward.equal_cost_paths("s", "t")]
    shuffled_mids = [[link.dst for link in path] for path in shuffled.equal_cost_paths("s", "t")]
    assert forward_mids == shuffled_mids
    assert [mids[0] for mids in forward_mids] == ["m1", "m2", "m3", "m10"]


def test_equal_cost_paths_respects_max_paths_and_self_and_missing():
    topo = _diamond(["m1", "m2", "m3"])
    truncated = topo.equal_cost_paths("s", "t", max_paths=2)
    assert len(truncated) == 2
    assert truncated == topo.equal_cost_paths("s", "t")[:2]
    assert topo.equal_cost_paths("s", "s") == [()]
    topo.add_node("island", NodeKind.ELECTRICAL_SWITCH)
    with pytest.raises(TopologyError):
        topo.equal_cost_paths("s", "island")


def test_equal_cost_paths_excludes_longer_detours():
    topo = _diamond(["m1", "m2"])
    # A 3-hop detour must not appear in the 2-hop equal-cost set.
    topo.add_node("d1", NodeKind.ELECTRICAL_SWITCH)
    topo.add_node("d2", NodeKind.ELECTRICAL_SWITCH)
    topo.add_link("s", "d1", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    topo.add_link("d1", "d2", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    topo.add_link("d2", "t", bandwidth=1.0, latency=0.0, kind=LinkKind.ELECTRICAL)
    paths = topo.equal_cost_paths("s", "t")
    assert len(paths) == 2
    assert all(len(path) == 2 for path in paths)


def test_fat_tree_has_multiple_equal_cost_cross_domain_paths():
    # The tiny radix-4 switch forces cross-node routes through the redundant
    # aggregation tier; the default 64-radix switch would collapse four nodes
    # onto one edge switch and leave a single path.
    from repro.experiments.contention import mini_fat_tree_cluster

    topology = build_fat_tree_fabric(mini_fat_tree_cluster(num_nodes=4)).topology
    paths = topology.equal_cost_paths("gpu0", "gpu4")
    assert len(paths) >= 2
    assert list(paths[0]) == topology.shortest_path("gpu0", "gpu4")
    signatures = {tuple(link.link_id for link in path) for path in paths}
    assert len(signatures) == len(paths), "equal-cost paths must be distinct"


# --------------------------------------------------------------------------- #
# OCS circuits
# --------------------------------------------------------------------------- #


def test_circuit_normalizes_port_order():
    assert Circuit(7, 3) == Circuit(3, 7)
    assert Circuit(7, 3).ports == (3, 7)


def test_circuit_rejects_self_loops_and_negative_ports():
    with pytest.raises(CircuitError):
        Circuit(4, 4)
    with pytest.raises(CircuitError):
        Circuit(-1, 2)


def test_configuration_rejects_port_conflicts():
    with pytest.raises(CircuitConflictError):
        CircuitConfiguration((Circuit(0, 1), Circuit(1, 2)))


def test_switch_apply_reports_delta_and_preserves_shared_circuits():
    switch = OpticalCircuitSwitch("test.ocs")
    first = CircuitConfiguration((Circuit(0, 1), Circuit(2, 3)))
    torn, set_up = switch.apply(first)
    assert (torn, set_up) == (0, 2)
    # Keep 0<->1, replace 2<->3 with 2<->4.
    second = CircuitConfiguration((Circuit(0, 1), Circuit(2, 4)))
    torn, set_up = switch.apply(second)
    assert (torn, set_up) == (1, 1)
    assert switch.is_connected(0, 1)
    assert switch.is_connected(2, 4)
    assert switch.reconfiguration_count == 2
    # A no-op apply does not count as a reconfiguration.
    torn, set_up = switch.apply(second)
    assert (torn, set_up) == (0, 0)
    assert switch.reconfiguration_count == 2


def test_switch_rejects_ports_outside_radix():
    switch = OpticalCircuitSwitch("test.ocs")
    with pytest.raises(CircuitError):
        switch.install(Circuit(0, switch.radix))


def test_switch_install_conflict_raises():
    switch = OpticalCircuitSwitch("test.ocs")
    switch.install(Circuit(0, 1))
    with pytest.raises(CircuitConflictError):
        switch.install(Circuit(1, 2))
