"""Tests for machines, tiers, links and topology."""

import pytest

from repro.cluster import (
    Link,
    Machine,
    NetworkTopology,
    Tier,
    TIER_FLOPS,
    transfer_time,
)


def test_tier_defaults_applied():
    machine = Machine("edge-0", Tier.EDGE)
    assert machine.flops == TIER_FLOPS[Tier.EDGE]


def test_tier_ordering():
    # each tier's uplink leads one tier up; the cloud is the root
    topo = NetworkTopology.build_fog_hierarchy(
        edges_per_fog=1, fogs_per_server=1, servers=1)
    name = topo.machines(Tier.EDGE)[0].name
    tiers = [Tier.EDGE]
    while topo.parent_of(name) is not None:
        name = topo.parent_of(name)
        tiers.append(topo.machine(name).tier)
    assert tiers == [Tier.EDGE, Tier.FOG, Tier.SERVER, Tier.CLOUD]


def test_transfer_time_formula():
    # 1 MB over 1 MB/s with 10ms latency = 1.01s
    assert transfer_time(1e6, 1e6, 0.010) == pytest.approx(1.01)


def test_transfer_time_rejects_bad_inputs():
    with pytest.raises(ValueError):
        transfer_time(-1, 1e6, 0)
    with pytest.raises(ValueError):
        transfer_time(1, 0, 0)


def test_link_transfer_time():
    link = Link("a", "b", bandwidth_bytes_per_s=2e6, latency_s=0.5)
    assert link.transfer_time(2e6) == pytest.approx(1.5)


class TestNetworkTopology:
    def test_duplicate_machine_rejected(self):
        topo = NetworkTopology()
        topo.add_machine(Machine("a", Tier.EDGE))
        with pytest.raises(ValueError):
            topo.add_machine(Machine("a", Tier.FOG))

    def test_link_requires_known_endpoints(self):
        topo = NetworkTopology()
        topo.add_machine(Machine("a", Tier.EDGE))
        with pytest.raises(KeyError):
            topo.add_link(Link("a", "ghost", 1e6, 0.0))

    def test_unknown_machine_lookup(self):
        topo = NetworkTopology()
        with pytest.raises(KeyError):
            topo.machine("nope")

    def test_hierarchy_counts(self):
        topo = NetworkTopology.build_fog_hierarchy(
            edges_per_fog=3, fogs_per_server=2, servers=2)
        assert len(topo.machines(Tier.CLOUD)) == 1
        assert len(topo.machines(Tier.SERVER)) == 2
        assert len(topo.machines(Tier.FOG)) == 4
        assert len(topo.machines(Tier.EDGE)) == 12
        assert len(topo.machines()) == 19

    def test_hierarchy_rejects_zero_fanout(self):
        with pytest.raises(ValueError):
            NetworkTopology.build_fog_hierarchy(edges_per_fog=0)

    def test_uplink_path_reaches_cloud(self):
        topo = NetworkTopology.build_fog_hierarchy()
        edge = topo.machines(Tier.EDGE)[0]
        path = list(topo.uplink_path(edge.name))
        assert len(path) == 3
        assert topo.machine(path[-1].dst).tier == Tier.CLOUD

    def test_uplink_transfer_time_accumulates(self):
        topo = NetworkTopology.build_fog_hierarchy()
        edge = topo.machines(Tier.EDGE)[0]
        fog = topo.parent_of(edge.name)
        server = topo.parent_of(fog)
        one_hop = topo.uplink_transfer_time(edge.name, fog, 1e6)
        two_hop = topo.uplink_transfer_time(edge.name, server, 1e6)
        assert two_hop > one_hop > 0

    def test_uplink_transfer_same_node_is_free(self):
        topo = NetworkTopology.build_fog_hierarchy()
        edge = topo.machines(Tier.EDGE)[0]
        assert topo.uplink_transfer_time(edge.name, edge.name, 1e9) == 0.0

    def test_uplink_transfer_unreachable(self):
        topo = NetworkTopology.build_fog_hierarchy(servers=2)
        edge = topo.machines(Tier.EDGE)[0]
        with pytest.raises(KeyError):
            topo.uplink_transfer_time(edge.name, "server-1", 1.0)

    def test_children_of(self):
        topo = NetworkTopology.build_fog_hierarchy(
            edges_per_fog=3, fogs_per_server=1, servers=1)
        children = [m.name for m in topo.machines()
                    if topo.parent_of(m.name) == "fog-0-0"]
        assert len(children) == 3

    def test_edge_uplink_slower_than_server_uplink(self):
        # Shape check: edge wireless uplinks are slower than Internet2.
        topo = NetworkTopology.build_fog_hierarchy()
        edge = topo.machines(Tier.EDGE)[0]
        server = topo.machines(Tier.SERVER)[0]
        edge_link = topo.link(edge.name, topo.parent_of(edge.name))
        server_link = topo.link(server.name, topo.parent_of(server.name))
        assert edge_link.bandwidth_bytes_per_s < server_link.bandwidth_bytes_per_s
