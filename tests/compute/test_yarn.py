"""Tests for the YARN-style resource manager."""

import pytest

from repro.compute import NodeManager, ResourceManager, ResourceRequest, YarnError


def cluster(nodes=2, vcores=4, memory=4096):
    rm = ResourceManager()
    for i in range(nodes):
        rm.register_node(NodeManager(f"nm-{i}", vcores=vcores, memory_mb=memory))
    return rm


class TestNodeManager:
    def test_capacity_accounting(self):
        node = NodeManager("n", vcores=4, memory_mb=1024)
        assert node.free_vcores == 4
        assert node.fits(ResourceRequest("app", 4, 1024))
        assert not node.fits(ResourceRequest("app", 5, 1))

    def test_validates_capacity(self):
        with pytest.raises(YarnError):
            NodeManager("n", vcores=0, memory_mb=1)

    def test_dead_node_does_not_fit(self):
        node = NodeManager("n", vcores=4, memory_mb=1024)
        node.alive = False
        assert not node.fits(ResourceRequest("app", 1, 1))


class TestFifoScheduling:
    def test_grant_when_capacity_available(self):
        rm = cluster()
        container = rm.submit(ResourceRequest("app-1", vcores=2, memory_mb=1024))
        assert container is not None
        assert container.node.used_vcores == 2

    def test_queue_when_full(self):
        rm = cluster(nodes=1, vcores=2)
        first = rm.submit(ResourceRequest("app-1", vcores=2, memory_mb=10))
        second = rm.submit(ResourceRequest("app-2", vcores=2, memory_mb=10))
        assert first is not None
        assert second is None
        assert rm.pending_count == 1

    def test_release_drives_queue(self):
        rm = cluster(nodes=1, vcores=2)
        first = rm.submit(ResourceRequest("app-1", vcores=2, memory_mb=10))
        rm.submit(ResourceRequest("app-2", vcores=2, memory_mb=10))
        granted = rm.release(first)
        assert len(granted) == 1
        assert granted[0].app_id == "app-2"
        assert rm.pending_count == 0

    def test_fifo_head_of_line_blocking(self):
        rm = cluster(nodes=1, vcores=4)
        rm.submit(ResourceRequest("big", vcores=4, memory_mb=10))
        rm.submit(ResourceRequest("huge", vcores=4, memory_mb=10))  # queued
        rm.submit(ResourceRequest("small", vcores=1, memory_mb=10))  # behind huge
        # FIFO: small must NOT jump ahead of huge
        assert rm.pending_count == 2
        assert all(c.app_id == "big" for c in rm.running_containers)

    def test_submit_returns_the_container_granted_to_that_request(self):
        # A node joining lets the queued 4-vcore request through on the
        # next submit; the caller must get its own 1-vcore lease back, not
        # the earlier request's under the same app id.
        rm = cluster(nodes=1, vcores=4)
        rm.submit(ResourceRequest("other", vcores=2, memory_mb=10))
        assert rm.submit(ResourceRequest("app", 4, 1024)) is None
        rm.register_node(NodeManager("n2", 8, 8192))
        container = rm.submit(ResourceRequest("app", 1, 256))
        assert (container.vcores, container.memory_mb) == (1, 256)
        assert rm.pending_count == 0
        rm.release(container)
        assert sorted(c.vcores for c in rm.running_containers) == [2, 4]

    def test_double_release_rejected(self):
        rm = cluster()
        container = rm.submit(ResourceRequest("a", 1, 10))
        rm.release(container)
        with pytest.raises(YarnError):
            rm.release(container)

    def test_validates_request(self):
        rm = cluster()
        with pytest.raises(YarnError):
            rm.submit(ResourceRequest("a", 0, 10))

    def test_load_balancing_across_nodes(self):
        rm = cluster(nodes=2, vcores=4)
        a = rm.submit(ResourceRequest("a", 2, 10))
        b = rm.submit(ResourceRequest("b", 2, 10))
        assert a.node.name != b.node.name

    def test_utilization(self):
        rm = cluster(nodes=2, vcores=4)
        assert rm.utilization() == 0.0
        rm.submit(ResourceRequest("a", 4, 10))
        assert rm.utilization() == pytest.approx(0.5)

    def test_duplicate_node_rejected(self):
        rm = cluster()
        with pytest.raises(YarnError):
            rm.register_node(NodeManager("nm-0", 1, 1))
