"""Tests for the HDFS-like distributed file system."""

import pytest

from repro.dfs import (
    DataNode,
    DFSError,
    DistributedFileSystem,
    FileNotFound,
    NameNode,
    NotEnoughReplicas,
)
from repro.dfs.filesystem import FileAlreadyExists


def make_dfs(nodes=4, replication=2, block_size=64):
    return DistributedFileSystem.with_datanodes(
        nodes, replication=replication, block_size=block_size)


class TestBasicFileOps:
    def test_create_and_read_roundtrip(self):
        dfs = make_dfs()
        payload = b"hello smart city" * 10
        dfs.create("/data/file1", payload)
        assert dfs.read("/data/file1") == payload

    def test_create_empty_file(self):
        dfs = make_dfs()
        dfs.create("/empty", b"")
        assert dfs.read("/empty") == b""

    def test_create_duplicate_rejected(self):
        dfs = make_dfs()
        dfs.create("/dup", b"a")
        with pytest.raises(FileAlreadyExists):
            dfs.create("/dup", b"b")

    def test_read_missing_file(self):
        with pytest.raises(FileNotFound):
            make_dfs().read("/ghost")

    def test_multi_block_file_split(self):
        dfs = make_dfs(block_size=10)
        payload = b"x" * 35
        status = dfs.create("/big", payload)
        assert len(status.block_ids) == 4  # 10+10+10+5
        assert dfs.read("/big") == payload

    def test_append_adds_blocks(self):
        dfs = make_dfs(block_size=10)
        dfs.create("/log", b"a" * 10)
        dfs.append("/log", b"b" * 15)
        assert dfs.read("/log") == b"a" * 10 + b"b" * 15
        assert dfs.stat("/log").size == 25

    def test_delete_frees_space(self):
        dfs = make_dfs()
        dfs.create("/tmp/file", b"z" * 100)
        assert dfs.total_bytes_stored() > 0
        dfs.delete("/tmp/file")
        assert dfs.total_bytes_stored() == 0
        assert not dfs.exists("/tmp/file")

    def test_listdir_prefix(self):
        dfs = make_dfs()
        dfs.create("/videos/a", b"1")
        dfs.create("/videos/b", b"2")
        dfs.create("/tweets/c", b"3")
        assert dfs.listdir("/videos") == ["/videos/a", "/videos/b"]

    def test_stat_reports_size(self):
        dfs = make_dfs()
        dfs.create("/f", b"abc")
        assert dfs.stat("/f").size == 3


class TestReplication:
    def test_each_block_replicated(self):
        dfs = make_dfs(nodes=4, replication=3)
        status = dfs.create("/r", b"data")
        for block_id in status.block_ids:
            assert len(dfs.namenode.replicas(block_id)) == 3

    def test_storage_cost_scales_with_replication(self):
        low = make_dfs(nodes=4, replication=1)
        high = make_dfs(nodes=4, replication=3)
        low.create("/f", b"x" * 100)
        high.create("/f", b"x" * 100)
        assert high.total_bytes_stored() == 3 * low.total_bytes_stored()

    def test_targets_balance_load(self):
        dfs = make_dfs(nodes=4, replication=1, block_size=10)
        for i in range(8):
            dfs.create(f"/f{i}", b"0123456789")
        counts = [n.block_count for n in dfs.datanodes]
        assert max(counts) - min(counts) <= 1

    def test_insufficient_nodes_rejected(self):
        with pytest.raises(ValueError):
            DistributedFileSystem.with_datanodes(2, replication=3)

    def test_create_fails_when_too_few_live_nodes(self):
        dfs = make_dfs(nodes=3, replication=3)
        dfs.fail_datanode("datanode-0")
        with pytest.raises(NotEnoughReplicas):
            dfs.create("/f", b"x")


class TestFailureRecovery:
    def test_read_survives_single_failure(self):
        dfs = make_dfs(nodes=4, replication=2)
        dfs.create("/f", b"important")
        victim = next(iter(dfs.namenode.replicas(dfs.stat("/f").block_ids[0])))
        dfs.fail_datanode(victim)
        assert dfs.read("/f") == b"important"

    def test_read_fails_when_all_replicas_dead(self):
        dfs = make_dfs(nodes=4, replication=2)
        dfs.create("/f", b"gone")
        for name in dfs.namenode.replicas(dfs.stat("/f").block_ids[0]):
            dfs.fail_datanode(name)
        with pytest.raises(NotEnoughReplicas):
            dfs.read("/f")

    def test_under_replicated_detected(self):
        dfs = make_dfs(nodes=4, replication=2)
        dfs.create("/f", b"x" * 100)
        assert dfs.under_replicated() == []
        victim = next(iter(dfs.namenode.replicas(dfs.stat("/f").block_ids[0])))
        dfs.fail_datanode(victim)
        assert len(dfs.under_replicated()) >= 1

    def test_re_replication_restores_health(self):
        dfs = make_dfs(nodes=5, replication=2, block_size=16)
        dfs.create("/f", b"y" * 64)
        victim = next(iter(dfs.namenode.replicas(dfs.stat("/f").block_ids[0])))
        dfs.fail_datanode(victim)
        created = dfs.re_replicate()
        assert created >= 1
        assert dfs.under_replicated() == []
        assert dfs.read("/f") == b"y" * 64

    def test_re_replication_skips_lost_blocks(self):
        dfs = make_dfs(nodes=4, replication=2)
        dfs.create("/f", b"z")
        for name in dfs.namenode.replicas(dfs.stat("/f").block_ids[0]):
            dfs.fail_datanode(name)
        assert dfs.re_replicate() == 0
        assert any(r.lost for r in dfs.under_replicated())

    def test_recovered_node_serves_again(self):
        dfs = make_dfs(nodes=4, replication=2)
        dfs.create("/f", b"back")
        block = dfs.stat("/f").block_ids[0]
        replicas = list(dfs.namenode.replicas(block))
        for name in replicas:
            dfs.fail_datanode(name)
        dfs.recover_datanode(replicas[0])
        assert dfs.read("/f") == b"back"


class TestDataNode:
    def test_dead_node_rejects_io(self):
        node = DataNode("n")
        node.store(1, b"x")
        node.alive = False
        with pytest.raises(DFSError):
            node.read(1)
        with pytest.raises(DFSError):
            node.store(2, b"y")

    def test_read_missing_block(self):
        with pytest.raises(DFSError):
            DataNode("n").read(99)


class TestNameNode:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            NameNode(replication=0)
        with pytest.raises(ValueError):
            NameNode(block_size=0)

    def test_duplicate_datanode_rejected(self):
        namenode = NameNode()
        namenode.register_datanode(DataNode("a"))
        with pytest.raises(ValueError):
            namenode.register_datanode(DataNode("a"))

    def test_unknown_datanode_lookup(self):
        with pytest.raises(KeyError):
            NameNode().datanode("ghost")

    def test_choose_targets_excludes(self):
        dfs = make_dfs(nodes=3, replication=1)
        targets = dfs.namenode.choose_targets(2, exclude=["datanode-0"])
        assert all(t.name != "datanode-0" for t in targets)

    def test_block_ids_unique(self):
        namenode = NameNode()
        ids = {namenode.allocate_block() for _ in range(100)}
        assert len(ids) == 100
