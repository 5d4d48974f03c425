"""Tests for the relational store and the Sqoop importer."""

import pytest

from repro.dfs import DistributedFileSystem
from repro.nosql import Collection
from repro.streaming import RDBMSError, RelationalDatabase, SqoopImporter, Table
from repro.streaming.sqoop import csv_to_rows


def crime_db(rows=10):
    db = RelationalDatabase("police")
    table = db.create_table("incidents", ["report_id", "offense", "district"])
    table.insert_many([
        {"report_id": i, "offense": "robbery" if i % 2 else "assault",
         "district": i % 3}
        for i in range(rows)
    ])
    return db


class TestTable:
    def test_insert_and_get(self):
        table = Table("t", ["id", "name"])
        table.insert({"id": 1, "name": "a"})
        assert table.get(1) == {"id": 1, "name": "a"}
        assert table.get(2) is None

    def test_schema_validation(self):
        table = Table("t", ["id", "name"])
        with pytest.raises(RDBMSError):
            table.insert({"id": 1})
        with pytest.raises(RDBMSError):
            table.insert({"id": 1, "name": "a", "extra": 1})

    def test_duplicate_primary_key(self):
        table = Table("t", ["id"])
        table.insert({"id": 1})
        with pytest.raises(RDBMSError):
            table.insert({"id": 1})

    def test_needs_columns(self):
        with pytest.raises(RDBMSError):
            Table("t", [])
        with pytest.raises(RDBMSError):
            Table("t", ["a", "a"])

    def test_select_with_predicate(self):
        db = crime_db()
        table = db.table("incidents")
        robberies = table.select(lambda r: r["offense"] == "robbery")
        assert len(robberies) == 5

    def test_delete(self):
        table = Table("t", ["id"])
        table.insert({"id": 1})
        assert table.delete(1)
        assert not table.delete(1)
        assert len(table) == 0

    def test_scan_sorted_order(self):
        table = Table("t", ["id"])
        for key in [3, 1, 2]:
            table.insert({"id": key})
        assert [r["id"] for r in table.scan_sorted()] == [1, 2, 3]

    def test_split_ranges_cover_all_rows(self):
        table = crime_db(10).table("incidents")
        splits = table.split_ranges(3)
        assert len(splits) == 3
        total = sum(len(s) for s in splits)
        assert total == 10
        # contiguous key ranges
        flattened = [r["report_id"] for s in splits for r in s]
        assert flattened == sorted(flattened)

    def test_split_more_than_rows(self):
        table = crime_db(2).table("incidents")
        splits = table.split_ranges(5)
        assert sum(len(s) for s in splits) == 2

    def test_split_validates(self):
        with pytest.raises(RDBMSError):
            crime_db().table("incidents").split_ranges(0)


class TestRelationalDatabase:
    def test_create_and_lookup(self):
        db = RelationalDatabase()
        db.create_table("a", ["id"])
        assert db.table_names() == ["a"]
        assert db.table("a").name == "a"

    def test_duplicate_table_rejected(self):
        db = RelationalDatabase()
        db.create_table("a", ["id"])
        with pytest.raises(RDBMSError):
            db.create_table("a", ["id"])

    def test_missing_table(self):
        with pytest.raises(RDBMSError):
            RelationalDatabase().table("ghost")


class TestSqoopImport:
    def test_import_to_dfs_roundtrip(self):
        db = crime_db(10)
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        report = SqoopImporter(db).import_table(
            dfs, "incidents", "/imports/incidents", num_mappers=3)
        assert report.rows == 10
        assert len(report.files) == 3
        recovered = []
        for path in report.files:
            recovered.extend(csv_to_rows(dfs.read(path)))
        assert len(recovered) == 10
        assert {r["offense"] for r in recovered} == {"robbery", "assault"}

    def test_import_skips_empty_mappers(self):
        db = crime_db(2)
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        report = SqoopImporter(db).import_table(
            dfs, "incidents", "/imports/small", num_mappers=8)
        assert report.rows == 2
        assert len(report.files) <= 2

    def test_import_to_collection(self):
        db = crime_db(6)
        collection = Collection("incidents")
        report = SqoopImporter(db).import_to_collection("incidents", collection)
        assert report.rows == 6
        assert collection.count({"offense": "robbery"}) == 3

    def test_import_spanning_several_polls_keeps_mapper_order(self):
        db = crime_db(1300)                       # > 2 polls of 500
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        report = SqoopImporter(db).import_table(
            dfs, "incidents", "/imports/big", num_mappers=3)
        assert report.rows == 1300
        recovered = []
        for path in report.files:
            ids = [int(r["report_id"]) for r in csv_to_rows(dfs.read(path))]
            assert ids == sorted(ids)
            recovered.extend(ids)
        assert sorted(recovered) == list(range(1300))

    def test_import_to_collection_commits_what_it_stored(self):
        db = crime_db(1300)
        collection = Collection("incidents")
        importer = SqoopImporter(db)
        report = importer.import_to_collection("incidents", collection,
                                               num_mappers=3)
        assert report.rows == len(collection) == 1300
        (topic,) = importer.broker.topic_names()
        assert importer.broker.lag("sqoop-writer-incidents", topic) == 0
        # The table rows themselves were not handed to the store.
        assert "_id" not in db.table("incidents").get(0)

    def test_csv_preserves_types_as_strings(self):
        db = crime_db(3)
        dfs = DistributedFileSystem.with_datanodes(3, replication=2)
        report = SqoopImporter(db).import_table(
            dfs, "incidents", "/imports/t", num_mappers=1)
        rows = csv_to_rows(dfs.read(report.files[0]))
        assert rows[0]["report_id"] == "0"  # CSV is untyped text
