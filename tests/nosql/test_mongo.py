"""Tests for the MongoDB-like document store."""

import pytest

from repro.nosql import Collection, DocumentStore, MongoError


def crimes_collection():
    coll = Collection("crimes")
    coll.insert_many([
        {"type": "robbery", "district": 4, "severity": 8,
         "location": [0.30, 0.40], "tags": ["armed"]},
        {"type": "assault", "district": 4, "severity": 6,
         "location": [0.31, 0.41]},
        {"type": "burglary", "district": 2, "severity": 5,
         "location": [0.70, 0.80]},
        {"type": "robbery", "district": 1, "severity": 9,
         "location": [0.90, 0.10]},
    ])
    return coll


class TestInsert:
    def test_insert_assigns_ids(self):
        coll = Collection("c")
        first = coll.insert({"a": 1})
        second = coll.insert({"a": 2})
        assert first != second
        assert len(coll) == 2

    def test_explicit_id_respected(self):
        coll = Collection("c")
        assert coll.insert({"_id": 99, "a": 1}) == 99

    def test_duplicate_id_rejected(self):
        coll = Collection("c")
        coll.insert({"_id": 1})
        with pytest.raises(MongoError):
            coll.insert({"_id": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(MongoError):
            Collection("c").insert(["not", "a", "doc"])

    def test_insert_copies_document(self):
        coll = Collection("c")
        original = {"a": 1}
        coll.insert(original)
        original["a"] = 999
        assert coll.find_one({})["a"] == 1


class TestInsertMany:
    def test_returns_ids_in_order(self):
        coll = Collection("c")
        ids = coll.insert_many([{"a": 1}, {"_id": 40, "a": 2}, {"a": 3}])
        assert ids == [1, 40, 2]
        assert [coll.find_one({"_id": i})["a"] for i in ids] == [1, 2, 3]

    @pytest.mark.parametrize("bad", [
        [{"a": 1}, ["not", "a", "doc"]],          # non-dict after a good one
        [{"a": 1}, {"_id": 7, "a": 2}],           # collides with a stored id
        [{"_id": 8}, {"a": 1}, {"_id": 8}],       # collides within the batch
    ])
    def test_rejected_batch_stores_nothing(self, bad):
        coll = Collection("c")
        coll.create_index("a")
        coll.insert({"_id": 7, "a": 0})
        with pytest.raises(MongoError):
            coll.insert_many(bad)
        assert len(coll) == 1
        assert coll.count({"a": 1}) == 0          # the index saw nothing
        assert coll.insert({"a": 5}) == 1         # and no id was drawn

    def test_copies_each_document_once(self):
        coll = Collection("c")
        documents = [{"a": 1, "nested": {"b": 2}}]
        coll.insert_many(documents)
        documents[0]["a"] = 999
        assert documents[0].get("_id") is None    # input left untouched
        assert coll.find_one({})["a"] == 1

    def test_accepts_a_generator(self):
        coll = Collection("c")
        assert coll.insert_many({"a": i} for i in range(3)) == [1, 2, 3]

    def test_indexes_maintained(self):
        coll = Collection("c")
        coll.create_index("district")
        coll.create_geo_index("location", cell_size=0.1)
        coll.insert_many([{"district": 4, "location": [0.3, 0.4]},
                          {"district": 2, "location": [0.7, 0.8]}])
        assert coll.count({"district": 4}) == 1
        assert coll.last_query_used_index
        near = coll.find({"location": {"$near": [0.3, 0.4],
                                       "$maxDistance": 0.05}})
        assert [doc["district"] for doc in near] == [4]


class TestQueries:
    def test_equality(self):
        coll = crimes_collection()
        assert coll.count({"type": "robbery"}) == 2

    def test_empty_query_returns_all(self):
        assert crimes_collection().count({}) == 4

    def test_empty_query_is_a_scan_of_copies(self):
        coll = crimes_collection()
        coll.create_index("type")
        coll.find({"type": "robbery"})
        assert coll.last_query_used_index
        for query in ({}, None):
            found = coll.find(query, sort="severity", limit=2)
            assert [doc["severity"] for doc in found] == [5, 6]
            assert not coll.last_query_used_index
            found[0]["severity"] = 0
        assert coll.count({"severity": 0}) == 0

    def test_comparison_operators(self):
        coll = crimes_collection()
        assert coll.count({"severity": {"$gt": 6}}) == 2
        assert coll.count({"severity": {"$gte": 6}}) == 3
        assert coll.count({"severity": {"$lt": 6}}) == 1
        assert coll.count({"severity": {"$lte": 6}}) == 2
        assert coll.count({"severity": {"$ne": 8}}) == 3

    def test_in_nin(self):
        coll = crimes_collection()
        assert coll.count({"type": {"$in": ["robbery", "assault"]}}) == 3
        assert coll.count({"type": {"$nin": ["robbery", "assault"]}}) == 1

    def test_exists(self):
        coll = crimes_collection()
        assert coll.count({"tags": {"$exists": True}}) == 1
        assert coll.count({"tags": {"$exists": False}}) == 3

    def test_regex(self):
        assert crimes_collection().count({"type": {"$regex": "^rob"}}) == 2

    def test_and(self):
        coll = crimes_collection()
        assert coll.count({"$and": [{"district": 4},
                                    {"severity": {"$gt": 7}}]}) == 1

    def test_or(self):
        coll = crimes_collection()
        assert coll.count({"$or": [{"district": 1}, {"district": 2}]}) == 2

    def test_combined_fields_implicit_and(self):
        assert crimes_collection().count(
            {"type": "robbery", "district": 4}) == 1

    def test_missing_field_no_match(self):
        assert crimes_collection().count({"ghost": 1}) == 0

    def test_unsupported_operator_raises(self):
        with pytest.raises(MongoError):
            crimes_collection().count({"severity": {"$mod": 2}})

    def test_dotted_path(self):
        coll = Collection("c")
        coll.insert({"meta": {"source": "waze"}})
        assert coll.count({"meta.source": "waze"}) == 1

    def test_sort_and_limit(self):
        coll = crimes_collection()
        docs = coll.find({}, sort="severity", descending=True, limit=2)
        assert [d["severity"] for d in docs] == [9, 8]

    def test_find_one(self):
        assert crimes_collection().find_one({"district": 2})["type"] == "burglary"
        assert crimes_collection().find_one({"district": 99}) is None

    def test_distinct(self):
        assert sorted(crimes_collection().distinct("district")) == [1, 2, 4]

    def test_results_are_copies(self):
        coll = crimes_collection()
        doc = coll.find_one({"type": "burglary"})
        doc["type"] = "hacked"
        assert coll.count({"type": "hacked"}) == 0


class TestUpdateDelete:
    def test_update_set(self):
        coll = crimes_collection()
        changed = coll.update({"type": "robbery"}, {"$set": {"reviewed": True}})
        assert changed == 2
        assert coll.count({"reviewed": True}) == 2

    def test_update_dotted_path(self):
        coll = Collection("c")
        coll.insert({"a": 1})
        coll.update({"a": 1}, {"$set": {"meta.status": "ok"}})
        assert coll.find_one({})["meta"]["status"] == "ok"

    def test_update_requires_set(self):
        with pytest.raises(MongoError):
            crimes_collection().update({}, {"$inc": {"severity": 1}})

    def test_delete(self):
        coll = crimes_collection()
        assert coll.delete({"district": 4}) == 2
        assert len(coll) == 2


class TestHashIndex:
    def test_index_used_for_equality(self):
        coll = crimes_collection()
        coll.create_index("type")
        assert coll.count({"type": "robbery"}) == 2
        assert coll.last_query_used_index

    def test_full_scan_without_index(self):
        coll = crimes_collection()
        coll.count({"type": "robbery"})
        assert not coll.last_query_used_index

    def test_index_not_used_for_range(self):
        coll = crimes_collection()
        coll.create_index("severity")
        coll.count({"severity": {"$gt": 6}})
        assert not coll.last_query_used_index

    def test_index_maintained_on_insert(self):
        coll = crimes_collection()
        coll.create_index("type")
        coll.insert({"type": "robbery"})
        assert coll.count({"type": "robbery"}) == 3
        assert coll.last_query_used_index

    def test_index_maintained_on_update(self):
        coll = crimes_collection()
        coll.create_index("type")
        coll.update({"type": "burglary"}, {"$set": {"type": "theft"}})
        assert coll.count({"type": "theft"}) == 1
        assert coll.count({"type": "burglary"}) == 0

    def test_index_maintained_on_delete(self):
        coll = crimes_collection()
        coll.create_index("type")
        coll.delete({"type": "robbery"})
        assert coll.count({"type": "robbery"}) == 0

    def test_index_on_list_valued_field(self):
        coll = crimes_collection()
        coll.create_index("tags")  # list values must be hashable
        assert coll.count({"type": "robbery"}) == 2


class TestGeoQueries:
    def test_near_with_max_distance(self):
        coll = crimes_collection()
        near = coll.find({"location": {"$near": [0.30, 0.40],
                                       "$maxDistance": 0.05}})
        assert {d["type"] for d in near} == {"robbery", "assault"}

    def test_near_unbounded_matches_all_points(self):
        coll = crimes_collection()
        assert coll.count({"location": {"$near": [0.5, 0.5]}}) == 4

    def test_geo_within_box(self):
        coll = crimes_collection()
        box = {"$geoWithin": {"low": [0.0, 0.0], "high": [0.5, 0.5]}}
        assert coll.count({"location": box}) == 2

    def test_geo_index_accelerates_near(self):
        coll = crimes_collection()
        coll.create_geo_index("location", cell_size=0.1)
        hits = coll.find({"location": {"$near": [0.30, 0.40],
                                       "$maxDistance": 0.05}})
        assert len(hits) == 2
        assert coll.last_query_used_index

    def test_geo_index_same_answers_as_scan(self):
        plain = crimes_collection()
        indexed = crimes_collection()
        indexed.create_geo_index("location", cell_size=0.07)
        query = {"location": {"$near": [0.7, 0.8], "$maxDistance": 0.2}}
        assert ({d["type"] for d in plain.find(query)}
                == {d["type"] for d in indexed.find(query)})

    def test_geo_index_box_query(self):
        coll = crimes_collection()
        coll.create_geo_index("location", cell_size=0.05)
        box = {"$geoWithin": {"low": [0.0, 0.0], "high": [0.5, 0.5]}}
        assert coll.count({"location": box}) == 2
        assert coll.last_query_used_index

    def test_doc_without_point_not_matched(self):
        coll = Collection("c")
        coll.insert({"location": "not-a-point"})
        assert coll.count({"location": {"$near": [0, 0]}}) == 0


class TestDocumentStore:
    def test_collections_created_on_demand(self):
        store = DocumentStore()
        store.collection("tweets").insert({"text": "hi"})
        assert store.collection_names() == ["tweets"]
        assert store.collection("tweets").count({}) == 1

    def test_same_collection_returned(self):
        store = DocumentStore()
        assert store.collection("a") is store.collection("a")

    def test_drop_collection(self):
        store = DocumentStore()
        store.collection("a").insert({})
        store.drop_collection("a")
        assert store.collection("a").count({}) == 0
