"""Property-based tests for the DFS, HBase and document-store substrates.

``REPRO_CHAOS_SEED`` (set by the CI chaos sweep, default 0) shifts the
document store's drawn mutation schedules while keeping any single
invocation deterministic.
"""

import copy
import math
import os
from collections import OrderedDict

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.dfs import DistributedFileSystem
from repro.nosql import Collection, HTable, MongoError
from repro.nosql.mongo import _get_path

BASE_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

FILE_CONTENT = st.binary(min_size=0, max_size=500)
ROW_KEYS = st.text(alphabet="abcdef", min_size=1, max_size=4)
VALUES = st.binary(min_size=0, max_size=20)


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(st.text(alphabet="abc/", min_size=1, max_size=8),
                       FILE_CONTENT, min_size=1, max_size=8),
       st.integers(8, 64))
def test_dfs_roundtrip_arbitrary_files(files, block_size):
    dfs = DistributedFileSystem.with_datanodes(
        4, replication=2, block_size=block_size)
    for path, content in files.items():
        dfs.create("/" + path, content)
    for path, content in files.items():
        assert dfs.read("/" + path) == content


@settings(max_examples=20, deadline=None)
@given(FILE_CONTENT, st.integers(0, 3), st.integers(8, 32))
def test_dfs_reads_survive_up_to_replication_minus_one_failures(
        content, failures, block_size):
    replication = 3
    dfs = DistributedFileSystem.with_datanodes(
        6, replication=replication, block_size=block_size)
    dfs.create("/file", content)
    victims = [f"datanode-{i}" for i in range(min(failures, replication - 1))]
    for victim in victims:
        dfs.fail_datanode(victim)
    assert dfs.read("/file") == content


@settings(max_examples=20, deadline=None)
@given(st.lists(FILE_CONTENT, min_size=1, max_size=5), st.integers(0, 1000))
def test_dfs_re_replication_restores_full_health(contents, seed):
    dfs = DistributedFileSystem.with_datanodes(
        6, replication=2, block_size=32)
    for index, content in enumerate(contents):
        dfs.create(f"/f{index}", content)
    rng = np.random.default_rng(seed)
    victim = f"datanode-{int(rng.integers(6))}"
    dfs.fail_datanode(victim)
    dfs.re_replicate()
    assert dfs.under_replicated() == []
    for index, content in enumerate(contents):
        assert dfs.read(f"/f{index}") == content


class HBaseModel:
    """Reference model: latest-write-wins dict."""

    def __init__(self):
        self.state = {}

    def put(self, row, qualifier, value):
        self.state[(row, qualifier)] = value

    def delete(self, row, qualifier):
        self.state.pop((row, qualifier), None)

    def get(self, row, qualifier):
        return self.state.get((row, qualifier))


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), ROW_KEYS, ROW_KEYS, VALUES),
        st.tuples(st.just("delete"), ROW_KEYS, ROW_KEYS),
        st.tuples(st.just("flush")),
        st.tuples(st.just("compact")),
    ),
    min_size=1, max_size=30)


@settings(max_examples=30, deadline=None)
@given(OPS)
def test_htable_matches_reference_model(operations):
    dfs = DistributedFileSystem.with_datanodes(3, replication=2)
    table = HTable("t", dfs, families=("d",), memstore_flush_cells=7)
    model = HBaseModel()
    touched = set()
    for operation in operations:
        if operation[0] == "put":
            _, row, qualifier, value = operation
            table.put(row, "d", qualifier, value)
            model.put(row, qualifier, value)
            touched.add((row, qualifier))
        elif operation[0] == "delete":
            _, row, qualifier = operation
            table.delete(row, "d", qualifier)
            model.delete(row, qualifier)
            touched.add((row, qualifier))
        elif operation[0] == "flush":
            table.flush()
        elif operation[0] == "compact":
            table.flush()
            table.compact()
    for row, qualifier in touched:
        assert table.get_value(row, "d", qualifier) == model.get(row, qualifier)


DOCS = st.lists(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["crime", "traffic", "tweet"]),
        "severity": st.integers(0, 10),
        "district": st.integers(1, 4),
    }),
    min_size=0, max_size=25)


@settings(max_examples=30, deadline=None)
@given(DOCS, st.integers(0, 10))
def test_mongo_range_query_matches_naive_filter(docs, cutoff):
    collection = Collection("c")
    collection.insert_many(docs)
    found = collection.find({"severity": {"$gte": cutoff}})
    expected = [d for d in docs if d["severity"] >= cutoff]
    assert len(found) == len(expected)


KINDS = ["crime", "traffic", "tweet"]
NESTED_DOCS = st.lists(
    st.fixed_dictionaries({
        "kind": st.sampled_from(KINDS),
        "meta": st.fixed_dictionaries({"kind": st.sampled_from(KINDS)}),
        "tags": st.lists(st.sampled_from(KINDS), max_size=2),
    }),
    min_size=0, max_size=25)
INDEXED_FIELDS = ("kind", "meta.kind", "tags")

#: a caller changing data it handed to, or got from, the store: whose
#: data ("record" = an inserted record, "found" = a ``find`` result),
#: which document (modulo the count), which field, the new kind
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["record", "found"]), st.integers(0, 24),
              st.sampled_from(INDEXED_FIELDS), st.sampled_from(KINDS)),
    max_size=6)


def mutate(document, field, kind):
    """Change ``field`` of a caller's ``document`` in place."""
    if field == "tags":
        document["tags"].append(kind)
    elif field == "meta.kind":
        document["meta"]["kind"] = kind
    else:
        document["kind"] = kind


@settings(max_examples=30, deadline=None)
@seed(BASE_SEED)
@given(NESTED_DOCS, MUTATIONS)
def test_mongo_index_equivalent_to_scan(docs, mutations):
    """Indexed and unindexed collections, and the records as inserted,
    answer every exact-match query alike while callers change what they
    inserted and what ``find`` returned."""
    inserted = copy.deepcopy(docs)
    plain = Collection("plain")
    indexed = Collection("indexed")
    ids = plain.insert_many(docs)
    for field in INDEXED_FIELDS[:2]:
        indexed.create_index(field)          # maintained on insert
    assert indexed.insert_many(docs) == ids
    indexed.create_index("tags")             # built over stored documents
    queries = [(field, kind) for field in ("kind", "meta.kind")
               for kind in KINDS]
    queries += [("tags", tags) for tags in
                [[], *([kind] for kind in KINDS)]
                + [doc["tags"] for doc in inserted]]
    for step in range(len(mutations) + 1):
        for field, value in queries:
            expected = {doc_id for doc_id, doc in zip(ids, inserted)
                        if _get_path(doc, field) == value}
            assert {d["_id"] for d in plain.find({field: value})} \
                == {d["_id"] for d in indexed.find({field: value})} \
                == expected, (step, field, value)
        if step < len(mutations) and docs:
            whose, which, field, kind = mutations[step]
            if whose == "record":
                mutate(docs[which % len(docs)], field, kind)
            else:
                for collection in (plain, indexed):
                    mutate(collection.find()[which % len(docs)], field, kind)


@settings(max_examples=25, deadline=None)
@given(DOCS)
def test_mongo_delete_then_count_zero(docs):
    collection = Collection("c")
    collection.insert_many(docs)
    removed = collection.delete({"kind": "crime"})
    assert collection.count({"kind": "crime"}) == 0
    assert removed == sum(1 for d in docs if d["kind"] == "crime")
    assert len(collection) == len(docs) - removed


UNIT = st.floats(0, 1, allow_nan=False)

#: a caller moving a point it inserted ("record") or got from ``find``
#: ("found"): whose, which document (modulo the count), where to
MOVES = st.lists(st.tuples(st.sampled_from(["record", "found"]),
                           st.integers(0, 29), UNIT, UNIT),
                 max_size=6)


#: radii from inside the unit square to far past the data
REACH = st.one_of(st.floats(0.05, 0.5, allow_nan=False),
                  st.floats(1.0, 100.0, allow_nan=False))
#: box corners inside the unit square or far outside it
CORNER = st.tuples(*[st.one_of(UNIT, st.floats(-50, 50, allow_nan=False))] * 2)


@settings(max_examples=25, deadline=None)
@seed(BASE_SEED)
@given(st.lists(st.tuples(UNIT, UNIT), min_size=0, max_size=30),
       REACH, st.tuples(CORNER, CORNER), MOVES)
def test_mongo_geo_index_matches_scan(points, radius, corners, moves):
    """The grid index, a scan and the points as inserted agree on
    ``$near`` and ``$geoWithin`` while callers move the points they
    inserted or found."""
    docs = [{"location": [x, y]} for x, y in points]
    plain = Collection("plain")
    ids = plain.insert_many(docs)
    indexed = Collection("indexed")
    indexed.insert_many(docs)
    indexed.create_geo_index("location", cell_size=0.13)
    low, high = [list(map(f, *corners)) for f in (min, max)]
    box_query = {"location": {"$geoWithin": {"low": low, "high": high}}}
    for step in range(len(moves) + 1):
        for centre in ([0.5, 0.5], *(list(point) for point in points[:3])):
            query = {"location": {"$near": centre, "$maxDistance": radius}}
            expected = {doc_id for doc_id, point in zip(ids, points)
                        if math.hypot(point[0] - centre[0],
                                      point[1] - centre[1]) <= radius}
            assert {d["_id"] for d in plain.find(query)} \
                == {d["_id"] for d in indexed.find(query)} == expected
        expected = {doc_id for doc_id, point in zip(ids, points)
                    if low[0] <= point[0] <= high[0]
                    and low[1] <= point[1] <= high[1]}
        assert {d["_id"] for d in plain.find(box_query)} \
            == {d["_id"] for d in indexed.find(box_query)} == expected
        assert indexed.last_query_used_index
        if step < len(moves) and docs:
            whose, which, x, y = moves[step]
            targets = ([docs[which % len(docs)]] if whose == "record" else
                       [collection.find()[which % len(docs)]
                        for collection in (plain, indexed)])
            for document in targets:
                document["location"][:] = [x, y]


def reference_insert_many(collection, documents):
    """One document at a time: validate all, move the counter past every
    given id that is a whole number, then draw, deep-copy, key and store."""
    documents = list(documents)
    stored_documents = collection._documents
    given = set()
    for document in documents:
        if not isinstance(document, dict):
            raise MongoError(
                f"documents must be dicts, got {type(document).__name__}")
        doc_id = document.get("_id")
        if doc_id is not None:
            if doc_id in stored_documents or doc_id in given:
                raise MongoError(f"duplicate _id: {doc_id}")
            given.add(doc_id)
    whole = [int(doc_id) for doc_id in given
             if isinstance(doc_id, (int, float)) and doc_id % 1 == 0]
    collection._next_id = max([collection._next_id]
                              + [doc_id + 1 for doc_id in whole])
    ids = []
    for document in documents:
        doc_id = document.get("_id")
        if doc_id is None:
            doc_id = collection._next_id
            collection._next_id += 1
        stored = copy.deepcopy(dict(document))
        stored["_id"] = doc_id
        keys = collection._index_keys(stored)
        stored_documents[doc_id] = stored
        collection._index_insert(doc_id, keys)
        ids.append(doc_id)
    return ids


# ids collide on purpose: small ints meet the counter, 1 == 1.0 == True
GIVEN_IDS = st.one_of(st.integers(1, 6), st.sampled_from(["a", "b", 1.0, True]))


@st.composite
def insert_documents(draw):
    document = {"kind": draw(st.sampled_from(["crime", "tweet"])),
                "location": [draw(st.floats(0, 1)), draw(st.floats(0, 1))]}
    mode = draw(st.sampled_from(["absent", "absent", "none", "given"]))
    if mode == "none":
        document["_id"] = None
    elif mode == "given":
        document["_id"] = draw(GIVEN_IDS)
    if draw(st.booleans()):
        document = dict(reversed(list(document.items())))
    return OrderedDict(document) if draw(st.booleans()) else document


NOT_DICTS = st.sampled_from([None, 7, "doc", [("kind", "crime")]])


@st.composite
def insert_batches(draw):
    batch = draw(st.lists(insert_documents(), max_size=12))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        batch.insert(draw(st.integers(0, len(batch))), draw(NOT_DICTS))
    return batch


def collection_state(collection):
    return (list(collection._documents.items()),
            [type(document) for document in collection._documents.values()],
            collection._hash_indexes,
            {field: index._buckets
             for field, index in collection._geo_indexes.items()})


@settings(max_examples=300, deadline=None)
@given(st.lists(insert_documents(), max_size=6), insert_batches(),
       st.booleans())
def test_bulk_insert_many_matches_a_per_document_reference(
        prefill, batch, indexed):
    bulk, reference = Collection("bulk"), Collection("reference")
    for collection in (bulk, reference):
        if indexed:
            collection.create_index("kind")
            collection.create_geo_index("location", cell_size=0.25)
        for document in prefill:
            try:
                reference_insert_many(collection, [document])
            except MongoError:
                pass
    before = collection_state(bulk)
    outcomes = []
    for collection, insert in ((bulk, Collection.insert_many),
                               (reference, reference_insert_many)):
        try:
            outcomes.append(("ids", insert(collection, batch)))
        except MongoError as error:
            outcomes.append(("error", str(error)))
    assert outcomes[0] == outcomes[1]
    assert collection_state(bulk) == collection_state(reference)
    assert bulk._next_id == reference._next_id
    if outcomes[0][0] == "ids":
        # every document is stored: no drawn id replaced a stored one
        assert len(bulk) == len(before[0]) + len(batch)
    stored = {id(value) for document in bulk._documents.values()
              for value in (document, document["location"])}
    assert not any(id(value) in stored for document in batch
                   if isinstance(document, dict)
                   for value in (document, document["location"]))
    if outcomes[0][0] == "error":
        assert collection_state(bulk) == before

