"""MongoDB-style document store with indexes and geospatial queries.

Documents are plain dicts; each gets an integer ``_id``.  The query language
implements the subset the smart-city applications need:

- equality and the comparison operators ``$gt $gte $lt $lte $ne $in $nin``;
- ``$exists``, ``$regex``;
- logical ``$and`` / ``$or``;
- geospatial ``$near`` (with ``$maxDistance``) and ``$geoWithin`` (box),
  both accelerated by a 2-D grid index when one exists on the field;
- dotted field paths (``"location.district"``).

Secondary hash (field) indexes accelerate exact-match queries; the
collection records whether the last query was served by an index so tests
and benchmarks can verify index usage.

Documents are stored by value, as MongoDB stores BSON: the store shares no
mutable data with its callers.  ``insert_many`` stores a private copy of
every document, ``find`` / ``find_one`` / ``distinct`` return private
copies, and ``update``'s ``$set`` stores a private copy of each value.  A
private copy is a plain ``dict`` whose ``list`` and ``dict`` values (and
tuples that hold one), at any depth, are themselves copied into plain
lists, dicts and tuples; other objects (sets, arrays) are shared.  Only
documents that hold a container pay Python-level work for that: every
document is first copied at C level with ``dict.copy``, and only the
copies that ``gc.is_tracked`` reports go through the recursive copy.
CPython untracks a dict whose values are all atomic (numbers, strings,
``None``, and tuples of those once a collection has untracked them), so
records whose points are tuples keep the C-level path.  ``__iter__``
alone hands out the stored documents themselves, read-only, so a scan
that only reads fields pays for no copy.
"""

from __future__ import annotations

import gc
import itertools
import math
import operator
import re
from collections import deque
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class MongoError(Exception):
    """Raised for invalid store operations or malformed queries."""


_COMPARISONS = {
    "$gt": lambda a, b: a is not None and a > b,
    "$gte": lambda a, b: a is not None and a >= b,
    "$lt": lambda a, b: a is not None and a < b,
    "$lte": lambda a, b: a is not None and a <= b,
    "$ne": lambda a, b: a != b,
    "$in": lambda a, b: a in b,
    "$nin": lambda a, b: a not in b,
}


#: ``(buckets, key)`` per index a document is in: a hash index's value ->
#: ids dict with the hashable field value, or a grid's cell -> ids dict
#: with the point's cell
_IndexKeys = List[Tuple[Dict[Any, set], Any]]


def _get_path(document: Dict, path: str) -> Any:
    """Resolve a dotted path; returns None when any hop is missing."""
    current: Any = document
    for part in path.split("."):
        if not isinstance(current, dict) or part not in current:
            return None
        current = current[part]
    return current


def _matches_condition(value: Any, condition: Any) -> bool:
    if isinstance(condition, dict) and any(k.startswith("$") for k in condition):
        for op, operand in condition.items():
            if op in _COMPARISONS:
                if not _COMPARISONS[op](value, operand):
                    return False
            elif op == "$exists":
                if bool(value is not None) != bool(operand):
                    return False
            elif op == "$regex":
                if value is None or not re.search(operand, str(value)):
                    return False
            elif op in ("$near", "$maxDistance", "$geoWithin"):
                continue  # handled by the geo planner
            else:
                raise MongoError(f"unsupported operator: {op}")
        return True
    return value == condition


def _geo_distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class GridIndex:
    """A 2-D grid (bucketed) index over [x, y] points."""

    def __init__(self, cell_size: float = 0.01):
        if cell_size <= 0:
            raise MongoError(f"cell_size must be positive: {cell_size}")
        self.cell_size = cell_size
        self._buckets: Dict[Tuple[int, int], set] = {}

    def _bucket(self, point: Sequence[float]) -> Tuple[int, int]:
        return (int(math.floor(point[0] / self.cell_size)),
                int(math.floor(point[1] / self.cell_size)))

    def add(self, doc_id: int, point: Sequence[float]) -> None:
        self._buckets.setdefault(self._bucket(point), set()).add(doc_id)

    def candidates_near(self, point: Sequence[float], radius: float) -> set:
        """Doc ids in all buckets intersecting the radius ball."""
        span = int(math.ceil(radius / self.cell_size))
        cx, cy = self._bucket(point)
        return self._in_cells(cx - span, cy - span, cx + span, cy + span)

    def candidates_in_box(self, low: Sequence[float], high: Sequence[float]) -> set:
        return self._in_cells(*self._bucket(low), *self._bucket(high))

    def _in_cells(self, bx0: int, by0: int, bx1: int, by1: int) -> set:
        """Doc ids in the buckets of cells ``[bx0, bx1] x [by0, by1]``.

        Looks each cell up, unless the rectangle holds more cells than
        the index has buckets: then it walks the buckets and keeps those
        inside, so a query never costs more than the data it covers.
        """
        out: set = set()
        cells = (bx1 - bx0 + 1) * (by1 - by0 + 1)
        if cells > len(self._buckets):
            for (bx, by), ids in self._buckets.items():
                if bx0 <= bx <= bx1 and by0 <= by <= by1:
                    out |= ids
            return out
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                out |= self._buckets.get((bx, by), set())
        return out


def _int_equal(doc_id: Any) -> Optional[int]:
    """The int ``doc_id`` is equal to as a dict key, or None."""
    try:
        as_int = int(doc_id)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == doc_id else None


class Collection:
    """One document collection with optional secondary indexes."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[int, Dict] = {}
        self._next_id = 1
        self._hash_indexes: Dict[str, Dict[Any, set]] = {}
        self._geo_indexes: Dict[str, GridIndex] = {}
        self.last_query_used_index = False

    def __len__(self) -> int:
        return len(self._documents)

    def __iter__(self) -> Iterator[Dict]:
        """The stored documents in insertion order, read in place.

        No copies: a whole-collection scan that only reads fields costs
        no per-document ``dict`` (``find`` returns private copies); the
        documents are read-only, and callers must not mutate them or
        anything they hold.
        """
        return iter(self._documents.values())

    # -- indexes ---------------------------------------------------------------
    def create_index(self, field: str) -> None:
        """Hash index on ``field`` for exact-match acceleration."""
        index: Dict[Any, set] = {}
        for doc_id, document in self._documents.items():
            value = _hashable(_get_path(document, field))
            index.setdefault(value, set()).add(doc_id)
        self._hash_indexes[field] = index

    def create_geo_index(self, field: str, cell_size: float = 0.01) -> None:
        """2-D grid index on a ``[x, y]`` point field."""
        index = GridIndex(cell_size)
        for doc_id, document in self._documents.items():
            point = _get_path(document, field)
            if _is_point(point):
                index.add(doc_id, point)
        self._geo_indexes[field] = index

    def _index_keys(self, document: Dict) -> _IndexKeys:
        """``(buckets, key)`` for each index the document belongs in.

        A hash index keys it by its hashable field value, a geo index by
        its point's grid cell.  Nothing is written, so a value no index
        can key raises before a write starts.
        """
        keys = [(index, _hashable(_get_path(document, field)))
                for field, index in self._hash_indexes.items()]
        for field, grid in self._geo_indexes.items():
            point = _get_path(document, field)
            if _is_point(point):
                keys.append((grid._buckets, grid._bucket(point)))
        return keys

    @staticmethod
    def _index_insert(doc_id: int, keys: _IndexKeys) -> None:
        for buckets, key in keys:
            buckets.setdefault(key, set()).add(doc_id)

    @staticmethod
    def _index_remove(doc_id: int, keys: _IndexKeys) -> None:
        for buckets, key in keys:
            bucket = buckets.get(key)
            if bucket:
                bucket.discard(doc_id)

    # -- writes -------------------------------------------------------------------
    def insert(self, document: Dict) -> int:
        return self.insert_many((document,))[0]

    def insert_many(self, documents: Iterable[Dict]) -> List[int]:
        """Store a private copy of every document, or none of them.

        The whole batch is validated, and its index keys computed, before
        the first write, so a non-dict, a duplicate ``_id`` (against the
        collection or within the batch) or a value an index cannot key
        raises with the collection unchanged and no id drawn, and the
        first offending document in batch order names the error.
        Only documents that carry their own ``_id`` or hold a container
        cost Python-level work.
        """
        documents = list(documents)
        checked = documents  # a duplicate before a non-dict names the error
        if not all(map(isinstance, documents, itertools.repeat(dict))):
            first_bad = next(i for i, document in enumerate(documents)
                             if not isinstance(document, dict))
            checked = documents[:first_bad]
        stored_documents = self._documents
        ids = list(map(dict.get, checked, itertools.repeat("_id")))
        missing = ids.count(None)
        first = self._next_id
        if missing < len(ids):
            given: set = set()
            for doc_id in ids:
                if doc_id is not None:
                    if doc_id in stored_documents or doc_id in given:
                        raise MongoError(f"duplicate _id: {doc_id}")
                    given.add(doc_id)
                    # draw past a given id that equals an int (1, 1.0,
                    # True), so no drawn id ever meets a stored one
                    as_int = _int_equal(doc_id)
                    if as_int is not None and as_int >= first:
                        first = as_int + 1
        if checked is not documents:
            raise MongoError("documents must be dicts, got "
                             f"{type(documents[len(checked)]).__name__}")
        if missing == len(ids):
            ids = list(range(first, first + missing))
        elif missing:
            drawn = iter(range(first, first + missing))
            ids = [next(drawn) if doc_id is None else doc_id
                   for doc_id in ids]
        stored = _copies(documents)
        # set every copy's _id at C speed (the empty deque drains the map)
        deque(map(dict.__setitem__, stored, itertools.repeat("_id"), ids),
              maxlen=0)
        keys = (list(map(self._index_keys, stored))
                if self._hash_indexes or self._geo_indexes else ())
        self._next_id = first + missing
        stored_documents.update(zip(ids, stored))
        deque(map(self._index_insert, ids, keys), maxlen=0)
        return ids

    def update(self, query: Dict, update: Dict) -> int:
        """Apply ``{"$set": {...}}`` to matching docs; returns count.

        Each match stores its own private copy of every ``$set`` value.
        Every new document and its index keys are built before the first
        write, so a failing match leaves the collection unchanged.  ``_id``
        is immutable, as in MongoDB: a path that is ``_id`` or under it is
        refused.
        """
        if set(update) != {"$set"}:
            raise MongoError("only {'$set': {...}} updates are supported")
        for path in update["$set"]:
            if path.split(".")[0] == "_id":
                raise MongoError(f"cannot $set {path}: _id is immutable")
        staged = []
        for stored in self._matching(query):
            new = dict(stored)
            for path, value in update["$set"].items():
                _set_path(new, path, _owned(value))
            staged.append((stored["_id"], self._index_keys(stored), new,
                           self._index_keys(new)))
        for doc_id, old_keys, new, new_keys in staged:
            self._index_remove(doc_id, old_keys)
            self._documents[doc_id] = new
            self._index_insert(doc_id, new_keys)
        return len(staged)

    def delete(self, query: Dict) -> int:
        victims = [document["_id"] for document in self._matching(query)]
        for doc_id in victims:
            stored = self._documents.pop(doc_id)
            self._index_remove(doc_id, self._index_keys(stored))
        return len(victims)

    # -- reads ---------------------------------------------------------------------
    def find(self, query: Optional[Dict] = None,
             limit: Optional[int] = None,
             sort: Optional[str] = None) -> List[Dict]:
        """Private copies of the matching documents, ascending on ``sort``
        when it is given (documents without the field last)."""
        matches = self._matching(query)
        if sort is not None:
            matches.sort(key=lambda d: (_get_path(d, sort) is None,
                                        _get_path(d, sort)))
        if limit is not None:
            matches = matches[:limit]
        return _copies(matches)

    def find_one(self, query: Optional[Dict] = None) -> Optional[Dict]:
        matches = self.find(query, limit=1)
        return matches[0] if matches else None

    def count(self, query: Optional[Dict] = None) -> int:
        return len(self._matching(query))

    def distinct(self, field: str) -> List:
        """Every value of ``field`` across the collection, first seen first."""
        seen = []
        for document in self._matching(None):
            value = _get_path(document, field)
            if value not in seen:
                seen.append(_owned(value))
        return seen

    # -- query planning -----------------------------------------------------------
    def _matching(self, query: Optional[Dict]) -> List[Dict]:
        """The stored documents matching ``query``, in place (no copies)."""
        if not query:
            # The empty query matches everything: no plan, no predicate.
            self.last_query_used_index = False
            return list(self._documents.values())
        documents = self._documents
        matches = []
        for doc_id in self._plan(query):
            document = documents.get(doc_id)
            if document is not None and self._matches(document, query):
                matches.append(document)
        return matches

    def _plan(self, query: Dict) -> Iterable[int]:
        """Pick candidate ids via an index when possible, else full scan."""
        self.last_query_used_index = False
        for field, condition in query.items():
            if field.startswith("$"):
                continue
            # geo index
            if field in self._geo_indexes and isinstance(condition, dict):
                if "$near" in condition:
                    radius = condition.get("$maxDistance", math.inf)
                    if math.isfinite(radius):
                        self.last_query_used_index = True
                        return self._geo_indexes[field].candidates_near(
                            condition["$near"], radius)
                if "$geoWithin" in condition:
                    box = condition["$geoWithin"]
                    self.last_query_used_index = True
                    return self._geo_indexes[field].candidates_in_box(
                        box["low"], box["high"])
            # hash index (exact match only)
            if field in self._hash_indexes and not isinstance(condition, dict):
                self.last_query_used_index = True
                return set(self._hash_indexes[field].get(_hashable(condition), set()))
        return list(self._documents.keys())

    def _matches(self, document: Dict, query: Dict) -> bool:
        for field, condition in query.items():
            if field == "$and":
                if not all(self._matches(document, sub) for sub in condition):
                    return False
            elif field == "$or":
                if not any(self._matches(document, sub) for sub in condition):
                    return False
            elif field.startswith("$"):
                raise MongoError(f"unsupported top-level operator: {field}")
            elif isinstance(condition, dict) and "$near" in condition:
                point = _get_path(document, field)
                if not _is_point(point):
                    return False
                radius = condition.get("$maxDistance", math.inf)
                if _geo_distance(point, condition["$near"]) > radius:
                    return False
                if not _matches_condition(point, condition):
                    return False
            elif isinstance(condition, dict) and "$geoWithin" in condition:
                point = _get_path(document, field)
                if not _is_point(point):
                    return False
                box = condition["$geoWithin"]
                if not (box["low"][0] <= point[0] <= box["high"][0]
                        and box["low"][1] <= point[1] <= box["high"][1]):
                    return False
            else:
                if not _matches_condition(_get_path(document, field), condition):
                    return False
        return True


class DocumentStore:
    """A named set of collections — the MongoDB database object."""

    def __init__(self, name: str = "smartcity"):
        self.name = name
        self._collections: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop_collection(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        return sorted(self._collections)


def _is_point(value: Any) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, (int, float)) for v in value))


def _hashable(value: Any) -> Any:
    """A hash-index key for ``value``: lists and tuples become tuples and
    dicts sorted item tuples, recursively.  Raises ``TypeError`` for a
    value with no key (a set, say) here rather than at the first write."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_hashable, value))
    if isinstance(value, dict):
        return tuple(sorted(zip(value, map(_hashable, value.values()))))
    hash(value)
    return value


def _owned(value: Any) -> Any:
    """``value`` with every list and dict in it copied, at any depth.

    A tuple is rebuilt, as a plain tuple, only when it holds one, so a
    tuple of atoms keeps its identity and type whether or not the
    collector has untracked it yet; an untracked tuple holds none and is
    returned without a look inside.
    """
    if isinstance(value, list):
        return list(map(_owned, value))
    if isinstance(value, dict):
        return dict(zip(value, map(_owned, value.values())))
    if isinstance(value, tuple) and gc.is_tracked(value):
        items = tuple(map(_owned, value))
        if any(map(operator.is_not, items, value)):
            return items
    return value


def _copies(documents: Iterable[Dict]) -> List[Dict]:
    """Private plain-dict copies of ``documents`` (see the module notes).

    ``dict.copy`` runs at C level over the whole batch; only the copies
    the collector tracks, which are the only ones that can hold a list,
    a dict or a tuple holding one, are copied again through ``_owned``.
    """
    copies = list(map(dict.copy, documents))
    for i in itertools.compress(range(len(copies)),
                                list(map(gc.is_tracked, copies))):
        copies[i] = _owned(copies[i])
    return copies


def _set_path(document: Dict, path: str, value: Any) -> None:
    """Set ``path``, copying the documents on the way to it."""
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        child = current.get(part, {})
        if not isinstance(child, dict):
            raise MongoError(f"cannot set {path}: {part} is not a document")
        current[part] = dict(child)
        current = current[part]
    current[parts[-1]] = value
