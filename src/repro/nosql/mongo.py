"""MongoDB-style document store with indexes and geospatial queries.

Documents are plain dicts; each gets an integer ``_id``.  The query language
implements the subset the smart-city applications need:

- equality and the comparison operators ``$gt $gte $lt $lte $ne $in $nin``;
- ``$exists``, ``$regex``;
- logical ``$and`` / ``$or``;
- geospatial ``$near`` (with ``$maxDistance``) and ``$geoWithin`` (box),
  both accelerated by a 2-D grid index when one exists on the field;
- dotted field paths (``"location.district"``).

Secondary hash indexes accelerate exact-match queries; the collection
records whether the last query was served by an index so tests and
benchmarks can verify index usage.
"""

from __future__ import annotations

import itertools
import math
import re
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

    def remove(self, doc_id: int, point: Sequence[float]) -> None:
        bucket = self._buckets.get(self._bucket(point))
        if bucket:
            bucket.discard(doc_id)

    def candidates_near(self, point: Sequence[float], radius: float) -> set:
        """Doc ids in all buckets intersecting the radius ball."""
        span = int(math.ceil(radius / self.cell_size))
        cx, cy = self._bucket(point)
        out: set = set()
        for dx in range(-span, span + 1):
            for dy in range(-span, span + 1):
                out |= self._buckets.get((cx + dx, cy + dy), set())
        return out

    def candidates_in_box(self, low: Sequence[float], high: Sequence[float]) -> set:
        bx0, by0 = self._bucket(low)
        bx1, by1 = self._bucket(high)
        out: set = set()
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                out |= self._buckets.get((bx, by), set())
        return out


class Collection:
    """One document collection with optional secondary indexes."""

    def __init__(self, name: str):
        self.name = name
        self._documents: Dict[int, Dict] = {}
        self._counter = itertools.count(1)
        self._hash_indexes: Dict[str, Dict[Any, set]] = {}
        self._geo_indexes: Dict[str, GridIndex] = {}
        self.last_query_used_index = False

    def __len__(self) -> int:
        return len(self._documents)

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

    def _index_insert(self, doc_id: int, document: Dict) -> None:
        for field, index in self._hash_indexes.items():
            value = _hashable(_get_path(document, field))
            index.setdefault(value, set()).add(doc_id)
        for field, index in self._geo_indexes.items():
            point = _get_path(document, field)
            if _is_point(point):
                index.add(doc_id, point)

    def _index_remove(self, doc_id: int, document: Dict) -> None:
        for field, index in self._hash_indexes.items():
            value = _hashable(_get_path(document, field))
            bucket = index.get(value)
            if bucket:
                bucket.discard(doc_id)
        for field, index in self._geo_indexes.items():
            point = _get_path(document, field)
            if _is_point(point):
                index.remove(doc_id, point)

    # -- writes -------------------------------------------------------------------
    def insert(self, document: Dict) -> int:
        return self.insert_many((document,))[0]

    def insert_many(self, documents: Iterable[Dict]) -> List[int]:
        """Store a copy of every document, or none of them.

        The whole batch is validated before the first write, so a
        non-dict or a duplicate ``_id`` (against the collection or within
        the batch) raises with the collection unchanged and no id drawn.
        """
        documents = list(documents)
        stored_documents = self._documents
        ids: List[Any] = []
        given: set = set()
        for document in documents:
            if not isinstance(document, dict):
                raise MongoError(
                    f"documents must be dicts, got {type(document).__name__}")
            doc_id = document.get("_id")
            if doc_id is not None:
                if doc_id in stored_documents or doc_id in given:
                    raise MongoError(f"duplicate _id: {doc_id}")
                given.add(doc_id)
            ids.append(doc_id)
        indexed = bool(self._hash_indexes or self._geo_indexes)
        counter = self._counter
        for position, document in enumerate(documents):
            stored = dict(document)
            doc_id = ids[position]
            if doc_id is None:
                doc_id = ids[position] = next(counter)
            stored["_id"] = doc_id
            stored_documents[doc_id] = stored
            if indexed:
                self._index_insert(doc_id, stored)
        return ids

    def update(self, query: Dict, update: Dict) -> int:
        """Apply ``{"$set": {...}}`` to matching docs; returns count."""
        if set(update) != {"$set"}:
            raise MongoError("only {'$set': {...}} updates are supported")
        count = 0
        for document in self.find(query):
            doc_id = document["_id"]
            stored = self._documents[doc_id]
            self._index_remove(doc_id, stored)
            for path, value in update["$set"].items():
                _set_path(stored, path, value)
            self._index_insert(doc_id, stored)
            count += 1
        return count

    def delete(self, query: Dict) -> int:
        victims = [doc["_id"] for doc in self.find(query)]
        for doc_id in victims:
            stored = self._documents.pop(doc_id)
            self._index_remove(doc_id, stored)
        return len(victims)

    # -- reads ---------------------------------------------------------------------
    def find(self, query: Optional[Dict] = None,
             limit: Optional[int] = None,
             sort: Optional[str] = None,
             descending: bool = False) -> List[Dict]:
        if not query:
            # The empty query matches everything: no plan, no predicate.
            self.last_query_used_index = False
            results = [dict(document)
                       for document in self._documents.values()]
        else:
            results = []
            for doc_id in self._plan(query):
                document = self._documents.get(doc_id)
                if document is not None and self._matches(document, query):
                    results.append(dict(document))
        if sort is not None:
            results.sort(key=lambda d: (_get_path(d, sort) is None,
                                        _get_path(d, sort)),
                         reverse=descending)
        if limit is not None:
            results = results[:limit]
        return results

    def find_one(self, query: Optional[Dict] = None) -> Optional[Dict]:
        matches = self.find(query, limit=1)
        return matches[0] if matches else None

    def count(self, query: Optional[Dict] = None) -> int:
        return len(self.find(query))

    def distinct(self, field: str, query: Optional[Dict] = None) -> List:
        seen = []
        for document in self.find(query):
            value = _get_path(document, field)
            if value not in seen:
                seen.append(value)
        return seen

    # -- query planning -----------------------------------------------------------
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
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    return value


def _set_path(document: Dict, path: str, value: Any) -> None:
    parts = path.split(".")
    current = document
    for part in parts[:-1]:
        current = current.setdefault(part, {})
        if not isinstance(current, dict):
            raise MongoError(f"cannot set {path}: {part} is not a document")
    current[parts[-1]] = value
