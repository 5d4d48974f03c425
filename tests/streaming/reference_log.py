"""A reference model of one broker topic, written as plainly as possible.

The broker has a single append path (``produce_batch``; ``produce`` is a
view of it), so comparing the two with each other proves nothing.  This
model is the independent oracle: a dict of per-partition row lists and a
per-record loop, sharing no code with ``repro.streaming.broker`` — md5
key hashing, the round-robin cursor, per-partition offsets, logical
ticks, the partition bound (a batch with more rows for one partition
than the bound is refused outright, before any eviction; one that does
not fit after consumed-head eviction is refused whole), and one
manual- or auto-commit consumer
with the broker's fair fetch rotation.  Rows are
``(partition, offset, key, value, timestamp)`` tuples.
"""

import hashlib
from collections import Counter


def as_rows(records):
    """Broker ``Record`` rows (or a ``RecordBatch``) as the model's tuples."""
    return [(r.partition, r.offset, r.key, r.value, r.timestamp)
            for r in records]


class Rejected(Exception):
    """The batch did not fit: nothing appended, the cursor kept."""


class Oversized(Exception):
    """One partition's share of the batch exceeds the bound: it never fits.

    Nothing appended and nothing evicted; unlike :class:`Rejected` it is
    not retryable.
    """


class ReferenceLog:
    def __init__(self, partitions, bound=None, auto_commit=False):
        self.logs = {p: [] for p in range(partitions)}
        self.ends = [0] * partitions
        self.cursor = 0             # round-robin, advanced by unkeyed rows
        self.ticks = 0              # logical clock, one tick per append
        self.bound = bound
        self.auto_commit = auto_commit
        self.positions = {}         # partition -> next offset to fetch
        self.committed = {}         # partition -> committed offset
        self.fetch_cursor = 0

    # -- produce ---------------------------------------------------------------
    def partition_of(self, key):
        digest = hashlib.md5(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % len(self.logs)

    def produce(self, rows):
        """Append ``[(key, value), ...]`` as one batch; the appended rows."""
        cursor, plan = self.cursor, []
        for key, _ in rows:
            if key is None:
                plan.append(cursor % len(self.logs))
                cursor += 1
            else:
                plan.append(self.partition_of(key))
        if self.bound is not None:
            needed = Counter(plan)
            if any(count > self.bound for count in needed.values()):
                raise Oversized()
            for p, count in needed.items():
                if len(self.logs[p]) + count > self.bound:
                    self._evict_consumed(p)
            if any(len(self.logs[p]) + count > self.bound
                   for p, count in needed.items()):
                raise Rejected()
        self.cursor = cursor
        appended = []
        for (key, value), p in zip(rows, plan):
            row = (p, self.ends[p], key, value, float(self.ticks))
            self.ends[p] += 1
            self.ticks += 1
            self.logs[p].append(row)
            appended.append(row)
        return appended

    def _evict_consumed(self, p):
        if p in self.committed:
            self.logs[p] = [row for row in self.logs[p]
                            if row[1] >= self.committed[p]]

    # -- one consumer ----------------------------------------------------------
    def poll(self, budget):
        partitions = sorted(self.logs)
        start = next((i for i, p in enumerate(partitions)
                      if p >= self.fetch_cursor), 0)
        out = []
        for i in range(len(partitions)):
            p = partitions[(start + i) % len(partitions)]
            ready = [row for row in self.logs[p]
                     if row[1] >= self.position(p)]
            taken = ready[:budget]
            out.extend(taken)
            budget -= len(taken)
            self.positions[p] = (self.ends[p] if len(taken) == len(ready)
                                 else taken[-1][1] + 1)
            if budget <= 0:
                self.fetch_cursor = p + 1
                break
        if self.auto_commit and out:
            self.commit()
        return out

    def commit(self):
        for p, position in self.positions.items():
            self.committed[p] = max(self.committed.get(p, 0), position)

    def seek_to_committed(self):
        self.positions.clear()

    # -- views -----------------------------------------------------------------
    def rows(self):
        return sorted(row for log in self.logs.values() for row in log)

    def size(self):
        return sum(len(log) for log in self.logs.values())

    def position(self, p):
        return self.positions.get(p, self.committed.get(p, 0))

    def lag(self):
        return sum(max(0, end - self.committed.get(p, 0))
                   for p, end in enumerate(self.ends))
