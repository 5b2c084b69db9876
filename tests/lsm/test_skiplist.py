"""The skiplist the dict memtable replaced, kept as the memtable's model.

LSM memtables (RocksDB, LevelDB) are skiplists: sorted iteration for
flushes plus O(log n) point access. :class:`repro.lsm.memtable.Memtable`
serves the same contract from a dict and a memoized sorted-key array;
:class:`TestMemtableAgainstSkipList` checks it against this single-writer
skiplist (randomized tower heights with p = 1/4, forward-only pointers,
ceiling seeks), and :class:`TestSkipList` checks the model itself.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.memtable import Memtable
from repro.lsm.record import Record, ValueKind

_MAX_HEIGHT = 12
_BRANCHING = 4


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, height: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[_Node | None] = [None] * height


class SkipList:
    """Sorted map from comparable keys to values."""

    def __init__(self, seed: int = 0) -> None:
        self._head = _Node(None, None, _MAX_HEIGHT)
        self._height = 1
        self._size = 0
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return self._size

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_HEIGHT and self._rng.randrange(_BRANCHING) == 0:
            height += 1
        return height

    def _find_predecessors(self, key: Any) -> list[_Node]:
        """Per level, the last node with a key strictly less than ``key``."""
        preds = [self._head] * _MAX_HEIGHT
        node = self._head
        for level in range(self._height - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
            preds[level] = node
        return preds

    def insert(self, key: Any, value: Any) -> None:
        """Insert or overwrite ``key``."""
        preds = self._find_predecessors(key)
        candidate = preds[0].forward[0]
        if candidate is not None and candidate.key == key:
            candidate.value = value
            return
        height = self._random_height()
        if height > self._height:
            self._height = height
        node = _Node(key, value, height)
        for level in range(height):
            node.forward[level] = preds[level].forward[level]
            preds[level].forward[level] = node
        self._size += 1

    def get(self, key: Any, default: Any = None) -> Any:
        node = self._find_predecessors(key)[0].forward[0]
        if node is not None and node.key == key:
            return node.value
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def seek_ceiling(self, key: Any) -> Iterator[tuple[Any, Any]]:
        """Iterate (key, value) pairs starting at the first key >= ``key``."""
        node = self._find_predecessors(key)[0].forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterate all (key, value) pairs in ascending key order."""
        node = self._head.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def first_key(self) -> Any:
        node = self._head.forward[0]
        return None if node is None else node.key

    def last_key(self) -> Any:
        node = self._head
        for level in range(self._height - 1, -1, -1):
            while node.forward[level] is not None:
                node = node.forward[level]
        return None if node is self._head else node.key


class TestSkipList:
    def test_empty(self):
        sl = SkipList()
        assert len(sl) == 0
        assert sl.get(b"x") is None
        assert sl.first_key() is None
        assert sl.last_key() is None
        assert list(sl.items()) == []

    def test_insert_and_get(self):
        sl = SkipList()
        sl.insert(b"b", 2)
        sl.insert(b"a", 1)
        sl.insert(b"c", 3)
        assert sl.get(b"a") == 1
        assert sl.get(b"b") == 2
        assert sl.get(b"c") == 3
        assert len(sl) == 3

    def test_overwrite_does_not_grow(self):
        sl = SkipList()
        sl.insert(b"k", 1)
        sl.insert(b"k", 2)
        assert len(sl) == 1
        assert sl.get(b"k") == 2

    def test_contains(self):
        sl = SkipList()
        sl.insert(b"k", None)  # value None is still present
        assert b"k" in sl
        assert b"other" not in sl

    def test_items_sorted(self):
        sl = SkipList()
        for key in [b"d", b"a", b"c", b"b"]:
            sl.insert(key, key)
        assert [k for k, _ in sl.items()] == [b"a", b"b", b"c", b"d"]

    def test_first_and_last(self):
        sl = SkipList()
        for key in [b"m", b"a", b"z"]:
            sl.insert(key, 0)
        assert sl.first_key() == b"a"
        assert sl.last_key() == b"z"

    def test_seek_ceiling_exact(self):
        sl = SkipList()
        for key in [b"a", b"c", b"e"]:
            sl.insert(key, 0)
        assert [k for k, _ in sl.seek_ceiling(b"c")] == [b"c", b"e"]

    def test_seek_ceiling_between_keys(self):
        sl = SkipList()
        for key in [b"a", b"c", b"e"]:
            sl.insert(key, 0)
        assert [k for k, _ in sl.seek_ceiling(b"b")] == [b"c", b"e"]

    def test_seek_ceiling_past_end(self):
        sl = SkipList()
        sl.insert(b"a", 0)
        assert list(sl.seek_ceiling(b"z")) == []

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=8), st.integers()), max_size=200))
    def test_behaves_like_sorted_dict(self, pairs):
        sl = SkipList(seed=1)
        model: dict[bytes, int] = {}
        for key, value in pairs:
            sl.insert(key, value)
            model[key] = value
        assert len(sl) == len(model)
        assert [k for k, _ in sl.items()] == sorted(model)
        for key, value in model.items():
            assert sl.get(key) == value

    @given(st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=100), st.binary(min_size=1, max_size=6))
    def test_seek_ceiling_matches_model(self, inserted, probe):
        sl = SkipList(seed=2)
        for key in inserted:
            sl.insert(key, key)
        expected = sorted(k for k in set(inserted) if k >= probe)
        assert [k for k, _ in sl.seek_ceiling(probe)] == expected


class TestMemtableAgainstSkipList:
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=6), st.booleans(), st.binary(max_size=8)),
            max_size=150,
        ),
        st.binary(min_size=1, max_size=6),
    )
    def test_memtable_matches_model(self, writes, probe):
        memtable = Memtable()
        model = SkipList(seed=3)
        for seqno, (key, tombstone, value) in enumerate(writes, start=1):
            if tombstone:
                record = Record(key, seqno, ValueKind.DELETE)
            else:
                record = Record(key, seqno, ValueKind.PUT, value)
            memtable.add(record)
            model.insert(key, record)
        assert len(memtable) == len(model)
        assert list(memtable.records()) == [record for _, record in model.items()]
        assert list(memtable.scan_from(probe)) == [r for _, r in model.seek_ceiling(probe)]
        assert memtable.smallest_key() == model.first_key()
        assert memtable.largest_key() == model.last_key()
        for key, record in model.items():
            assert memtable.get(key) is record
        assert memtable.get(probe) is model.get(probe)
