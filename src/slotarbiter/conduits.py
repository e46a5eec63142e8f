"""Conduits: a bounded demand queue and a one-slot bin cell.

Both are single-producer single-consumer by contract.  SpscQueue is the
demand conduit between one generator thread and a paced machine's thread
(``engine.PacedMachine``).  Mailbox is the one-slot bin cell with an
explicit full/empty flag: the shuffle distributor's two K x K grids are made
of them.  Each round every shard sends K bins, one through each cell of its
row, and each alloc set takes K, one from each shard, checking every bin's
round, index and target; one thread, the engine's, puts and takes every bin.
``snapshot`` reads a queue without taking from it, for shutdown accounting.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Generic, List, Optional, TypeVar

T = TypeVar("T")


class SpscQueue(Generic[T]):
    """Bounded FIFO for exactly one producer and one consumer."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._cond = threading.Condition()

    def try_put(self, item: T) -> bool:
        with self._cond:
            if len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._cond.notify()
            return True

    def put(self, item: T, timeout: Optional[float] = None) -> bool:
        with self._cond:
            if len(self._items) >= self.capacity:
                if not self._cond.wait_for(lambda: len(self._items) < self.capacity, timeout):
                    return False
            self._items.append(item)
            self._cond.notify()
            return True

    def try_take(self) -> Optional[T]:
        with self._cond:
            if not self._items:
                return None
            item = self._items.popleft()
            self._cond.notify()
            return item

    def take(self, timeout: Optional[float] = None) -> Optional[T]:
        with self._cond:
            if not self._items:
                if not self._cond.wait_for(lambda: bool(self._items), timeout):
                    return None
            item = self._items.popleft()
            self._cond.notify()
            return item

    def drain(self) -> List[T]:
        """Take everything currently queued (consumer side)."""
        with self._cond:
            items = list(self._items)
            self._items.clear()
            self._cond.notify()
            return items

    def snapshot(self) -> List[T]:
        """Everything currently queued, left in place."""
        with self._cond:
            return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


class Mailbox:
    """One-slot handoff cell: write only when empty, read only when full.

    The writer sets the flag after storing the value and the reader clears it
    after taking the value, so each transfer moves the handle exactly once
    and the payload is never copied.
    """

    __slots__ = ("_value", "_full", "_cond")

    def __init__(self) -> None:
        self._value: Any = None
        self._full = False
        self._cond = threading.Condition()

    @property
    def full(self) -> bool:
        return self._full

    def try_put(self, value: Any) -> bool:
        with self._cond:
            if self._full:
                return False
            self._value = value
            self._full = True
            self._cond.notify()
            return True

    def put(self, value: Any, timeout: Optional[float] = None) -> bool:
        with self._cond:
            if self._full:
                if not self._cond.wait_for(lambda: not self._full, timeout):
                    return False
            self._value = value
            self._full = True
            self._cond.notify()
            return True

    def try_take(self) -> Optional[Any]:
        with self._cond:
            if not self._full:
                return None
            value = self._value
            self._value = None
            self._full = False
            self._cond.notify()
            return value

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        with self._cond:
            if not self._full:
                if not self._cond.wait_for(lambda: self._full, timeout):
                    return None
            value = self._value
            self._value = None
            self._full = False
            self._cond.notify()
            return value
