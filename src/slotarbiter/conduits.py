"""Inter-lane conduits, and the thread that runs a paced machine's lane.

Both conduits are single-producer single-consumer by contract.  SpscQueue
is the general demand conduit (QHead, shard feeds); Mailbox is the one-slot
bin handoff cell with an explicit full/empty flag, used by the shuffle
distributor grid.  ``snapshot`` and ``peek`` read them without taking, for
shutdown accounting.

A ``LaneThread`` that raises keeps the exception and sets its machine's stop
event, so the other lanes wind down; ``join_lanes`` re-raises it, so the
paced run fails instead of returning quietly.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Generic, List, Optional, Sequence, TypeVar

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

    def peek(self) -> Optional[Any]:
        """The stored value, left in place; None when empty."""
        return self._value

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


class LaneThread(threading.Thread):
    """Runs one lane of a paced machine; an exception it raises fails the run."""

    def __init__(self, name: str, stop_event: threading.Event, target: Callable[[], None]) -> None:
        super().__init__(name=name, target=target, daemon=True)
        self.stop_event = stop_event
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            super().run()
        except BaseException as exc:
            self.error = exc
            self.stop_event.set()


def join_lanes(stop_event: threading.Event, lanes: Sequence[LaneThread]) -> None:
    """Stop and join every lane, then re-raise the first lane's error."""
    stop_event.set()
    for lane in lanes:
        lane.join()
    for lane in lanes:
        if lane.error is not None:
            raise lane.error
