"""SPSC queue and mailbox handoff contracts."""

import threading

from slotarbiter.conduits import Mailbox, SpscQueue


class TestSpscQueue:
    def test_fifo_order(self):
        q = SpscQueue(8)
        for i in range(5):
            assert q.try_put(i)
        assert [q.try_take() for _ in range(5)] == list(range(5))

    def test_capacity(self):
        q = SpscQueue(2)
        assert q.try_put(1) and q.try_put(2)
        assert not q.try_put(3)
        assert q.try_take() == 1
        assert q.try_put(3)

    def test_take_empty(self):
        q = SpscQueue(2)
        assert q.try_take() is None
        assert q.take(timeout=0.01) is None

    def test_blocking_put_timeout(self):
        q = SpscQueue(1)
        q.try_put(1)
        assert not q.put(2, timeout=0.01)

    def test_drain(self):
        q = SpscQueue(8)
        for i in range(4):
            q.try_put(i)
        assert q.drain() == [0, 1, 2, 3]
        assert len(q) == 0

    def test_snapshot_leaves_items(self):
        q = SpscQueue(8)
        for i in range(3):
            q.try_put(i)
        assert q.snapshot() == [0, 1, 2]
        assert q.snapshot() == [0, 1, 2]
        assert q.try_take() == 0

    def test_threaded_transfer_complete(self):
        q = SpscQueue(16)
        count = 5000
        received = []

        def producer():
            for i in range(count):
                while not q.try_put(i):
                    pass

        def consumer():
            while len(received) < count:
                item = q.take(timeout=0.5)
                if item is not None:
                    received.append(item)

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert received == list(range(count))


class TestMailbox:
    def test_put_take_same_identity(self):
        mb = Mailbox()
        payload = object()
        assert mb.try_put(payload)
        assert mb.try_take() is payload

    def test_second_put_refused_until_taken(self):
        mb = Mailbox()
        assert mb.try_put("a")
        assert not mb.try_put("b")
        assert not mb.put("b", timeout=0.01)
        assert mb.try_take() == "a"
        assert mb.try_put("b")

    def test_take_empty_refused(self):
        mb = Mailbox()
        assert mb.try_take() is None
        assert mb.take(timeout=0.01) is None

    def test_flag_discipline(self):
        mb = Mailbox()
        assert not mb.full
        mb.try_put(1)
        assert mb.full
        mb.try_take()
        assert not mb.full

    def test_threaded_ping_pong(self):
        a, b = Mailbox(), Mailbox()
        rounds = 2000

        def ping():
            for i in range(rounds):
                assert a.put(i, timeout=1.0)
                assert b.take(timeout=1.0) == i

        def pong():
            for _ in range(rounds):
                value = a.take(timeout=1.0)
                assert b.put(value, timeout=1.0)

        threads = [threading.Thread(target=ping), threading.Thread(target=pong)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
