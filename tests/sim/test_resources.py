"""Resource and MultiResource: FCFS grants, capacity, atomic link sets."""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.resources import MultiResource, Resource


class TestResource:
    def test_grant_within_capacity_is_immediate(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []

        def user(name):
            req = res.request()
            yield req
            log.append((name, sim.now))
            yield sim.timeout(1.0)
            res.release(req)

        sim.process(user("a"))
        sim.process(user("b"))
        sim.run()
        assert log == [("a", 0.0), ("b", 0.0)]

    def test_fcfs_queueing(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def user(name, hold):
            req = res.request()
            yield req
            log.append((name, sim.now))
            yield sim.timeout(hold)
            res.release(req)

        sim.process(user("first", 2.0))
        sim.process(user("second", 1.0))
        sim.process(user("third", 1.0))
        sim.run()
        assert log == [("first", 0.0), ("second", 2.0), ("third", 3.0)]

    def test_multi_unit_request(self):
        sim = Simulator()
        res = Resource(sim, capacity=3)
        log = []

        def big():
            req = res.request(3)
            yield req
            log.append(("big", sim.now))
            yield sim.timeout(1.0)
            res.release(req)

        def small():
            req = res.request(1)
            yield req
            log.append(("small", sim.now))
            res.release(req)

        sim.process(big())
        sim.process(small())
        sim.run()
        assert log == [("big", 0.0), ("small", 1.0)]

    def test_request_validation(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        with pytest.raises(ValueError):
            res.request(0)
        with pytest.raises(ValueError):
            res.request(3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_release_ungranted_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()  # queued
        with pytest.raises(SimulationError):
            res.release(second)

    def test_counters(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        res.request()
        res.request()
        assert res.in_use == 1
        assert res.queue_length == 1


class TestMultiResource:
    def test_atomic_grant(self):
        sim = Simulator()
        links = MultiResource(sim)
        log = []

        def flow(name, keys, hold):
            grant = links.acquire(keys)
            yield grant
            log.append((name, sim.now))
            yield sim.timeout(hold)
            links.release(grant)

        sim.process(flow("ab", {"a", "b"}, 2.0))
        sim.process(flow("bc", {"b", "c"}, 1.0))  # blocked on b
        sim.process(flow("de", {"d", "e"}, 1.0))  # disjoint: proceeds
        sim.run()
        assert log == [("ab", 0.0), ("de", 0.0), ("bc", 2.0)]

    def test_first_fit_skips_blocked_head(self):
        sim = Simulator()
        links = MultiResource(sim)
        log = []

        def flow(name, keys, hold):
            grant = links.acquire(keys)
            yield grant
            log.append((name, sim.now))
            yield sim.timeout(hold)
            links.release(grant)

        sim.process(flow("wide", {"a", "b"}, 3.0))
        sim.process(flow("blocked", {"a", "c"}, 1.0))
        sim.process(flow("narrow", {"d"}, 1.0))  # jumps the blocked head
        sim.run()
        assert ("narrow", 0.0) in log
        assert ("blocked", 3.0) in log

    def test_release_then_regrant(self):
        sim = Simulator()
        links = MultiResource(sim)
        done = []

        def flow(name, keys, hold):
            grant = links.acquire(keys)
            yield grant
            yield sim.timeout(hold)
            links.release(grant)
            done.append((name, sim.now))

        for i in range(4):
            sim.process(flow(f"f{i}", {"x"}, 1.0))
        sim.run()
        assert done == [("f0", 1.0), ("f1", 2.0), ("f2", 3.0), ("f3", 4.0)]

    def test_empty_keys_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MultiResource(sim).acquire([])

    def test_release_ungranted_raises(self):
        sim = Simulator()
        links = MultiResource(sim)
        a = links.acquire({"k"})
        b = links.acquire({"k"})
        with pytest.raises(SimulationError):
            links.release(b)

    def test_double_release_raises(self):
        sim = Simulator()
        links = MultiResource(sim)
        grant = links.acquire({"k"})
        sim.run()
        links.release(grant)
        with pytest.raises(SimulationError):
            links.release(grant)

    def test_held_keys_and_queue_length(self):
        sim = Simulator()
        links = MultiResource(sim)
        links.acquire({"a", "b"})
        links.acquire({"a"})
        assert links.held_keys == frozenset({"a", "b"})
        assert links.queue_length == 1

    def test_no_starvation_after_release(self):
        """A wide claim eventually runs once its keys free up."""
        sim = Simulator()
        links = MultiResource(sim)
        log = []

        def narrow(name, key, start, hold):
            yield sim.timeout(start)
            grant = links.acquire({key})
            yield grant
            yield sim.timeout(hold)
            links.release(grant)
            log.append((name, sim.now))

        def wide():
            yield sim.timeout(0.5)  # arrive after the narrow flows hold keys
            grant = links.acquire({"a", "b"})
            yield grant
            log.append(("wide", sim.now))
            links.release(grant)

        sim.process(narrow("na", "a", 0.0, 2.0))
        sim.process(narrow("nb", "b", 0.0, 3.0))
        sim.process(wide())
        sim.run()
        assert ("wide", 3.0) in log

    def test_stale_release_raises_and_keeps_new_holder(self):
        sim = Simulator()
        links = MultiResource(sim)
        a = links.acquire({"x"})
        b = links.acquire({"x"})
        links.release(a)  # b now holds x
        assert b.triggered
        with pytest.raises(SimulationError):
            links.release(a)
        assert links.held_keys == frozenset({"x"})
        c = links.acquire({"x"})
        assert not c.triggered
        assert links.queue_length == 1

    def test_stale_cancel_is_a_no_op(self):
        sim = Simulator()
        links = MultiResource(sim)
        a = links.acquire({"x"})
        b = links.acquire({"x"})
        links.release(a)  # b now holds x
        links.cancel(a)
        assert links.held_keys == frozenset({"x"})
        c = links.acquire({"x"})
        assert not c.triggered  # b still holds x
        links.release(b)
        assert c.triggered

    def test_cancel_waiting_then_release_raises(self):
        sim = Simulator()
        links = MultiResource(sim)
        a = links.acquire({"x"})
        b = links.acquire({"x", "y"})
        links.cancel(b)
        assert links.queue_length == 0
        links.cancel(b)  # twice: still nothing to do
        with pytest.raises(SimulationError):
            links.release(b)
        links.release(a)
        assert not b.triggered
        assert links.held_keys == frozenset()


class FullScanArbiter:
    """Reference arbiter: first-fit rescan of the whole queue after every
    call, with per-claim state so stale calls are inert.

    Claims are plain names; each call returns the names it granted, in
    grant order.
    """

    def __init__(self):
        self.held = set()
        self.queue = []  # (name, keys), enqueue order
        self.keys = {}
        self.state = {}

    def acquire(self, name, keys):
        self.keys[name] = frozenset(keys)
        self.state[name] = "waiting"
        self.queue.append(name)
        return self._scan()

    def release(self, name):
        assert self.state[name] == "holding"
        self.state[name] = "done"
        self.held -= self.keys[name]
        return self._scan()

    def cancel(self, name):
        if self.state[name] == "holding":
            return self.release(name)
        if self.state[name] == "waiting":
            self.state[name] = "done"
            self.queue.remove(name)
        return []

    def _scan(self):
        granted, remaining = [], []
        for name in self.queue:
            if self.keys[name].isdisjoint(self.held):
                self.held |= self.keys[name]
                self.state[name] = "holding"
                granted.append(name)
            else:
                remaining.append(name)
        self.queue = remaining
        return granted


class CountingKeys(frozenset):
    """A key set that counts the disjointness checks made against it."""

    checks = 0

    def isdisjoint(self, other):
        CountingKeys.checks += 1
        return super().isdisjoint(other)


class TestIndexedGrantOrder:
    """MultiResource against the full-scan oracle, step by step."""

    @staticmethod
    def _drive(seed, steps=400, pool=8):
        rng = random.Random(seed)
        sim = Simulator()
        links = MultiResource(sim)
        oracle = FullScanArbiter()
        grants = []
        requests = {}
        granted_ever = set()
        for step in range(steps):
            roll = rng.random()
            holding = [n for n, s in oracle.state.items() if s == "holding"]
            if roll < 0.5 or not oracle.state:
                name = len(requests)
                keys = rng.sample(range(pool), rng.randint(1, 3))
                req = links.acquire(keys)
                req.add_callback(lambda ev, name=name: grants.append(name))
                requests[name] = req
                expected = oracle.acquire(name, keys)
            elif roll < 0.8 and holding:
                name = rng.choice(holding)
                links.release(requests[name])
                expected = oracle.release(name)
            else:
                # Any claim ever made, stale ones included.
                name = rng.randrange(len(requests))
                links.cancel(requests[name])
                expected = oracle.cancel(name)
            del grants[:]
            sim.run()  # grants fire in the order they were made
            assert grants == expected, (seed, step)
            assert links.held_keys == frozenset(oracle.held), (seed, step)
            assert links.queue_length == len(oracle.queue), (seed, step)
            granted_ever.update(expected)
            triggered = {n for n, req in requests.items() if req.triggered}
            assert triggered == granted_ever, (seed, step)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_full_scan_oracle(self, seed):
        self._drive(seed)

    def test_release_checks_only_waiters_on_released_keys(self):
        def checks_for_release(unrelated):
            sim = Simulator()
            links = MultiResource(sim)
            hold_x = links.acquire({"x"})
            links.acquire({"y"})
            waiters = [links.acquire({"y", ("z", i)}) for i in range(unrelated)]
            waiters += [links.acquire({"x"}) for __ in range(3)]
            for req in waiters:
                req.keys = CountingKeys(req.keys)
            CountingKeys.checks = 0
            links.release(hold_x)
            assert [req.triggered for req in waiters[-3:]] == [
                True, False, False,
            ]
            assert links.queue_length == unrelated + 2
            return CountingKeys.checks

        # One check per waiter on "x", however many wait elsewhere; the
        # full scan would make unrelated + 3.
        assert checks_for_release(50) == 3
        assert checks_for_release(500) == 3

    def test_multi_key_release_merges_waiters_in_enqueue_order(self):
        sim = Simulator()
        links = MultiResource(sim)
        holder = links.acquire({"a", "b"})
        order = []
        for name, keys in [("b1", {"b"}), ("a1", {"a", "c"}),
                           ("ab", {"a", "b"}), ("c1", {"c"})]:
            req = links.acquire(keys)
            req.add_callback(lambda ev, name=name: order.append(name))
        sim.run()
        assert order == ["c1"]  # c was free at enqueue time
        links.release(holder)
        sim.run()
        # "a1" is blocked by c1 and "ab" by b1, which went first.
        assert order == ["c1", "b1"]
