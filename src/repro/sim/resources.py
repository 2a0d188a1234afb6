"""FCFS resources and a multi-resource arbiter for link holding.

``Resource`` is the classic counted resource (CSIM *facility*): requests
queue FIFO and are granted as capacity frees up.

``MultiResource`` grants *sets* of unit-capacity resources atomically: a
request proceeds only when every key it names is free, and waiting requests
are granted first-fit in arrival order.  Waiters are indexed by key, so a
release re-checks only the requests it can unblock.  The network model uses it
to hold all links along a transfer's path simultaneously — acquiring links
one at a time would either deadlock or block links while merely queueing.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Deque, Dict, FrozenSet, Hashable, Iterable, Set

from repro.sim.engine import Event, SimulationError, Simulator


class Request(Event):
    """A pending resource claim; triggers when granted."""

    def __init__(self, sim: Simulator, amount: int = 1) -> None:
        super().__init__(sim)
        self.amount = amount


class Resource:
    """A counted FCFS resource.

    Example (inside a process):
        >>> # req = resource.request()
        >>> # yield req
        >>> # ... use the resource ...
        >>> # resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a grant."""
        return len(self._queue)

    def request(self, amount: int = 1) -> Request:
        """Claim ``amount`` units; yield the returned event to wait."""
        if not 1 <= amount <= self.capacity:
            raise ValueError(f"amount must lie in [1, {self.capacity}]")
        req = Request(self.sim, amount)
        self._queue.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted claim's units.

        Raises:
            SimulationError: If the request was never granted.
        """
        if not request.triggered:
            raise SimulationError("releasing a request that was never granted")
        self._in_use -= request.amount
        if self._in_use < 0:
            raise SimulationError("resource released more than was acquired")
        self._grant()

    def _grant(self) -> None:
        while self._queue and self._in_use + self._queue[0].amount <= self.capacity:
            req = self._queue.popleft()
            self._in_use += req.amount
            req.succeed()


class MultiRequest(Event):
    """A pending claim on a set of unit resources; triggers when granted.

    ``seq`` is the claim's enqueue position and ``state`` one of
    ``WAITING``, ``HOLDING`` or ``DONE`` (released or cancelled); both
    belong to the :class:`MultiResource` that issued the claim.
    """

    __slots__ = ("keys", "seq", "state")

    WAITING = 0
    HOLDING = 1
    DONE = 2

    def __init__(self, sim: Simulator, keys: FrozenSet, seq: int) -> None:
        super().__init__(sim)
        self.keys = keys
        self.seq = seq
        self.state = MultiRequest.WAITING


class MultiResource:
    """Atomic acquisition of sets of unit-capacity resources.

    Keys are arbitrary hashable labels (links, disks).  ``acquire`` enqueues
    a claim for a key set; a claim is granted once none of its keys is held.
    Waiting claims are granted first-fit in enqueue order, so a blocked wide
    claim does not idle links that later narrow claims can use.

    Waiting claims are indexed by key: every key maps to its waiters in
    enqueue order.  Between calls every waiting claim shares a key with
    ``held_keys`` (each grant pass leaves only blocked claims behind), so

    * ``acquire`` grants the new claim iff its keys are disjoint from the
      held set; no earlier waiter can have become grantable;
    * ``release`` re-checks only the waiters on the released keys, merged
      in enqueue order, granting first-fit as the held set grows.  A waiter
      touching none of them is still blocked by a key that stays held, and
      the held set only grows during the pass.

    That is exactly the grant sequence of a first-fit rescan of the whole
    queue after every call, at the cost of the affected waiters only.

    Example (inside a process):
        >>> # grant = links.acquire({"uplink:3", "nic:17"})
        >>> # yield grant
        >>> # yield sim.timeout(duration)
        >>> # links.release(grant)
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._held: Set = set()
        # key -> {seq: waiting claim}, each dict in enqueue order.
        self._waiters: Dict[Hashable, Dict[int, MultiRequest]] = {}
        self._waiting = 0
        self._seq = count()

    @property
    def held_keys(self) -> FrozenSet:
        """Keys currently granted to some claim."""
        return frozenset(self._held)

    @property
    def queue_length(self) -> int:
        """Claims waiting for a grant."""
        return self._waiting

    def acquire(self, keys: Iterable) -> MultiRequest:
        """Claim every key in ``keys``; yield the returned event to wait."""
        key_set = frozenset(keys)
        if not key_set:
            raise ValueError("acquire requires at least one key")
        req = MultiRequest(self.sim, key_set, next(self._seq))
        if key_set.isdisjoint(self._held):
            self._held |= key_set
            req.state = MultiRequest.HOLDING
            req.succeed()
            return req
        waiters = self._waiters
        # Each key's dict stays in enqueue order whatever order keys come in.
        for key in key_set:  # reprolint: disable=DET003
            queued = waiters.get(key)
            if queued is None:
                waiters[key] = {req.seq: req}
            else:
                queued[req.seq] = req
        self._waiting += 1
        return req

    def release(self, request: MultiRequest) -> None:
        """Return a granted claim's keys.

        Raises:
            SimulationError: If the claim was never granted or already
                released or cancelled.
        """
        if request.state != MultiRequest.HOLDING:
            if request.state == MultiRequest.WAITING:
                raise SimulationError("releasing a claim that was never granted")
            raise SimulationError("claim already released or cancelled")
        request.state = MultiRequest.DONE
        self._held -= request.keys
        self._grant(request.keys)

    def cancel(self, request: MultiRequest) -> None:
        """Withdraw a claim whether or not it was granted yet.

        An aborted transfer may still be queued for its links (never
        granted) or may have been granted between the abort and the
        cleanup; both must end with the keys free for other claims.  A
        claim already released or cancelled is left alone: its keys may
        belong to another claim by now.
        """
        if request.state == MultiRequest.HOLDING:
            self.release(request)
        elif request.state == MultiRequest.WAITING:
            request.state = MultiRequest.DONE
            self._unindex(request)

    def _unindex(self, request: MultiRequest) -> None:
        waiters = self._waiters
        for key in request.keys:
            queued = waiters[key]
            del queued[request.seq]
            if not queued:
                del waiters[key]
        self._waiting -= 1

    def _grant(self, freed: FrozenSet) -> None:
        """First-fit over the waiters on ``freed``, in enqueue order."""
        waiters = self._waiters
        candidates: Dict[int, MultiRequest] = {}
        # Merged by seq and visited in sorted seq order below.
        for key in freed:  # reprolint: disable=DET003
            queued = waiters.get(key)
            if queued:
                candidates.update(queued)
        held = self._held
        for seq in sorted(candidates):
            req = candidates[seq]
            if req.keys.isdisjoint(held):
                held |= req.keys
                self._unindex(req)
                req.state = MultiRequest.HOLDING
                req.succeed()
