"""Prioritized, retrying repair pipeline.

Replaces the FailureInjector's inline discovery-order repair loop: damage
is *enqueued*, and a background worker always repairs the most-at-risk
stripe first — the one with the fewest surviving blocks above its decode
threshold (``k`` for encoded stripes, one replica for replicated blocks).
Under compound failures this ordering is what separates "a window of
reduced durability" from actual data loss, which is why production RAID
nodes run exactly such a queue.

Each repair re-reads cluster state at execution time and, with a retry
policy attached, survives transient endpoint deaths by backing off and
re-planning both its source set and its target node.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Generator, Iterable, List, Optional, Set, Tuple

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import NodeId, RackId
from repro.core.policy import PlacementError
from repro.core.stripe import Stripe, StripeState
from repro.faults.retry import RetryExhausted, RetryPolicy, with_retries
from repro.sim.engine import Event, Simulator
from repro.sim.metrics import ResilienceMetrics
from repro.sim.netsim import Network, SourceUnavailable, TransferAborted

#: Repair outcomes delivered through each enqueue's completion event.
DECODED = "decoded"
REREPLICATED = "rereplicated"
NOOP = "noop"
UNRECOVERABLE = "unrecoverable"


class RepairQueue:
    """Background repair worker draining damage most-at-risk first.

    Args:
        sim: Simulation kernel.
        network: Link model carrying the repair traffic.
        namenode: Metadata server (block store + stripe registry).
        raidnode: Erasure-coded reconstruction engine.
        rng: Random source for target-node choices (deterministic default).
        retry: When given, each repair survives transient faults: aborted
            transfers trigger a backoff and a fresh attempt with a newly
            chosen target against current liveness.
        resilience: Optional fault metrics (repair durations feed MTTR,
            unavailability windows open at enqueue and close at repair).
        mover: Optional :class:`~repro.core.relocation.BlockMover`; when
            present, relocation requests (recorded constraint violations)
            are served once the damage queue drains.
        recovery: Optional
            :class:`~repro.recovery.metrics.RecoveryMetrics`; when
            present, each repair feeds the repair-time distribution,
            per-rack reconstruction traffic, and margin-0 vulnerability
            windows.
        concurrency: Simultaneous repairs the queue may run.  The default
            (1) keeps the historical strictly-serial worker.  Higher
            values model a production repair fleet — and are where
            placement matters: concurrent reconstructions whose survivor
            fetches share a rack uplink serialize on it, so concentrated
            (EAR-style) layouts drain a storm slower than spread ones.
            Dispatch order stays most-at-risk-first either way.

    The worker process starts on construction and runs forever; it sleeps
    on an internal wakeup event while idle, so an empty queue costs
    nothing.

    Dispatch order comes from an incremental most-at-risk index: a
    lazy-deletion heap of each waiting block's :meth:`_risk_key`, plus a
    set of blocks whose key may have moved.  A key depends on its
    stripe's member replica sets, its stripe's state and its stripe
    membership; the stores report writes to each through ``on_change``
    (replica adds and removals, ``PreEncodingStore.add_block``, and the
    NameNode's encode commit), and the queue marks the touched block
    dirty.  Only dirty blocks' stripes are re-keyed, at the next
    dispatch.  The queue listens only while it holds damage, and a
    second queue that tries to listen to the same stores at the same
    time raises ``RuntimeError``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode,
        raidnode,
        rng: Optional[random.Random] = None,
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceMetrics] = None,
        mover=None,
        recovery=None,
        concurrency: int = 1,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be at least 1")
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.raidnode = raidnode
        self.rng = rng if rng is not None else random.Random(0)
        self.retry = retry
        self.resilience = resilience
        self.mover = mover
        self.recovery = recovery
        self.concurrency = concurrency
        self._pending: Dict[BlockId, Event] = {}
        self._active: set = set()
        # The most-at-risk index over pending, non-active blocks: current
        # keys, a heap that may hold stale keys, and the touched blocks
        # whose stripes must be re-keyed before the next pop.
        self._keys: Dict[BlockId, Tuple[int, int, BlockId]] = {}
        self._heap: List[Tuple[int, int, BlockId]] = []
        self._touched: Set[BlockId] = set()
        self._on_change = self._touched.add
        self._wakeup: Optional[Event] = None
        self.outcomes: Dict[str, int] = {
            DECODED: 0, REREPLICATED: 0, NOOP: 0, UNRECOVERABLE: 0,
        }
        self.unrecoverable: List[BlockId] = []
        self.relocation_requests: List[Stripe] = []
        self._reloc_pending: List[Stripe] = []
        self.relocations_done = 0
        self.relocation_failures: List[Tuple[int, str]] = []
        self._worker = sim.process(self._run())

    # ------------------------------------------------------------------
    # Producer API
    # ------------------------------------------------------------------
    def enqueue(self, block_id: BlockId) -> Event:
        """Queue a damaged block; returns its repair completion event.

        The event succeeds with one of the outcome strings (``"decoded"``,
        ``"rereplicated"``, ``"noop"``, ``"unrecoverable"``) — it never
        fails, so callers can wait on many repairs with ``all_of``.
        Re-enqueueing a block already pending returns the existing event.
        """
        if block_id in self._pending:
            return self._pending[block_id]
        if not self._pending:
            self._listen(True)
        done = self.sim.event()
        self._pending[block_id] = done
        self._touched.add(block_id)
        if self.resilience is not None:
            self.resilience.block_unavailable(block_id, self.sim.now)
        if self.recovery is not None and self._margin(block_id) <= 0:
            self.recovery.begin_vulnerability(
                self._vulnerability_key(block_id), self.sim.now
            )
        self._notify()
        return done

    def request_relocation(self, stripe: Stripe) -> None:
        """Ask for a stripe's placement to be repaired (after the damage).

        Called when a repair had to violate the blocks-per-rack cap; the
        request is always recorded, and served via the configured mover —
        once no block repairs are pending — when one is attached.  With a
        journal attached to the namenode the request is journaled
        *before* entering the in-memory backlog, so a crash mid-storm
        replays the same pending relocations.
        """
        journal = getattr(self.namenode, "journal", None)
        if journal is not None:
            journal.relocation_requested(stripe.stripe_id)
        self.relocation_requests.append(stripe)
        self._reloc_pending.append(stripe)
        self._notify()

    def restore_relocation_requests(
        self, stripe_ids: Iterable[int]
    ) -> None:
        """Rebuild the relocation backlog after a journal recovery.

        Takes the ``pending_relocations`` list of a
        :class:`~repro.journal.recovery.RecoveredState` and re-enters the
        corresponding stripes into the in-memory backlog *without*
        re-journaling them (they are already durable).
        """
        pre_store = self.namenode.pre_encoding_store
        if pre_store is None:
            return
        for stripe_id in stripe_ids:
            stripe = pre_store.stripe(stripe_id)
            self.relocation_requests.append(stripe)
            self._reloc_pending.append(stripe)
        if self._reloc_pending:
            self._notify()

    @property
    def pending_count(self) -> int:
        """Damaged blocks still waiting for (or under) repair."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self) -> Generator:
        if self.concurrency == 1:
            yield from self._run_serial()
        else:
            yield from self._run_parallel()

    def _run_serial(self) -> Generator:
        while True:
            block_id = self._pop_most_at_risk()
            if block_id is not None:
                yield from self._repair_and_finish(block_id)
            elif self._reloc_pending and self.mover is not None:
                stripe = self._reloc_pending.pop(0)
                yield from self._relocate(stripe)
            else:
                self._wakeup = self.sim.event()
                yield self._wakeup
                self._wakeup = None

    def _run_parallel(self) -> Generator:
        """Dispatcher: up to ``concurrency`` repairs in flight at once.

        Repairs are still *started* most-at-risk-first; relocations are
        only served while the damage queue is completely drained, exactly
        as in the serial worker.
        """
        while True:
            while len(self._active) < self.concurrency:
                block_id = self._pop_most_at_risk()
                if block_id is None:
                    break
                self.sim.process(self._repair_and_finish(block_id))
            if (
                not self._pending
                and not self._active
                and self._reloc_pending
                and self.mover is not None
            ):
                stripe = self._reloc_pending.pop(0)
                yield from self._relocate(stripe)
                continue
            self._wakeup = self.sim.event()
            yield self._wakeup
            self._wakeup = None

    def _repair_and_finish(self, block_id: BlockId) -> Generator:
        start = self.sim.now
        outcome = yield from self._repair_one(block_id)
        self._active.discard(block_id)
        self._finish_repair(block_id, start, outcome)
        self._notify()

    def _finish_repair(
        self, block_id: BlockId, start: float, outcome: str
    ) -> None:
        self.outcomes[outcome] += 1
        if outcome == UNRECOVERABLE:
            self.unrecoverable.append(block_id)
            if self.resilience is not None:
                self.resilience.record_data_loss(
                    block_id, self.sim.now, "repair failed"
                )
        if self.resilience is not None:
            self.resilience.record_repair(self.sim.now - start)
            self.resilience.block_available(block_id, self.sim.now)
        if self.recovery is not None:
            self.recovery.record_repair(start, self.sim.now - start)
            if outcome != UNRECOVERABLE and self._margin(block_id) > 0:
                self.recovery.end_vulnerability(
                    self._vulnerability_key(block_id), self.sim.now
                )
        done = self._pending.pop(block_id)
        if not self._pending:
            self._listen(False)
        done.succeed(outcome)

    # ------------------------------------------------------------------
    # Most-at-risk index
    # ------------------------------------------------------------------
    def _listen(self, on: bool) -> None:
        """Attach to (or detach from) the stores' ``on_change`` slots.

        Detaching also resets the index: with nothing pending it holds
        only stale heap entries.
        """
        stores = [self.namenode.block_store]
        if self.namenode.pre_encoding_store is not None:
            stores.append(self.namenode.pre_encoding_store)
        if on and any(store.on_change is not None for store in stores):
            raise RuntimeError(
                "another repair queue already watches this namenode's stores"
            )
        for store in stores:
            if on:
                store.on_change = self._on_change
            elif store.on_change is self._on_change:
                store.on_change = None
        if not on:
            self._keys.clear()
            self._heap.clear()
            self._touched.clear()

    def _pop_most_at_risk(self) -> Optional[BlockId]:
        """Start the waiting block whose stripe has the smallest margin.

        Margin = surviving copies above the decode threshold (``k``
        members for an encoded stripe, one replica otherwise); ties break
        in deterministic ``(stripe_id, block_id)`` order — *not* arrival
        order, so the repair sequence is a pure function of cluster state
        regardless of how the damage was discovered.  Keys are refreshed
        from the dirty set first: every member of each touched block's
        stripe that still waits is re-keyed, and a moved key is pushed
        anew (its old heap entry goes stale and is skipped on pop).
        Repairs and further failures thus re-rank the queue continuously,
        and the pop order equals a full sort of the waiting blocks by
        :meth:`_risk_key`.  The block moves to ``_active``; returns
        ``None`` when no block waits.
        """
        if self._touched:
            dirty: Set[BlockId] = set()
            for block_id in sorted(self._touched):
                stripe = self._stripe_of(block_id)
                dirty.add(block_id)
                if stripe is not None:
                    dirty.update(stripe.all_block_ids())
            self._touched.clear()
            for block_id in sorted(dirty):
                if block_id not in self._pending or block_id in self._active:
                    continue
                key = self._risk_key(block_id)
                if self._keys.get(block_id) != key:
                    self._keys[block_id] = key
                    heapq.heappush(self._heap, key)
        while self._heap:
            key = heapq.heappop(self._heap)
            block_id = key[2]
            if self._keys.get(block_id) == key:
                del self._keys[block_id]
                self._active.add(block_id)
                return block_id
        return None

    def _risk_key(self, block_id: BlockId) -> Tuple[int, int, BlockId]:
        stripe = self._stripe_of(block_id)
        stripe_rank = -1 if stripe is None else stripe.stripe_id
        return (self._margin(block_id), stripe_rank, block_id)

    def _vulnerability_key(self, block_id: BlockId) -> str:
        stripe = self._stripe_of(block_id)
        if stripe is not None:
            return f"stripe:{stripe.stripe_id}"
        return f"block:{block_id}"

    def _margin(self, block_id: BlockId) -> int:
        store = self.namenode.block_store
        stripe = self._stripe_of(block_id)
        if stripe is not None and stripe.state == StripeState.ENCODED:
            survivors = sum(
                1 for member in stripe.all_block_ids()
                if store.replica_nodes(member)
            )
            return survivors - stripe.k
        return len(store.replica_nodes(block_id)) - 1

    # ------------------------------------------------------------------
    # One repair
    # ------------------------------------------------------------------
    def _repair_one(self, block_id: BlockId) -> Generator:
        store = self.namenode.block_store
        survivors = store.replica_nodes(block_id)
        stripe = self._stripe_of(block_id)
        if survivors:
            if stripe is not None and stripe.state == StripeState.ENCODED:
                # The retained single copy is the steady state: no repair.
                return NOOP
            try:
                yield from self._with_queue_retries(
                    lambda: self._rereplicate_once(block_id)
                )
                return REREPLICATED
            except RuntimeError:
                return UNRECOVERABLE
        if stripe is None or stripe.state != StripeState.ENCODED:
            return UNRECOVERABLE
        try:
            yield from self._with_queue_retries(
                lambda: self._decode_once(stripe, block_id)
            )
            return DECODED
        except RuntimeError:
            return UNRECOVERABLE

    def _with_queue_retries(self, attempt_factory) -> Generator:
        """Run one repair attempt factory under the queue's retry policy.

        Retries also cover :class:`RetryExhausted` raised by the
        RaidNode's *inner* download retries: when those die because the
        chosen target node failed mid-repair, a fresh outer attempt picks
        a new live target.
        """
        if self.retry is None:
            result = yield from attempt_factory()
            return result
        result = yield from with_retries(
            self.sim,
            lambda __: attempt_factory(),
            self.retry,
            self.rng,
            retry_on=(TransferAborted, RetryExhausted),
            metrics=self.resilience,
            label="repair",
        )
        return result

    def _rereplicate_once(self, block_id: BlockId) -> Generator:
        store = self.namenode.block_store
        sources = [
            n
            for n in store.healthy_replica_nodes(block_id)
            if self.network.is_up(n)
        ]
        if not sources:
            replicas = store.replica_nodes(block_id)
            if replicas:
                raise SourceUnavailable(replicas[0], replicas[0], replicas[0])
            raise RuntimeError(f"block {block_id} has no surviving replica")
        target = self._replacement_node(block_id)
        if target is None:
            raise RuntimeError(f"no replacement node for block {block_id}")
        size = store.block(block_id).size
        yield from self.network.transfer(sources[0], target, size)
        if self.recovery is not None:
            cross = self.network.is_cross_rack(sources[0], target)
            self.recovery.record_repair_traffic(
                self.namenode.topology.rack_of(target),
                size,
                size if cross else 0.0,
            )
        # A concurrent encode may have trimmed the block to its retained
        # copy while ours was in flight; committing a second replica would
        # over-replicate an encoded stripe.  Drop the copy instead.
        stripe = self._stripe_of(block_id)
        if (
            stripe is not None
            and stripe.state == StripeState.ENCODED
            and store.replica_nodes(block_id)
        ):
            return
        store.add_replica(block_id, target)

    def _decode_once(self, stripe: Stripe, block_id: BlockId) -> Generator:
        target = self._replacement_node(block_id)
        if target is None:
            raise RuntimeError(f"no replacement node for block {block_id}")
        record = yield from self.raidnode.recover_block(
            stripe, block_id, target
        )
        if self.recovery is not None:
            size = self.namenode.block_store.block(block_id).size
            self.recovery.record_repair_traffic(
                self.namenode.topology.rack_of(target),
                stripe.k * size,
                record.cross_rack_reads * size,
            )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _rack_cap(self) -> int:
        return getattr(self.namenode.policy, "c", 1)

    def _replacement_node(self, block_id: BlockId) -> Optional[NodeId]:
        """A live node for the repaired copy, honouring the rack cap.

        Mirrors the FailureInjector's placement rule: encoded stripes keep
        the hard ``<= c`` blocks-per-rack constraint when possible; when
        every live candidate sits in a saturated rack the violation is
        committed *and* a relocation is self-enqueued so the placement
        monitor's invariant is eventually restored.
        """
        store = self.namenode.block_store
        topology = self.namenode.topology
        stripe = self._stripe_of(block_id)
        rack_usage: Dict[RackId, int] = {}
        if stripe is not None:
            for member in stripe.all_block_ids():
                for node in store.replica_nodes(member):
                    rack = topology.rack_of(node)
                    rack_usage[rack] = rack_usage.get(rack, 0) + 1
        holders = store.replica_nodes(block_id)
        candidates = [
            n
            for n in topology.node_ids()
            if self.network.is_up(n) and n not in holders
        ]
        if not candidates:
            return None
        if stripe is not None and stripe.state == StripeState.ENCODED:
            cap = self._rack_cap()
            compliant = [
                n for n in candidates
                if rack_usage.get(topology.rack_of(n), 0) < cap
            ]
            if compliant:
                return self.rng.choice(compliant)
            choice = self.rng.choice(candidates)
            self.request_relocation(stripe)
            return choice
        diverse = [
            n for n in candidates if topology.rack_of(n) not in rack_usage
        ]
        return self.rng.choice(diverse or candidates)

    def _stripe_of(self, block_id: BlockId) -> Optional[Stripe]:
        pre_store = self.namenode.pre_encoding_store
        if pre_store is None:
            return None
        stripe = pre_store.stripe_of_block(block_id)
        if stripe is not None:
            return stripe
        stripe_id = self.namenode.block_store.block(block_id).stripe_id
        if stripe_id is None:
            return None
        try:
            return pre_store.stripe(stripe_id)
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Relocation service
    # ------------------------------------------------------------------
    def _relocate(self, stripe: Stripe) -> Generator:
        """Serve one relocation request.

        Transient failures — the stripe went back into repair since the
        request (``PlacementError``, ``KeyError``/``ValueError`` from a
        replica that moved mid-plan) or an endpoint died under the move
        (``TransferAborted``, ``RetryExhausted``) — are recorded in the
        resilience metrics and deferred to the next violation scan.
        Anything else is a genuine bug and propagates: a relocation
        worker that swallows unknown exceptions is how placement
        invariants rot silently.
        """
        try:
            yield from self.raidnode.relocate_if_violating(stripe, self.mover)
            self.relocations_done += 1
        except (
            PlacementError,
            TransferAborted,
            RetryExhausted,
            KeyError,
            ValueError,
        ) as exc:
            self.relocation_failures.append((stripe.stripe_id, repr(exc)))
            if self.resilience is not None:
                self.resilience.record_relocation_failure(repr(exc))
        finally:
            # Served or deferred, the request left the in-memory backlog;
            # the journal's pending set must agree either way.
            journal = getattr(self.namenode, "journal", None)
            if journal is not None:
                journal.relocation_served(stripe.stripe_id)
