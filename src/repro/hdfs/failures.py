"""Time-driven failure injection and automatic recovery.

Drives the full fault loop inside the simulation: at a scheduled time a
node (or a whole rack) fails, its replicas vanish from the metadata, and
the RaidNode rebuilds every block that became singly-lost from an encoded
stripe — with real recovery traffic competing on the links.  Blocks that
still have surviving replicas (pre-encoding data) are re-replicated from a
survivor instead.

This is the machinery behind failure-injection tests and the recovery
ablations; production HDFS spreads the same work over re-replication and
RaidNode repair queues.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.cluster.block import BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.core.stripe import PreEncodingStore, Stripe, StripeState
from repro.faults.retry import RetryPolicy, with_retries
from repro.hdfs.namenode import NameNode
from repro.hdfs.raidnode import RaidNode
from repro.sim.engine import Simulator
from repro.sim.netsim import Network, SourceUnavailable


@dataclass(frozen=True)
class FailureReport:
    """What one injected failure cost to repair."""

    failed_nodes: tuple
    blocks_lost: int
    blocks_recovered: int
    blocks_rereplicated: int
    unrecoverable: tuple
    repair_time: float


@dataclass(frozen=True)
class PlacementViolation:
    """A repair forced a block into a rack already at the stripe's cap.

    Recorded instead of silently violating the ``<= c`` blocks-per-rack
    constraint; with a repair queue attached, a relocation is also
    enqueued so the violation is temporary.
    """

    block_id: BlockId
    node_id: NodeId
    rack_id: RackId
    time: float


class FailureInjector:
    """Schedules node/rack failures and repairs their damage.

    Args:
        sim: Simulation kernel.
        network: Link model (recovery traffic flows through it).
        namenode: Metadata server.
        raidnode: Provides erasure-coded block reconstruction.
        rng: Random source for replacement-node choices (deterministic
            default — injection is the only sanctioned randomness source).
        retry: When given, re-replication transfers survive transient
            faults by backing off and re-planning source and target.
        repair_queue: When given, lost blocks are enqueued on this
            prioritized queue (most-at-risk stripes first) instead of
            being repaired inline in discovery order; the injector waits
            for the queue to finish before emitting its report.
        fail_endpoints: When True, failed nodes are also taken down in the
            network model, so in-flight transfers touching them raise
            ``TransferAborted`` instead of silently completing.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        namenode: NameNode,
        raidnode: RaidNode,
        rng: Optional[random.Random] = None,
        retry: Optional[RetryPolicy] = None,
        repair_queue=None,
        fail_endpoints: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.namenode = namenode
        self.raidnode = raidnode
        self.rng = rng if rng is not None else random.Random(0)
        self.retry = retry
        self.repair_queue = repair_queue
        self.fail_endpoints = fail_endpoints
        self.reports: List[FailureReport] = []
        self.violations: List[PlacementViolation] = []

    # ------------------------------------------------------------------
    def fail_node_at(self, when: float, node_id: NodeId) -> Generator:
        """Fail one node at time ``when`` and repair (run as a process)."""
        delay = when - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        report = yield from self._fail_and_repair([node_id])
        return report

    def fail_rack_at(self, when: float, rack_id: RackId) -> Generator:
        """Fail every node of a rack at time ``when`` and repair."""
        delay = when - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        nodes = list(self.namenode.topology.nodes_in_rack(rack_id))
        report = yield from self._fail_and_repair(nodes)
        return report

    # ------------------------------------------------------------------
    def _fail_and_repair(self, failed: List[NodeId]) -> Generator:
        store = self.namenode.block_store
        failed_set = set(failed)
        start = self.sim.now

        if self.fail_endpoints:
            for node_id in failed:
                self.network.fail_endpoint(node_id)

        lost: List[BlockId] = []
        for node_id in failed:
            for block_id in list(store.blocks_on_node(node_id)):
                store.remove_replica(block_id, node_id)
                lost.append(block_id)

        if self.repair_queue is not None:
            outcome = yield from self._repair_via_queue(lost)
            recovered, rereplicated, unrecoverable = outcome
        else:
            outcome = yield from self._repair_inline(lost, failed_set)
            recovered, rereplicated, unrecoverable = outcome

        report = FailureReport(
            failed_nodes=tuple(failed),
            blocks_lost=len(lost),
            blocks_recovered=recovered,
            blocks_rereplicated=rereplicated,
            unrecoverable=tuple(unrecoverable),
            repair_time=self.sim.now - start,
        )
        self.reports.append(report)
        return report

    # ------------------------------------------------------------------
    # Repair strategies
    # ------------------------------------------------------------------
    def _repair_inline(
        self, lost: List[BlockId], failed_set: Set[NodeId]
    ) -> Generator:
        """Repair lost blocks sequentially, in discovery order."""
        store = self.namenode.block_store
        recovered = 0
        rereplicated = 0
        unrecoverable: List[BlockId] = []
        for block_id in lost:
            # State is re-read at execution time: a concurrent encoding may
            # have trimmed or re-homed this block while earlier repairs ran.
            survivors = store.replica_nodes(block_id)
            if survivors:
                stripe = self._stripe_of(block_id)
                if stripe is not None and stripe.state == StripeState.ENCODED:
                    # The encode retained a surviving copy: one copy is the
                    # target for erasure-coded blocks, nothing to repair.
                    continue
                # Replicated block: copy from a survivor (re-replication).
                try:
                    yield from self._rereplicate(block_id, failed_set)
                    rereplicated += 1
                except RuntimeError:
                    unrecoverable.append(block_id)
                continue
            stripe = self._stripe_of(block_id)
            if stripe is None or stripe.state != StripeState.ENCODED:
                unrecoverable.append(block_id)
                continue
            target = self._replacement_node(store, block_id, failed_set)
            if target is None:
                unrecoverable.append(block_id)
                continue
            try:
                yield from self.raidnode.recover_block(stripe, block_id, target)
                recovered += 1
            except RuntimeError:
                unrecoverable.append(block_id)
        return recovered, rereplicated, unrecoverable

    def _rereplicate(
        self, block_id: BlockId, failed_set: Set[NodeId]
    ) -> Generator:
        """Copy a replicated block from a survivor onto a fresh node.

        With a retry policy, each attempt re-picks both the source and the
        target against current liveness, so a transient flap mid-transfer
        costs a backoff instead of the block.
        """
        if self.retry is None:
            yield from self._rereplicate_once(block_id, failed_set)
            return
        yield from with_retries(
            self.sim,
            lambda __: self._rereplicate_once(block_id, failed_set),
            self.retry,
            self.rng,
            label=f"re-replicate block {block_id}",
        )

    def _rereplicate_once(
        self, block_id: BlockId, failed_set: Set[NodeId]
    ) -> Generator:
        store = self.namenode.block_store
        survivors = [
            n
            for n in store.healthy_replica_nodes(block_id)
            if self.network.is_up(n)
        ]
        if not survivors:
            all_replicas = store.replica_nodes(block_id)
            if all_replicas:
                # Copies exist but are transiently down/corrupted: retryable.
                raise SourceUnavailable(
                    all_replicas[0], all_replicas[0], all_replicas[0]
                )
            raise RuntimeError(f"block {block_id} has no surviving replica")
        target = self._replacement_node(store, block_id, failed_set)
        if target is None:
            raise RuntimeError(f"no replacement node for block {block_id}")
        size = store.block(block_id).size
        yield from self.network.transfer(survivors[0], target, size)
        # The stripe may have finished encoding while the copy was in
        # flight, trimming the block to its single retained replica —
        # committing ours now would leave an over-replicated block the
        # PlacementMonitor cannot reason about.  Drop the copy instead.
        stripe = self._stripe_of(block_id)
        if (
            stripe is not None
            and stripe.state == StripeState.ENCODED
            and store.replica_nodes(block_id)
        ):
            return
        store.add_replica(block_id, target)

    def _repair_via_queue(self, lost: List[BlockId]) -> Generator:
        """Hand the lost blocks to the prioritized repair queue and wait."""
        seen: Set[BlockId] = set()
        ordered: List[BlockId] = []
        completions = []
        for block_id in lost:
            if block_id in seen:
                continue
            seen.add(block_id)
            ordered.append(block_id)
            completions.append(self.repair_queue.enqueue(block_id))
        recovered = 0
        rereplicated = 0
        unrecoverable: List[BlockId] = []
        if completions:
            outcomes = yield self.sim.all_of(completions)
        else:
            outcomes = []
        for block_id, outcome in zip(ordered, outcomes):
            if outcome == "decoded":
                recovered += 1
            elif outcome == "rereplicated":
                rereplicated += 1
            elif outcome == "unrecoverable":
                unrecoverable.append(block_id)
            # "noop": encoded stripe already holds its retained copy.
        return recovered, rereplicated, unrecoverable

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

    def _rack_cap(self) -> int:
        """The stripe's ``c`` blocks-per-rack fault-tolerance cap."""
        return getattr(self.namenode.policy, "c", 1)

    def _replacement_node(
        self, store: BlockStore, block_id: BlockId, failed: Set[NodeId]
    ) -> Optional[NodeId]:
        """A live node not already holding the block, preserving diversity.

        For ENCODED stripes the choice honours the ``<= c`` blocks-per-rack
        constraint; when no compliant candidate exists the violation is
        *recorded* (and a relocation enqueued when a repair queue is
        attached) rather than silently committed.  Replicated blocks keep
        the softer rack-diversity preference.
        """
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
            if n not in failed
            and n not in holders
            and self.network.is_up(n)
        ]
        if not candidates:
            return None
        if stripe is not None and stripe.state == StripeState.ENCODED:
            cap = self._rack_cap()
            compliant = [
                n for n in candidates if rack_usage.get(topology.rack_of(n), 0) < cap
            ]
            if compliant:
                return self.rng.choice(compliant)
            choice = self.rng.choice(candidates)
            self.violations.append(
                PlacementViolation(
                    block_id=block_id,
                    node_id=choice,
                    rack_id=topology.rack_of(choice),
                    time=self.sim.now,
                )
            )
            if self.repair_queue is not None:
                self.repair_queue.request_relocation(stripe)
            return choice
        diverse = [n for n in candidates if topology.rack_of(n) not in rack_usage]
        return self.rng.choice(diverse or candidates)
