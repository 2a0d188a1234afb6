"""The NameNode: metadata, placement, and the pre-encoding store.

The paper's first HDFS modification (Section IV-B) adds the EAR placement
algorithm and a *pre-encoding store* to the NameNode.  This model owns:

* the :class:`~repro.cluster.block.BlockStore` (block -> replica locations);
* the pluggable :class:`~repro.core.policy.PlacementPolicy`;
* the :class:`~repro.core.stripe.PreEncodingStore` mapping stripes to block
  lists (filled by EAR at placement time, by RR in metadata order).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.cluster.block import Block, BlockId, BlockStore
from repro.cluster.topology import ClusterTopology, NodeId, RackId, DEFAULT_BLOCK_SIZE
from repro.core.ear import EncodingAwareReplication
from repro.core.parity import EARPlanner, EncodingPlanner, RRPlanner
from repro.core.policy import PlacementDecision, PlacementPolicy
from repro.core.random_replication import RandomReplication
from repro.core.stripe import PreEncodingStore, Stripe
from repro.erasure.codec import CodeParams


class NameNode:
    """Metadata server binding a placement policy to the block store.

    Args:
        topology: Cluster layout.
        policy: Placement policy (RR, preliminary EAR, or EAR).  The policy
            must expose a ``store`` attribute (its pre-encoding store) to
            participate in encoding; both shipped policies do when
            configured with one.
        block_size: Default size of allocated blocks (64 MB).

    Example:
        >>> topo = ClusterTopology.large_scale()
        >>> code = CodeParams(14, 10)
        >>> ear = EncodingAwareReplication(topo, code, rng=random.Random(1))
        >>> namenode = NameNode(topo, ear)
        >>> block, decision = namenode.allocate_block()
        >>> namenode.block_locations(block.block_id) == decision.node_ids
        True
    """

    def __init__(
        self,
        topology: ClusterTopology,
        policy: PlacementPolicy,
        block_size: int = DEFAULT_BLOCK_SIZE,
        journal=None,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.block_size = block_size
        self.block_store = BlockStore(topology)
        self.journal = journal
        if journal is not None:
            journal.attach(
                block_store=self.block_store,
                stripe_store=self.pre_encoding_store,
            )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def allocate_block(
        self,
        size: Optional[int] = None,
        writer_node: Optional[NodeId] = None,
    ) -> Tuple[Block, PlacementDecision]:
        """Create a block, run the placement policy, record the replicas."""
        block = self.block_store.create_block(
            self.block_size if size is None else size
        )
        decision = self.policy.place_block(block.block_id, writer_node=writer_node)
        self.block_store.add_replicas(block.block_id, decision.node_ids)
        if decision.stripe_id is not None:
            self.block_store.assign_stripe(block.block_id, decision.stripe_id)
        return block, decision

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def block_locations(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Replica locations of a block (what clients ask the NameNode)."""
        return self.block_store.replica_nodes(block_id)

    @property
    def pre_encoding_store(self) -> Optional[PreEncodingStore]:
        """The stripe registry, when the policy maintains one."""
        return getattr(self.policy, "store", None)

    def sealed_stripes(self) -> List[Stripe]:
        """Stripes eligible for encoding, in sealing order."""
        store = self.pre_encoding_store
        if store is None:
            return []
        return store.sealed_stripes()

    # ------------------------------------------------------------------
    # Encoding support
    # ------------------------------------------------------------------
    def make_planner(
        self,
        code: CodeParams,
        rng: Optional[random.Random] = None,
        reserve_core_for_parity: Optional[bool] = None,
    ) -> EncodingPlanner:
        """Build the encoding planner matching the configured policy.

        ``reserve_core_for_parity`` defaults to whatever the EAR policy was
        configured with, keeping placement and encoding consistent.
        """
        if isinstance(self.policy, EncodingAwareReplication):
            if reserve_core_for_parity is None:
                reserve_core_for_parity = self.policy.core_reserve > 0
            return EARPlanner(
                self.topology,
                self.block_store,
                code,
                c=self.policy.c,
                rng=rng,
                reserve_core_for_parity=reserve_core_for_parity,
            )
        return RRPlanner(self.topology, self.block_store, code, rng=rng)

    def record_encoding(self, stripe: Stripe, plan) -> List[Block]:
        """Apply an :class:`~repro.core.parity.EncodingPlan` to the metadata.

        Creates the parity blocks at their planned nodes, deletes the
        redundant data replicas, and marks the stripe encoded.

        Concurrent failures may have removed replicas the plan wanted to
        retain (a node died while the encode was in flight).  In that case
        the block keeps an arbitrary surviving replica instead — the
        resulting layout may violate rack fault tolerance, which the
        PlacementMonitor then flags, exactly as in real HDFS.

        When a journal is attached the whole commit is bracketed as an
        atomic intent/commit pair: ``begin_stripe_commit`` (carrying the
        full plan) is durable before any mutation, the per-step effects
        journal as ``parity_add`` / ``delete_replica`` records, and
        ``end_stripe_commit`` seals the bracket.  A crash anywhere
        inside is rolled forward by recovery from the intent record.

        Returns:
            The created parity blocks, in stripe order.
        """
        journal = self.block_store.journal
        if journal is not None:
            journal.begin_stripe_commit(
                stripe.stripe_id,
                tuple(plan.parity_nodes),
                self.block_size,
                tuple(plan.retained.items()),
            )
        parity_blocks: List[Block] = []
        for node_id in plan.parity_nodes:
            parity_blocks.append(self.block_store.add_parity_block(
                self.block_size, stripe.stripe_id, node_id
            ))
        for block_id, node_id in plan.retained.items():
            survivors = self.block_store.replica_nodes(block_id)
            if not survivors:
                # Every copy vanished mid-encode; recovery (from the parity
                # just written) is the RaidNode's job, not retention's.
                continue
            keeper = node_id if node_id in survivors else survivors[0]
            self.block_store.retain_only(block_id, keeper)
        if journal is not None:
            journal.end_stripe_commit(
                stripe.stripe_id, tuple(b.block_id for b in parity_blocks)
            )
        stripe.mark_encoded([b.block_id for b in parity_blocks])
        notify = self.block_store.on_change
        if notify is not None:
            # The state flip changes every member's failure margin.
            for block_id in stripe.all_block_ids():
                notify(block_id)
        return parity_blocks
