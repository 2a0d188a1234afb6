"""Blocks, replicas, and the per-node block store.

A CFS file is a sequence of fixed-size blocks; each block initially exists as
``r`` replicas on distinct nodes and, after the encoding operation, as a
single copy that is protected by parity blocks of its stripe.  ``BlockStore``
tracks where every copy lives and enforces the structural invariants that the
placement policies rely on (no two copies of a block on one node, capacity
accounting, etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.cluster.topology import ClusterTopology, NodeId, RackId
from repro.journal.records import (
    AddBlock,
    AssignStripe,
    ClearCorrupted,
    DeleteReplica,
    MarkCorrupted,
    ParityAdd,
    PlaceReplica,
    Relocate,
)

BlockId = int


class BlockKind:
    """Enumeration of block roles within a stripe."""

    DATA = "data"
    PARITY = "parity"


@dataclass(frozen=True)
class Block:
    """An immutable descriptor of a logical block.

    Attributes:
        block_id: Globally unique identifier.
        size: Block size in bytes (64 MB by default in the paper).
        kind: ``BlockKind.DATA`` or ``BlockKind.PARITY``.
        stripe_id: The stripe this block belongs to, or ``None`` before the
            block has been assigned to a stripe.
    """

    block_id: BlockId
    size: int
    kind: str = BlockKind.DATA
    stripe_id: Optional[int] = None

    def is_parity(self) -> bool:
        """True for parity blocks produced by the encoding operation."""
        return self.kind == BlockKind.PARITY


@dataclass(frozen=True)
class Replica:
    """One physical copy of a block on a specific node.

    Attributes:
        block_id: The logical block this copy belongs to.
        node_id: The node storing the copy.
        is_primary: True for the first replica written — under EAR this is
            the copy that lives in the stripe's core rack.
    """

    block_id: BlockId
    node_id: NodeId
    is_primary: bool = False


class BlockStore:
    """Tracks the replica locations of every block in the cluster.

    The store is the authoritative map used by the NameNode model; placement
    policies record decisions here and the encoding pipeline consults and
    mutates it (replica deletion, parity insertion).

    Args:
        topology: The cluster this store describes.

    Raises:
        ValueError: On attempts to violate structural invariants, e.g.
            placing two replicas of one block on the same node.

    When a :class:`~repro.journal.journal.MetadataJournal` is attached
    (``self.journal``), every mutator appends its typed record *before*
    touching in-memory state — the write-ahead invariant the recovery
    path relies on.  The ``restore_*`` / ``resume_ids`` entry points are
    for recovery and checkpoint loading only and never journal.

    ``on_change`` is an optional ``callback(block_id)`` run after every
    change to a block's replica set or stripe binding
    (:meth:`add_replica`, :meth:`remove_replica` — which
    :meth:`retain_only`, :meth:`move_replica` and
    :meth:`add_parity_block` go through — and :meth:`assign_stripe`).
    The repair queue uses it to re-rank only the stripes a mutation
    touched.  ``restore_block`` needs no report: a block that was not
    registered cannot be queued, and a new block changes no other
    block's replicas.
    """

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self.journal = None
        self.on_change: Optional[Callable[[BlockId], None]] = None
        self._blocks: Dict[BlockId, Block] = {}
        self._replicas: Dict[BlockId, List[Replica]] = {}
        self._node_blocks: Dict[NodeId, Set[BlockId]] = {
            node_id: set() for node_id in topology.node_ids()
        }
        self._next_id = 0
        self._corrupted: Set[Tuple[BlockId, NodeId]] = set()

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------
    @property
    def next_block_id(self) -> BlockId:
        """The id the next created block will receive."""
        return self._next_id

    def create_block(
        self,
        size: int,
        kind: str = BlockKind.DATA,
        stripe_id: Optional[int] = None,
    ) -> Block:
        """Allocate a fresh block id and register the block."""
        if size <= 0:
            raise ValueError("block size must be positive")
        block = Block(self._next_id, size, kind, stripe_id)
        if self.journal is not None:
            self.journal.append(AddBlock(
                block_id=block.block_id, size=size, kind=kind,
                stripe_id=stripe_id,
            ))
        self._next_id = block.block_id + 1
        self._blocks[block.block_id] = block
        self._replicas[block.block_id] = []
        return block

    def add_parity_block(
        self, size: int, stripe_id: int, node_id: NodeId
    ) -> Block:
        """Create a parity block already placed on ``node_id``.

        Journals a single :class:`~repro.journal.records.ParityAdd`
        (the commit bracket's interior record) instead of separate
        add-block/place-replica records, then applies both steps.
        """
        if size <= 0:
            raise ValueError("block size must be positive")
        self.topology.node(node_id)
        if self.journal is not None:
            self.journal.append(ParityAdd(
                stripe_id=stripe_id, block_id=self._next_id,
                node_id=node_id, size=size,
            ))
        saved, self.journal = self.journal, None
        try:
            block = self.create_block(
                size, kind=BlockKind.PARITY, stripe_id=stripe_id
            )
            self.add_replica(block.block_id, node_id, is_primary=True)
        finally:
            self.journal = saved
        return block

    def restore_block(self, block: Block) -> Block:
        """Re-register a block with its original id (recovery only)."""
        if block.block_id in self._blocks:
            raise ValueError(f"block {block.block_id} already registered")
        self._blocks[block.block_id] = block
        self._replicas[block.block_id] = []
        self._next_id = max(self._next_id, block.block_id + 1)
        return block

    def resume_ids(self, next_id: BlockId) -> None:
        """Fast-forward the id counter (recovery/checkpoint load only)."""
        self._next_id = max(self._next_id, next_id)

    def assign_stripe(self, block_id: BlockId, stripe_id: int) -> Block:
        """Bind a block to a stripe (done when the core rack seals k blocks)."""
        old = self._get_block(block_id)
        if self.journal is not None and old.stripe_id != stripe_id:
            self.journal.append(AssignStripe(
                block_id=block_id, stripe_id=stripe_id
            ))
        updated = Block(old.block_id, old.size, old.kind, stripe_id)
        self._blocks[block_id] = updated
        if self.on_change is not None:
            self.on_change(block_id)
        return updated

    def block(self, block_id: BlockId) -> Block:
        """Return the descriptor for ``block_id``."""
        return self._get_block(block_id)

    def blocks(self) -> Iterator[Block]:
        """Iterate over all registered blocks."""
        return iter(list(self._blocks.values()))

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # ------------------------------------------------------------------
    # Replica management
    # ------------------------------------------------------------------
    def add_replica(
        self, block_id: BlockId, node_id: NodeId, is_primary: bool = False
    ) -> Replica:
        """Record a new replica of ``block_id`` on ``node_id``.

        Raises:
            ValueError: If the node already stores a copy of this block.
        """
        self._get_block(block_id)
        self.topology.node(node_id)
        if node_id in self.replica_nodes(block_id):
            raise ValueError(
                f"node {node_id} already stores a replica of block {block_id}"
            )
        if self.journal is not None:
            self.journal.append(PlaceReplica(
                block_id=block_id, node_id=node_id, is_primary=is_primary
            ))
        replica = Replica(block_id, node_id, is_primary)
        self._replicas[block_id].append(replica)
        self._node_blocks[node_id].add(block_id)
        if self.on_change is not None:
            self.on_change(block_id)
        return replica

    def add_replicas(self, block_id: BlockId, node_ids: Sequence[NodeId]) -> List[Replica]:
        """Record all replicas for a block; the first one is primary."""
        return [
            self.add_replica(block_id, node_id, is_primary=(index == 0))
            for index, node_id in enumerate(node_ids)
        ]

    def remove_replica(self, block_id: BlockId, node_id: NodeId) -> None:
        """Delete the copy of ``block_id`` held by ``node_id``.

        Raises:
            KeyError: If the node holds no copy of the block.
        """
        replicas = self._replicas[self._get_block(block_id).block_id]
        for index, replica in enumerate(replicas):
            if replica.node_id == node_id:
                if self.journal is not None:
                    self.journal.append(DeleteReplica(
                        block_id=block_id, node_id=node_id
                    ))
                del replicas[index]
                self._node_blocks[node_id].discard(block_id)
                self._corrupted.discard((block_id, node_id))
                if self.on_change is not None:
                    self.on_change(block_id)
                return
        raise KeyError(f"node {node_id} stores no replica of block {block_id}")

    def retain_only(self, block_id: BlockId, node_id: NodeId) -> None:
        """Keep exactly the copy on ``node_id``; delete every other replica.

        This is step (iii) of the encoding operation: after parity blocks are
        written, the redundant replicas of each data block are removed.
        """
        if node_id not in self.replica_nodes(block_id):
            raise KeyError(f"node {node_id} stores no replica of block {block_id}")
        for other in list(self.replica_nodes(block_id)):
            if other != node_id:
                self.remove_replica(block_id, other)

    def move_replica(self, block_id: BlockId, src: NodeId, dst: NodeId) -> None:
        """Relocate one copy from ``src`` to ``dst`` (BlockMover behaviour).

        Journaled as one semantic :class:`~repro.journal.records.Relocate`
        record; the remove/add sub-steps run with the journal detached.
        """
        nodes = self.replica_nodes(block_id)
        if src not in nodes:
            raise KeyError(
                f"node {src} stores no replica of block {block_id}"
            )
        self.topology.node(dst)
        if dst in nodes:
            raise ValueError(
                f"node {dst} already stores a replica of block {block_id}"
            )
        if self.journal is not None:
            self.journal.append(Relocate(
                block_id=block_id, src_node=src, dst_node=dst
            ))
        saved, self.journal = self.journal, None
        try:
            self.remove_replica(block_id, src)
            self.add_replica(block_id, dst)
        finally:
            self.journal = saved

    # ------------------------------------------------------------------
    # Corruption (bit-rot) markers
    # ------------------------------------------------------------------
    def mark_corrupted(self, block_id: BlockId, node_id: NodeId) -> None:
        """Flag one replica as bit-rotted (its checksum no longer matches).

        The replica still occupies space and shows up in
        :meth:`replica_nodes`, but readers and repair pipelines must treat
        it as unusable — :meth:`healthy_replica_nodes` excludes it.

        Raises:
            KeyError: If the node holds no copy of the block.
        """
        if node_id not in self.replica_nodes(block_id):
            raise KeyError(
                f"node {node_id} stores no replica of block {block_id}"
            )
        if (block_id, node_id) in self._corrupted:
            return
        if self.journal is not None:
            self.journal.append(MarkCorrupted(
                block_id=block_id, node_id=node_id
            ))
        self._corrupted.add((block_id, node_id))

    def clear_corrupted(self, block_id: BlockId, node_id: NodeId) -> None:
        """Unflag a replica (e.g. after it was rewritten from a good copy)."""
        if (block_id, node_id) not in self._corrupted:
            return
        if self.journal is not None:
            self.journal.append(ClearCorrupted(
                block_id=block_id, node_id=node_id
            ))
        self._corrupted.discard((block_id, node_id))

    def is_corrupted(self, block_id: BlockId, node_id: NodeId) -> bool:
        """True when the replica's stored bytes are known-bad."""
        return (block_id, node_id) in self._corrupted

    def corrupted_replicas(self) -> List[Tuple[BlockId, NodeId]]:
        """All flagged (block, node) pairs, deterministically ordered."""
        return sorted(self._corrupted)

    def corrupted_on_node(self, node_id: NodeId) -> List[BlockId]:
        """Flagged blocks on one node, sorted (the scrubber's scan unit)."""
        return sorted(b for b, n in self._corrupted if n == node_id)

    def healthy_replica_nodes(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Nodes holding an uncorrupted copy of ``block_id``."""
        return tuple(
            n
            for n in self.replica_nodes(block_id)
            if (block_id, n) not in self._corrupted
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def replicas(self, block_id: BlockId) -> Sequence[Replica]:
        """All current replicas of a block."""
        return tuple(self._replicas[self._get_block(block_id).block_id])

    def replica_nodes(self, block_id: BlockId) -> Tuple[NodeId, ...]:
        """Node ids currently holding a copy of ``block_id``."""
        return tuple(r.node_id for r in self._replicas[self._get_block(block_id).block_id])

    def replica_racks(self, block_id: BlockId) -> Tuple[RackId, ...]:
        """Rack ids currently holding a copy (duplicates preserved)."""
        return tuple(self.topology.rack_of(n) for n in self.replica_nodes(block_id))

    def primary_node(self, block_id: BlockId) -> Optional[NodeId]:
        """The node holding the first-written replica, if it still exists."""
        for replica in self._replicas[self._get_block(block_id).block_id]:
            if replica.is_primary:
                return replica.node_id
        return None

    def blocks_on_node(self, node_id: NodeId) -> Set[BlockId]:
        """Ids of blocks with a copy on ``node_id``."""
        self.topology.node(node_id)
        return set(self._node_blocks[node_id])

    def blocks_in_rack(self, rack_id: RackId) -> Set[BlockId]:
        """Ids of blocks with at least one copy in ``rack_id``."""
        found: Set[BlockId] = set()
        for node_id in self.topology.nodes_in_rack(rack_id):
            found.update(self._node_blocks[node_id])
        return found

    def replica_count_per_node(self) -> Dict[NodeId, int]:
        """Number of replicas stored on each node (storage load)."""
        return {
            node_id: len(blocks) for node_id, blocks in self._node_blocks.items()
        }

    def replica_count_per_rack(self) -> Dict[RackId, int]:
        """Number of replicas stored in each rack (rack-level storage load)."""
        counts = {rack_id: 0 for rack_id in self.topology.rack_ids()}
        for node_id, blocks in self._node_blocks.items():
            counts[self.topology.rack_of(node_id)] += len(blocks)
        return counts

    def bytes_on_node(self, node_id: NodeId) -> int:
        """Total bytes stored on a node."""
        return sum(self._blocks[b].size for b in self._node_blocks[node_id])

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _get_block(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise KeyError(f"unknown block id {block_id}") from None
