"""Stripe bookkeeping and the pre-encoding store.

The paper's HDFS integration adds a *pre-encoding store* to the NameNode
(Section IV-B) that keeps, for each future stripe, the list of data block
identifiers that will be encoded together.  EAR fills it eagerly (a stripe is
sealed when its core rack accumulates ``k`` data blocks); under RR the
RaidNode simply groups every ``k`` data blocks in metadata order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cluster.block import BlockId
from repro.cluster.topology import RackId
from repro.journal.records import NewStripe, SealStripe, StripeAddBlock


class StripeState:
    """Lifecycle of a stripe."""

    OPEN = "open"          # still accumulating data blocks
    SEALED = "sealed"      # k data blocks collected, eligible for encoding
    ENCODED = "encoded"    # parity written, redundant replicas deleted


@dataclass
class Stripe:
    """A group of ``k`` data blocks that are (or will be) encoded together.

    Attributes:
        stripe_id: Unique identifier.
        k: Data blocks per stripe.
        block_ids: The data blocks collected so far, in arrival order.
        core_rack: The rack holding one replica of every data block (EAR);
            ``None`` under RR.
        target_racks: Racks the post-encoding stripe must stay within
            (Section III-D), or ``None`` when every rack is admissible.
        state: One of :class:`StripeState`.
        parity_block_ids: Parity blocks, populated once encoded.
    """

    stripe_id: int
    k: int
    block_ids: List[BlockId] = field(default_factory=list)
    core_rack: Optional[RackId] = None
    target_racks: Optional[Tuple[RackId, ...]] = None
    state: str = StripeState.OPEN
    parity_block_ids: List[BlockId] = field(default_factory=list)

    def is_full(self) -> bool:
        """True when the stripe holds ``k`` data blocks."""
        return len(self.block_ids) >= self.k

    def add_block(self, block_id: BlockId) -> None:
        """Append a data block to an open stripe.

        Raises:
            ValueError: If the stripe is not open or already full.
        """
        if self.state != StripeState.OPEN:
            raise ValueError(f"stripe {self.stripe_id} is {self.state}, not open")
        if self.is_full():
            raise ValueError(f"stripe {self.stripe_id} already holds k={self.k} blocks")
        if block_id in self.block_ids:
            raise ValueError(f"block {block_id} already in stripe {self.stripe_id}")
        self.block_ids.append(block_id)

    def seal(self) -> None:
        """Mark the stripe eligible for encoding.

        Raises:
            ValueError: Unless the stripe is open and holds exactly k blocks.
        """
        if self.state != StripeState.OPEN:
            raise ValueError(f"stripe {self.stripe_id} is {self.state}, not open")
        if len(self.block_ids) != self.k:
            raise ValueError(
                f"stripe {self.stripe_id} holds {len(self.block_ids)} blocks, "
                f"needs exactly k={self.k} to seal"
            )
        self.state = StripeState.SEALED

    def mark_encoded(self, parity_block_ids: Sequence[BlockId]) -> None:
        """Record the parity blocks and flip the stripe to encoded."""
        if self.state != StripeState.SEALED:
            raise ValueError(f"stripe {self.stripe_id} is {self.state}, not sealed")
        self.parity_block_ids = list(parity_block_ids)
        self.state = StripeState.ENCODED

    def all_block_ids(self) -> List[BlockId]:
        """Data blocks followed by parity blocks (stripe order)."""
        return list(self.block_ids) + list(self.parity_block_ids)


class PreEncodingStore:
    """NameNode-side registry of stripes awaiting (or past) encoding.

    Args:
        k: Data blocks per stripe.

    ``on_change`` is an optional ``callback(block_id)`` run after
    :meth:`add_block` binds a block to a stripe (see
    :attr:`repro.cluster.block.BlockStore.on_change`).  The encode
    commit reports its state flip itself, for every member, once the
    stripe is marked encoded.  ``restore_stripe`` and the journal
    replay's ``mark_encoded`` only run on the fresh stores that
    :func:`repro.journal.recovery.recover` builds and has not yet
    returned, so no listener can be attached to observe them.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.journal = None
        self._stripes: Dict[int, Stripe] = {}
        self._next_id = 0
        self._block_to_stripe: Dict[BlockId, int] = {}
        self.on_change: Optional[Callable[[BlockId], None]] = None

    # ------------------------------------------------------------------
    @property
    def next_stripe_id(self) -> int:
        """The id the next opened stripe will receive."""
        return self._next_id

    def new_stripe(
        self,
        core_rack: Optional[RackId] = None,
        target_racks: Optional[Sequence[RackId]] = None,
    ) -> Stripe:
        """Open a fresh stripe."""
        stripe = Stripe(
            stripe_id=self._next_id,
            k=self.k,
            core_rack=core_rack,
            target_racks=None if target_racks is None else tuple(target_racks),
        )
        if self.journal is not None:
            self.journal.append(NewStripe(
                stripe_id=stripe.stripe_id,
                k=self.k,
                core_rack=core_rack,
                target_racks=stripe.target_racks,
            ))
        self._next_id = stripe.stripe_id + 1
        self._stripes[stripe.stripe_id] = stripe
        return stripe

    def restore_stripe(self, stripe: Stripe) -> Stripe:
        """Re-register a stripe with its original id (recovery only)."""
        if stripe.stripe_id in self._stripes:
            raise ValueError(f"stripe {stripe.stripe_id} already registered")
        self._stripes[stripe.stripe_id] = stripe
        for block_id in stripe.block_ids:
            self._block_to_stripe[block_id] = stripe.stripe_id
        self._next_id = max(self._next_id, stripe.stripe_id + 1)
        return stripe

    def resume_ids(self, next_id: int) -> None:
        """Fast-forward the id counter (recovery/checkpoint load only)."""
        self._next_id = max(self._next_id, next_id)

    def add_block(self, stripe_id: int, block_id: BlockId, seal_when_full: bool = True) -> Stripe:
        """Add a block to a stripe; seal automatically when it reaches k."""
        stripe = self.stripe(stripe_id)
        if self.journal is not None:
            # Pre-validate so the record is journaled only for a
            # mutation that will actually apply (write-ahead invariant).
            if stripe.state != StripeState.OPEN:
                raise ValueError(
                    f"stripe {stripe_id} is {stripe.state}, not open"
                )
            if stripe.is_full():
                raise ValueError(
                    f"stripe {stripe_id} already holds k={stripe.k} blocks"
                )
            if block_id in stripe.block_ids:
                raise ValueError(
                    f"block {block_id} already in stripe {stripe_id}"
                )
            self.journal.append(StripeAddBlock(
                stripe_id=stripe_id, block_id=block_id,
                seal_when_full=seal_when_full,
            ))
        stripe.add_block(block_id)
        self._block_to_stripe[block_id] = stripe_id
        if seal_when_full and stripe.is_full():
            stripe.seal()
        if self.on_change is not None:
            self.on_change(block_id)
        return stripe

    def seal(self, stripe_id: int) -> Stripe:
        """Explicitly seal a full stripe (the journaled sealing path).

        :meth:`add_block` auto-seals through its ``seal_when_full``
        flag, which replay reproduces from the ``StripeAddBlock``
        record; callers that defer sealing (``seal_when_full=False``)
        must seal through this method so a ``SealStripe`` record lands
        in the journal before the state flips — ``stripe.seal()``
        called directly on the dataclass bypasses the write-ahead
        invariant and is invisible to recovery.

        Raises:
            ValueError: Unless the stripe is open and holds exactly k
                blocks (mirrors :meth:`Stripe.seal`).
        """
        stripe = self.stripe(stripe_id)
        if self.journal is not None:
            # Pre-validate so the record is journaled only for a
            # mutation that will actually apply (write-ahead invariant).
            if stripe.state != StripeState.OPEN:
                raise ValueError(
                    f"stripe {stripe_id} is {stripe.state}, not open"
                )
            if len(stripe.block_ids) != stripe.k:
                raise ValueError(
                    f"stripe {stripe_id} holds {len(stripe.block_ids)} "
                    f"blocks, needs exactly k={stripe.k} to seal"
                )
            self.journal.append(SealStripe(stripe_id=stripe_id))
        stripe.seal()
        return stripe

    def stripe(self, stripe_id: int) -> Stripe:
        """Look up a stripe by id."""
        try:
            return self._stripes[stripe_id]
        except KeyError:
            raise KeyError(f"unknown stripe id {stripe_id}") from None

    def stripe_of_block(self, block_id: BlockId) -> Optional[Stripe]:
        """The stripe a block belongs to, if any."""
        stripe_id = self._block_to_stripe.get(block_id)
        return None if stripe_id is None else self._stripes[stripe_id]

    # ------------------------------------------------------------------
    def stripes(self, state: Optional[str] = None) -> List[Stripe]:
        """All stripes, optionally filtered by state."""
        found = list(self._stripes.values())
        if state is not None:
            found = [s for s in found if s.state == state]
        return found

    def sealed_stripes(self) -> List[Stripe]:
        """Stripes ready for the encoding operation."""
        return self.stripes(StripeState.SEALED)

    def open_stripes(self) -> List[Stripe]:
        """Stripes still accumulating blocks."""
        return self.stripes(StripeState.OPEN)

    def encoded_stripes(self) -> List[Stripe]:
        """Stripes whose encoding has completed."""
        return self.stripes(StripeState.ENCODED)

    def __len__(self) -> int:
        return len(self._stripes)

    def __iter__(self) -> Iterator[Stripe]:
        return iter(list(self._stripes.values()))
