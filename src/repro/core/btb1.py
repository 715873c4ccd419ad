"""The level-1 branch target buffer (BTB1) with its embedded BHT.

"The bread and butter of the branch predictor is the BTB1, where the BHT
and BTB for the direction and target address respectively reside"
(section V).  The z15 BTB1 holds 16K branches as 2K logical rows of 8
ways; one row covers a 64-byte line of instruction address space and a
single search reads the whole row, predicting up to 8 branches per cycle
(section IV).

Entries are partially tagged: two different lines that fold to the same
(row, tag) pair alias, which is how predictions can appear "in the middle
of an instruction, or ... on a non-branch instruction" (section IV).  The
IDU detects those and calls :meth:`Btb1.remove`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.common.addresses import line_of
from repro.common.bits import bit_folder, mask
from repro.common.corruption import Corruption, flipped_bits
from repro.common.slots import add_slots
from repro.configs.predictor import Btb1Config
from repro.core.entries import BtbEntry
from repro.structures.assoc import SetAssociativeTable


class BtbHit:
    """A search hit: where the entry lives and the line it matched in.

    ``address`` is the branch address the hit *implies* — the searched
    line base plus the entry's stored offset.  For an aliased entry this
    differs from the address the entry was installed for.  (A plain
    slotted class rather than a dataclass: one instance is built per
    matching way per search, and the hand-written ``__init__`` computes
    ``address`` eagerly in the same call — the walk/direction/target
    paths read it several times per hit.  Treat instances as read-only.)
    """

    __slots__ = ("row", "way", "entry", "line_base", "address")

    def __init__(self, row: int, way: int, entry: BtbEntry, line_base: int):
        self.row = row
        self.way = way
        self.entry = entry
        self.line_base = line_base
        self.address = line_base + entry.offset

    @property
    def aliased(self) -> bool:
        """True when the hit comes from a different line than the entry
        was installed for (ground-truth check; hardware cannot tell)."""
        return self.entry.line_base != self.line_base


@add_slots
@dataclass
class InstallResult:
    """Outcome of an install attempt through the write port."""

    installed: bool
    duplicate: bool
    row: int
    way: Optional[int] = None
    victim: Optional[BtbEntry] = None


def _hit_offset(hit: BtbHit) -> int:
    """Sort key for the b3 in-line ordering stage (module level so the
    hot search loop does not rebuild a closure per call)."""
    return hit.entry.offset


class Btb1:
    """The level-1 BTB array plus index/tag math and install filtering."""

    def __init__(self, config: Btb1Config):
        config.validate()
        self.config = config
        self._row_bits = config.rows.bit_length() - 1
        # Index/tag constants, bound once (line_size and rows are
        # validated powers of two).
        self._line_shift = config.line_size.bit_length() - 1
        self._row_mask = mask(self._row_bits)
        self._tag_fold = bit_folder(config.tag_bits)
        # Fold constants for the fully-inlined search_line() XOR loop.
        self._tag_bits = config.tag_bits
        self._tag_fold_mask = mask(config.tag_bits)
        self._table: SetAssociativeTable[BtbEntry] = SetAssociativeTable(
            rows=config.rows, ways=config.ways, policy=config.policy
        )
        # Statistics
        self.searches = 0
        self.hit_searches = 0
        self.installs = 0
        self.duplicate_rejects = 0
        self.evictions = 0
        self.removals = 0
        # White-box verification taps (section VII): monitors attach
        # callables here to observe "internal signals".  Each is invoked
        # with keyword arguments describing the event.
        self.on_search = None
        self.on_install = None
        self.on_remove = None

    # ------------------------------------------------------------------
    # Index / tag math
    # ------------------------------------------------------------------

    def row_of(self, address: int) -> int:
        """Row selected by an address: low line-index bits."""
        return (address >> self._line_shift) & self._row_mask

    def tag_of(self, address: int, context: int) -> int:
        """Partial tag: line-index bits above the row index, folded with
        the address-space context."""
        high_bits = (address >> self._line_shift) >> self._row_bits
        return self._tag_fold(high_bits ^ (context * 0x9E37))

    # ------------------------------------------------------------------
    # Search (read) port
    # ------------------------------------------------------------------

    def search_line(
        self, line_base: int, context: int, min_offset: int = 0
    ) -> List[BtbHit]:
        """Search one 64-byte line: all tag-matching entries at or beyond
        *min_offset*, ordered by their in-line offset (the b3 ordering
        stage of the pipeline)."""
        line_shift = self._line_shift
        base = (line_base >> line_shift) << line_shift
        line_number = base >> line_shift
        row = line_number & self._row_mask
        # tag_of inlined down to the XOR-fold loop (one search per
        # predicted line; no fold-closure call).
        value = (line_number >> self._row_bits) ^ (context * 0x9E37)
        tag = 0
        tag_bits = self._tag_bits
        fold_mask = self._tag_fold_mask
        while value:
            tag ^= value & fold_mask
            value >>= tag_bits
        self.searches += 1
        # Hot path: inline the row scan over the live row list (called
        # once per searched line; row/tag math is inlined from
        # row_of/tag_of with the precomputed constants).  A read builds
        # no row: a row that was never written holds nothing.
        data = self._table._data[row]
        hits = [] if data is None else [
            BtbHit(row=row, way=way, entry=entry, line_base=base)
            for way, entry in enumerate(data)
            if entry is not None
            and entry.tag == tag
            and entry.offset >= min_offset
        ]
        if hits:
            if len(hits) > 1:
                hits.sort(key=_hit_offset)
            self.hit_searches += 1
            touch = self._table.policy(row).touch
            for hit in hits:
                touch(hit.way)
        if self.on_search is not None:
            self.on_search(
                line_base=base, context=context, min_offset=min_offset, hits=hits
            )
        return hits

    def lookup(self, address: int, context: int) -> Optional[BtbHit]:
        """Find the entry for one specific branch address (exact offset)."""
        base = line_of(address, self.config.line_size)
        offset = address - base
        row = self.row_of(base)
        tag = self.tag_of(base, context)
        found = self._table.find(
            row, lambda entry: entry.tag == tag and entry.offset == offset
        )
        if found is None:
            return None
        way, entry = found
        self._table.touch(row, way)
        return BtbHit(row=row, way=way, entry=entry, line_base=base)

    # ------------------------------------------------------------------
    # Write port (second port: read-analyze-write install filtering)
    # ------------------------------------------------------------------

    def install(self, address: int, context: int, entry: BtbEntry) -> InstallResult:
        """Install *entry* for *address*, filtering duplicates.

        Models the z15 install path: "a read before write using the
        second search port ... only written into the BTB1 if the read
        shows that it does not already exist" (section III).
        """
        base = line_of(address, self.config.line_size)
        offset = address - base
        row = self.row_of(base)
        tag = self.tag_of(base, context)
        entry.tag = tag
        entry.offset = offset
        entry.line_base = base
        entry.context = context
        existing = self._table.find(
            row, lambda candidate: candidate.tag == tag and candidate.offset == offset
        )
        if existing is not None:
            self.duplicate_rejects += 1
            result = InstallResult(installed=False, duplicate=True, row=row)
            if self.on_install is not None:
                self.on_install(address=address, context=context, entry=entry,
                                result=result)
            return result
        way, victim = self._table.install(row, entry)
        self.installs += 1
        if victim is not None:
            self.evictions += 1
        result = InstallResult(
            installed=True, duplicate=False, row=row, way=way, victim=victim
        )
        if self.on_install is not None:
            self.on_install(address=address, context=context, entry=entry,
                            result=result)
        return result

    def remove(self, hit: BtbHit) -> bool:
        """Remove a (bad) entry; True when it was still present."""
        current = self._table.read(hit.row, hit.way)
        if current is not hit.entry:
            return False
        self._table.invalidate(hit.row, hit.way)
        self.removals += 1
        if self.on_remove is not None:
            self.on_remove(row=hit.row, way=hit.way, entry=hit.entry)
        return True

    # ------------------------------------------------------------------
    # Periodic-refresh support
    # ------------------------------------------------------------------

    def entry_at(self, row: int, way: int) -> Optional[BtbEntry]:
        """Direct read of one slot (update-time entry relocation)."""
        return self._table.read(row, way)

    def victim_preview(self, row: int) -> Optional[BtbEntry]:
        """The entry next in line for eviction in *row*, if the row is full.

        The periodic refresh analyses a no-hit search's row and writes its
        LRU entry back to the BTB2 (section III).  A row with an empty way
        has no eviction pressure, so returns None.
        """
        way = self._table.victim_way(row)
        return self._table.read(row, way)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._table.occupancy()

    @property
    def capacity(self) -> int:
        return self._table.capacity

    def component_counters(self) -> dict:
        """Native statistics, harvested by the telemetry layer."""
        return {
            "searches": self.searches,
            "hit_searches": self.hit_searches,
            "installs": self.installs,
            "duplicate_rejects": self.duplicate_rejects,
            "evictions": self.evictions,
            "removals": self.removals,
            "occupancy": self.occupancy,
            "capacity": self.capacity,
        }

    def entries(self):
        """Iterate ``(row, way, entry)`` over all valid entries."""
        return iter(self._table)

    def clear(self) -> None:
        self._table.clear()

    # ------------------------------------------------------------------
    # Fault-injection & audit hooks (repro.resilience)
    # ------------------------------------------------------------------

    def invalidate_entry(self, row: int, way: int) -> None:
        """Drop one slot — the invalidate-on-parity-error recovery action."""
        self._table.invalidate(row, way)

    def corrupt(self, rng) -> Optional[Corruption]:
        """Flip bits in one live entry, keeping it legal-but-wrong.

        Every mutation stays inside the ranges :meth:`audit` checks
        (offsets halfword-aligned and in-line, BHT 0..3, tags within the
        fold mask), so injected faults degrade prediction quality without
        ever faking a modelling bug.
        """
        victims = [(row, way, entry) for row, way, entry in self._table]
        if not victims:
            return None
        row, way, entry = rng.choice(victims)
        field = rng.choice(("target", "bht", "offset", "tag", "flag"))
        bits = 1
        if field == "bht":
            old = entry.bht.value
            entry.bht.value = old ^ rng.randint(1, 3)
            bits = flipped_bits(old, entry.bht.value)
        elif field == "offset":
            flipped = entry.offset ^ (1 << rng.randint(1, self._line_shift - 1))
            if self._offset_collides(row, entry, flipped):
                field = "target"
                entry.target ^= 1 << rng.randint(1, 24)
            else:
                entry.offset = flipped
        elif field == "tag":
            flipped = entry.tag ^ (1 << rng.randint(0, self._tag_bits - 1))
            if self._tag_collides(row, entry, flipped):
                field = "target"
                entry.target ^= 1 << rng.randint(1, 24)
            else:
                entry.tag = flipped
        elif field == "flag":
            name = rng.choice(("bidirectional", "multi_target", "crs_blacklisted"))
            setattr(entry, name, not getattr(entry, name))
            field = name
        else:
            entry.target ^= 1 << rng.randint(1, 24)

        def _invalidate(table=self._table, row=row, way=way, entry=entry):
            if table.read(row, way) is entry:
                table.invalidate(row, way)

        return Corruption(
            component="btb1",
            location=f"row={row},way={way}",
            field=field,
            bits_flipped=bits,
            invalidate=_invalidate,
        )

    def _offset_collides(self, row: int, entry: BtbEntry, offset: int) -> bool:
        """Would (entry.tag, offset) duplicate another entry in *row*?"""
        return any(
            other is not entry
            and other.tag == entry.tag and other.offset == offset
            for other in self._table.row_ref(row)
            if other is not None
        )

    def _tag_collides(self, row: int, entry: BtbEntry, tag: int) -> bool:
        """Would (tag, entry.offset) duplicate another entry in *row*?"""
        return any(
            other is not entry
            and other.tag == tag and other.offset == entry.offset
            for other in self._table.row_ref(row)
            if other is not None
        )

    def audit(self) -> List[str]:
        """Structural-invariant check; returns violation strings (none
        when the array is healthy)."""
        violations: List[str] = []
        if not 0 <= self.occupancy <= self.capacity:
            violations.append(
                f"btb1 occupancy {self.occupancy} outside [0, {self.capacity}]"
            )
        line_size = self.config.line_size
        seen_rows: dict = {}
        for row, way, entry in self._table:
            where = f"btb1[row={row},way={way}]"
            if entry.offset % 2 != 0 or not 0 <= entry.offset < line_size:
                violations.append(
                    f"{where} offset {entry.offset} not an even in-line offset"
                )
            if not 0 <= entry.bht.value <= 3:
                violations.append(f"{where} bht value {entry.bht.value} outside 0..3")
            if not 0 <= entry.tag <= self._tag_fold_mask:
                violations.append(f"{where} tag {entry.tag} wider than the fold mask")
            key = (entry.tag, entry.offset)
            seen = seen_rows.setdefault(row, set())
            if key in seen:
                violations.append(
                    f"{where} duplicates (tag={entry.tag}, offset={entry.offset})"
                )
            seen.add(key)
        return violations
