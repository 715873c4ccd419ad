"""Array-backed prediction structures (the SRAM-shaped fast path).

The z15 predictor's big structures are regular SRAM/eDRAM arrays probed
in fixed-width lanes: a BTB1 search reads a whole 8-way row and compares
eight partial tags at once (section IV), and the TAGE tables and
perceptron weight matrix are equally regular.  The object model in
:mod:`repro.core` represents every entry as a Python object and pays a
per-way attribute-chase on every probe — the dominant cost of a search,
most of which miss.

This module provides the array twins:

* :class:`PackedLanes` — per-row valid+tag lanes kept in two
  synchronised views: bit-packed Python ints carrying a SWAR
  (SIMD-within-a-register) all-ways-at-once comparator — exactly the
  row-wide tag match the hardware performs (a z15 BTB1 row is 8 ways x
  17 bits = 136 bits, wider than any fixed-width dtype) — plus a flat
  sentinel tag array the hot probes scan at C speed.
* :class:`ArrayBtb1` / :class:`ArrayBtb2` / :class:`ArrayTagePht` —
  mirror-synchronised subclasses: the authoritative entry objects
  remain (the predictor trains them in place and checkpointing walks
  them), while the valid+tag mirror answers the per-probe question
  "does anything here match?" without touching a single entry object.
* :class:`ArrayPerceptron` — a full array reimplementation: weights,
  virtualisation maps and replacement metadata live in flat contiguous
  buffers indexed by ``(row, way, weight)``.

numpy is optional.  When importable (and not disabled via the
``REPRO_NO_NUMPY`` environment variable) it supplies bulk matrix
views over the perceptron buffers for whole-array audits; every
behavioural path works identically without it, so the array backend
runs — and is CI-tested — on numpy-free installs.

Every class honours the resilience contract from the fault-injection
subsystem: ``corrupt()`` keeps entries legal-but-wrong and returns a
:class:`~repro.common.corruption.Corruption` whose ``invalidate``
recovery action also repairs the mirror, and ``audit()`` additionally
cross-checks mirror consistency (a divergent mirror is a modelling bug,
never an injected fault).
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.common.addresses import line_of
from repro.common.corruption import Corruption, flipped_bits
from repro.configs.predictor import (
    Btb1Config,
    Btb2Config,
    PerceptronConfig,
    PhtConfig,
)
from repro.core.btb1 import Btb1, BtbHit, InstallResult, _hit_offset
from repro.core.btb2 import Btb2System, StagedTransfer
from repro.core.perceptron import Perceptron, PerceptronLookup
from repro.core.tage import TableLookup, TagePht, _TageTable

if os.environ.get("REPRO_NO_NUMPY"):
    _np = None
else:
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - exercised via REPRO_NO_NUMPY
        _np = None

#: True when the optional numpy acceleration layer is active.
NUMPY_AVAILABLE = _np is not None

__all__ = [
    "NUMPY_AVAILABLE",
    "PackedLanes",
    "ArrayBtb1",
    "ArrayBtb2",
    "ArrayTagePht",
    "ArrayPerceptron",
]


class PackedLanes:
    """Bit-packed valid+tag lanes for one set-associative table.

    Each row is held in two synchronised views of the same lanes:

    * one Python int of ``ways`` lanes of ``tag_bits + 1`` bits — the
      tag in the low bits and a zero *guard* bit above it.  A probe can
      compare the searched tag against every lane simultaneously with
      the classic SWAR zero-lane detector::

          diff  = packed ^ (tag * LSB)        # 0 lanes where tags match
          match = ~((diff | GUARD) - LSB) & valid

      ``LSB`` broadcasts a 1 into every lane's bit 0 and ``GUARD`` into
      every guard bit.  ORing the guard bit in before subtracting makes
      every lane's minuend nonzero, so the per-lane ``-1`` can never
      borrow across lane boundaries; the guard bit of the difference
      ends up 0 exactly in the lanes whose tags matched, and
      complementing and masking with the valid word (one guard-position
      bit per valid way) leaves one set bit per matching valid way.
      This is the row-wide comparator the hardware builds.
    * a flat per-row tag array with a ``-1`` sentinel in invalid ways,
      scanned at C speed by ``list.count`` / ``list.index``.  Measured
      under CPython this beats the big-int SWAR ops (a miss probe costs
      one C containment scan instead of a multi-word multiply chain),
      so the hot probes read this view; ``match`` keeps the SWAR form
      and the audit proves both views agree.

    Mutations are rare next to probes, so maintaining both views costs
    nothing measurable on the prediction path.

    A row's tag list is built on its first :meth:`set`; until then
    ``tags[row]`` is ``None`` and every reader takes the row as all
    EMPTY.  This is the decision :class:`~repro.structures.assoc.
    SetAssociativeTable` documents: a z15 BTB2 has 32K rows and short
    runs touch a few hundred, and building every row's list made a z15
    array predictor take 11.5 ms to construct instead of 0.76 ms
    (medians on a 2-vCPU x86-64 container; docs/INTERNALS.md §12).  A
    probe reads ``tags[row]`` only after the row's valid word is
    nonzero, and only :meth:`set` makes it nonzero, so the probes need
    no check.
    """

    __slots__ = (
        "rows", "ways", "tag_bits", "lane_bits",
        "_lsb", "_guard", "packed", "valid", "tags",
    )

    #: Sentinel stored in invalid ways of the tag-array view; real tags
    #: are XOR folds and therefore never negative.
    EMPTY = -1

    def __init__(self, rows: int, ways: int, tag_bits: int):
        self.rows = rows
        self.ways = ways
        self.tag_bits = tag_bits
        self.lane_bits = tag_bits + 1
        lsb = 0
        for way in range(ways):
            lsb |= 1 << (way * self.lane_bits)
        self._lsb = lsb
        self._guard = lsb << tag_bits
        #: One packed-tag int and one valid-guard-bit int per row.
        self.packed: List[int] = [0] * rows
        self.valid: List[int] = [0] * rows
        #: The C-scannable view: ``tags[row][way]`` is the tag or EMPTY,
        #: and ``tags[row]`` is None until the row's first ``set``.
        self.tags: List[Optional[List[int]]] = [None] * rows

    def set(self, row: int, way: int, tag: int) -> None:
        """Make *way* valid with *tag* (overwriting any previous lane)."""
        shift = way * self.lane_bits
        lane_mask = ((1 << self.tag_bits) - 1) << shift
        self.packed[row] = (self.packed[row] & ~lane_mask) | (tag << shift)
        self.valid[row] |= 1 << (shift + self.tag_bits)
        tags = self.tags[row]
        if tags is None:
            tags = self.tags[row] = [-1] * self.ways
        tags[way] = tag

    def clear_way(self, row: int, way: int) -> None:
        """Invalidate one lane (the packed tag bits may stay stale)."""
        self.valid[row] &= ~(1 << (way * self.lane_bits + self.tag_bits))
        tags = self.tags[row]
        if tags is not None:
            tags[way] = -1

    def clear_all(self) -> None:
        # In place: the mirror subclasses hold these lists for probes.
        self.valid[:] = [0] * self.rows
        self.tags[:] = [None] * self.rows

    def match(self, row: int, tag: int) -> int:
        """Guard-position bitmask of valid ways whose tag equals *tag*
        (the SWAR comparator over the packed view)."""
        valid = self.valid[row]
        if not valid:
            return 0
        diff = self.packed[row] ^ (tag * self._lsb)
        return ~((diff | self._guard) - self._lsb) & valid

    def match_ways(self, row: int, tag: int) -> List[int]:
        """Matching way indices in ascending order (object scan order)."""
        tags = self.tags[row]
        if tags is None:
            return []
        count = tags.count(tag)
        ways = []
        start = 0
        for _ in range(count):
            way = tags.index(tag, start)
            ways.append(way)
            start = way + 1
        return ways

    def way_tag(self, row: int, way: int) -> int:
        """The stored tag bits of one packed lane (valid or not)."""
        return (self.packed[row] >> (way * self.lane_bits)) & (
            (1 << self.tag_bits) - 1
        )

    def is_valid(self, row: int, way: int) -> bool:
        return bool(
            self.valid[row] >> (way * self.lane_bits + self.tag_bits) & 1
        )

    def valid_count(self) -> int:
        """Total valid lanes across every row."""
        total = 0
        for word in self.valid:
            total += bin(word).count("1")
        return total

    def view_violations(self, name: str) -> List[str]:
        """Cross-check the packed/SWAR view against the tag-array view.

        A row that was never built and has a zero valid word agrees by
        construction and is skipped, so a pass costs one cheap test per
        row plus the work on built rows.
        """
        violations = []
        empty = [-1] * self.ways
        valid = self.valid
        for row, tags in enumerate(self.tags):
            if tags is None:
                if not valid[row]:
                    continue
                tags = empty
            for way in range(self.ways):
                tag = tags[way]
                if tag < 0:
                    if self.is_valid(row, way):
                        violations.append(
                            f"{name} lanes[row={row},way={way}] valid in "
                            "packed view but empty in tag view"
                        )
                elif not self.is_valid(row, way):
                    violations.append(
                        f"{name} lanes[row={row},way={way}] valid in tag "
                        "view but not in packed view"
                    )
                elif self.way_tag(row, way) != tag:
                    violations.append(
                        f"{name} lanes[row={row},way={way}] packed tag "
                        f"{self.way_tag(row, way)} != tag view {tag}"
                    )
        return violations


def _location_row(corruption: Corruption) -> int:
    """Parse the row index out of a ``row=R,way=W`` corruption location."""
    return int(corruption.location.split(",", 1)[0].split("=", 1)[1])


class ArrayBtb1(Btb1):
    """BTB1 with a packed valid+tag mirror answering probes row-wide.

    The authoritative :class:`~repro.core.entries.BtbEntry` objects stay
    in the parent's table — the predictor trains their BHT/target fields
    in place, checkpoints iterate them — but every search first runs the
    SWAR comparator over the mirror, rejecting the common no-match row
    without touching a single entry object.  Every table mutation path
    (install / remove / invalidate / clear / corrupt) resynchronises the
    mirror, and :meth:`audit` proves it stayed coherent.
    """

    def __init__(self, config: Btb1Config):
        super().__init__(config)
        lanes = PackedLanes(config.rows, config.ways, config.tag_bits)
        self._lanes = lanes
        # Rebound locally by the probe: the valid word rejects an empty
        # row before the tag fold runs, and the tag-array view is
        # scanned at C speed by list.count/list.index.
        self._mirror_valid = lanes.valid
        self._mirror_tags = lanes.tags

    # -- mirror maintenance --------------------------------------------

    def _resync_row(self, row: int) -> None:
        lanes = self._lanes
        for way, entry in enumerate(self._table.row_ref(row)):
            if entry is None:
                lanes.clear_way(row, way)
            else:
                lanes.set(row, way, entry.tag)

    # -- probe path ----------------------------------------------------

    def search_line(
        self, line_base: int, context: int, min_offset: int = 0
    ) -> List[BtbHit]:
        line_shift = self._line_shift
        base = (line_base >> line_shift) << line_shift
        line_number = base >> line_shift
        row = line_number & self._row_mask
        self.searches += 1
        hits: List[BtbHit] = []
        if self._mirror_valid[row]:
            # The tag fold only matters when the row holds something.
            value = (line_number >> self._row_bits) ^ (context * 0x9E37)
            tag = 0
            tag_bits = self._tag_bits
            fold_mask = self._tag_fold_mask
            while value:
                tag ^= value & fold_mask
                value >>= tag_bits
            tags = self._mirror_tags[row]
            count = tags.count(tag)
            if count:
                entries = self._table.row_ref(row)
                start = 0
                for _ in range(count):
                    way = tags.index(tag, start)
                    start = way + 1
                    entry = entries[way]
                    if entry.offset >= min_offset:
                        hits.append(
                            BtbHit(row=row, way=way, entry=entry,
                                   line_base=base)
                        )
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

    # -- mutation paths ------------------------------------------------

    def install(self, address: int, context: int, entry) -> InstallResult:
        result = super().install(address, context, entry)
        if result.installed:
            self._lanes.set(result.row, result.way, entry.tag)
        return result

    def remove(self, hit: BtbHit) -> bool:
        removed = super().remove(hit)
        if removed:
            self._lanes.clear_way(hit.row, hit.way)
        return removed

    def invalidate_entry(self, row: int, way: int) -> None:
        super().invalidate_entry(row, way)
        self._lanes.clear_way(row, way)

    def clear(self) -> None:
        super().clear()
        self._lanes.clear_all()

    def corrupt(self, rng) -> Optional[Corruption]:
        corruption = super().corrupt(rng)
        if corruption is None:
            return None
        row = _location_row(corruption)
        # A tag flip (or any field, cheaply) must reach the mirror, and
        # the recovery action must clear the mirrored valid bit too.
        self._resync_row(row)
        inner = corruption.invalidate
        def _invalidate(inner=inner, resync=self._resync_row, row=row):
            inner()
            resync(row)
        corruption.invalidate = _invalidate
        return corruption

    # -- audit ---------------------------------------------------------

    def audit(self) -> List[str]:
        violations = super().audit()
        lanes = self._lanes
        mirrored = 0
        for row, way, entry in self._table:
            where = f"btb1[row={row},way={way}]"
            if not lanes.is_valid(row, way):
                violations.append(f"{where} live entry missing from mirror")
            elif lanes.way_tag(row, way) != entry.tag:
                violations.append(
                    f"{where} mirror tag {lanes.way_tag(row, way)} != "
                    f"entry tag {entry.tag}"
                )
            mirrored += 1
        stale = lanes.valid_count() - mirrored
        if stale:
            violations.append(
                f"btb1 mirror holds {stale} valid lane(s) with no entry"
            )
        violations.extend(lanes.view_violations("btb1"))
        return violations


class ArrayBtb2(Btb2System):
    """BTB2 with a packed valid+tag mirror over its 32K x 4 array.

    A BTB2 search sweeps ``transfer_lines`` (32) consecutive lines, and
    on a cold footprint almost every probed row is empty or tag-
    mismatched — exactly the case the SWAR mirror rejects in O(1).  The
    staging queue and every trigger/refresh behaviour come unchanged
    from the parent; only the row probe and the mutation paths are
    touched.
    """

    def __init__(self, config: Btb2Config, btb1: Btb1):
        super().__init__(config, btb1)
        self._lanes = PackedLanes(config.rows, config.ways, config.tag_bits)

    def _resync_row(self, row: int) -> None:
        lanes = self._lanes
        for way, entry in enumerate(self._table.row_ref(row)):
            if entry is None:
                lanes.clear_way(row, way)
            else:
                lanes.set(row, way, entry.tag)

    # -- probe path ----------------------------------------------------

    def search(self, address: int, context: int) -> int:
        self.searches += 1
        base = line_of(address, self.config.line_size)
        staged = 0
        mirror_valid = self._lanes.valid
        mirror_tags = self._lanes.tags
        table = self._table
        line_size = self.config.line_size
        row_of = self.row_of
        tag_of = self.tag_of
        for line_number in range(self.config.transfer_lines):
            line_base = base + line_number * line_size
            row = row_of(line_base)
            # Empty row: skip the tag fold entirely (the fold is pure).
            if not mirror_valid[row]:
                continue
            tags = mirror_tags[row]
            tag = tag_of(line_base, context)
            count = tags.count(tag)
            if not count:
                continue
            entries = table.row_ref(row)
            touch = table.policy(row).touch
            start = 0
            for _ in range(count):
                way = tags.index(tag, start)
                start = way + 1
                entry = entries[way]
                self.transfers_found += 1
                touch(way)
                transfer = StagedTransfer(
                    address=line_base + entry.offset, context=context,
                    entry=entry,
                )
                if self.staging.try_push(transfer):
                    staged += 1
                else:
                    self.staging_overflows += 1
        self.transfers_staged += staged
        return staged

    # -- mutation paths ------------------------------------------------

    def writeback_entry(self, entry) -> None:
        super().writeback_entry(entry)
        self._resync_row(self.row_of(entry.line_base + entry.offset))

    def install_snapshot(self, address: int, context: int, entry) -> None:
        super().install_snapshot(address, context, entry)
        self._resync_row(self.row_of(address))

    def invalidate_entry(self, row: int, way: int) -> None:
        super().invalidate_entry(row, way)
        self._lanes.clear_way(row, way)

    def clear(self) -> None:
        super().clear()
        self._lanes.clear_all()

    def corrupt(self, rng) -> Optional[Corruption]:
        corruption = super().corrupt(rng)
        if corruption is None:
            return None
        row = _location_row(corruption)
        self._resync_row(row)
        inner = corruption.invalidate
        def _invalidate(inner=inner, resync=self._resync_row, row=row):
            inner()
            resync(row)
        corruption.invalidate = _invalidate
        return corruption

    # -- audit ---------------------------------------------------------

    def audit(self) -> List[str]:
        violations = super().audit()
        lanes = self._lanes
        mirrored = 0
        for row, way, entry in self._table:
            where = f"btb2[row={row},way={way}]"
            if not lanes.is_valid(row, way):
                violations.append(f"{where} live entry missing from mirror")
            elif lanes.way_tag(row, way) != entry.tag:
                violations.append(
                    f"{where} mirror tag {lanes.way_tag(row, way)} != "
                    f"entry tag {entry.tag}"
                )
            mirrored += 1
        stale = lanes.valid_count() - mirrored
        if stale:
            violations.append(
                f"btb2 mirror holds {stale} valid lane(s) with no entry"
            )
        violations.extend(lanes.view_violations("btb2"))
        return violations


class _ArrayTageTable(_TageTable):
    """One tagged TAGE table with a packed valid+tag probe mirror."""

    def __init__(self, name: str, config: PhtConfig, history: int,
                 gpv_bits: int):
        super().__init__(name, config, history, gpv_bits)
        lanes = PackedLanes(config.rows, config.ways, config.tag_bits)
        self._lanes = lanes
        self._mirror_valid = lanes.valid
        self._mirror_tags = lanes.tags

    def _resync_row(self, row: int) -> None:
        lanes = self._lanes
        for way, entry in enumerate(self._table.row_ref(row)):
            if entry is None:
                lanes.clear_way(row, way)
            else:
                lanes.set(row, way, entry.tag)

    def lookup(self, address: int, gpv_snapshot: int) -> Optional[TableLookup]:
        history = gpv_snapshot & self._history_mask
        row_bits = self._row_bits
        row = 0
        if row_bits:
            value = (address >> 1) ^ (history * 0x5BD1) ^ (history >> row_bits)
            fold_mask = self._row_fold_mask
            while value:
                row ^= value & fold_mask
                value >>= row_bits
        if not self._mirror_valid[row]:
            # Empty row: no lane can match, the tag fold never matters.
            return None
        value = (address >> 3) ^ (history * 0xC2B2) ^ (address << 2)
        tag = 0
        tag_bits = self._tag_bits
        fold_mask = self._tag_fold_mask
        while value:
            tag ^= value & fold_mask
            value >>= tag_bits
        tags = self._mirror_tags[row]
        if tag not in tags:
            return None
        # First occurrence = lowest matching way, the object scan's pick.
        way = tags.index(tag)
        entry = self._table.row_ref(row)[way]
        self.hits += 1
        self._table.policy(row).touch(way)
        counter = entry.counter
        midpoint = (counter.maximum + 1) // 2
        value = counter.value
        return TableLookup(
            table=self.name, row=row, way=way, tag=tag, entry=entry,
            taken=value >= midpoint,
            weak=value in (midpoint - 1, midpoint),
        )

    def install(self, address: int, gpv_snapshot: int, taken: bool) -> bool:
        installed = super().install(address, gpv_snapshot, taken)
        if installed:
            self._resync_row(self.index_of(address, gpv_snapshot))
        return installed

    def corrupt(self, rng) -> Optional[Corruption]:
        corruption = super().corrupt(rng)
        if corruption is None:
            return None
        row = _location_row(corruption)
        self._resync_row(row)
        inner = corruption.invalidate
        def _invalidate(inner=inner, resync=self._resync_row, row=row):
            inner()
            resync(row)
        corruption.invalidate = _invalidate
        return corruption

    def audit(self) -> list:
        violations = super().audit()
        lanes = self._lanes
        mirrored = 0
        for row, way, entry in self._table:
            where = f"tage-{self.name}[row={row},way={way}]"
            if not lanes.is_valid(row, way):
                violations.append(f"{where} live entry missing from mirror")
            elif lanes.way_tag(row, way) != entry.tag:
                violations.append(
                    f"{where} mirror tag {lanes.way_tag(row, way)} != "
                    f"entry tag {entry.tag}"
                )
            mirrored += 1
        stale = lanes.valid_count() - mirrored
        if stale:
            violations.append(
                f"tage-{self.name} mirror holds {stale} valid lane(s) "
                "with no entry"
            )
        violations.extend(lanes.view_violations(f"tage-{self.name}"))
        return violations


class ArrayTagePht(TagePht):
    """The PHT subsystem built over :class:`_ArrayTageTable` tables."""

    table_class = _ArrayTageTable


class ArrayPerceptron(Perceptron):
    """The perceptron array over flat contiguous weight buffers.

    Storage is struct-of-arrays, one slot per ``(row, way)``: validity
    lives in a ``bytearray``, and the tag addresses, usefulness,
    protection, update-age counters and the weight/virtualisation-map
    matrices are flat buffers of ``slots`` (or ``slots * weight_count``)
    elements indexed by ``slot * weight_count + i`` — the memory layout
    a hardware weight SRAM would use.  The flat buffers are plain lists
    rather than ``array('i')``: under CPython an ``array`` read boxes a
    fresh int per access, which measurably loses to list indexing in the
    fused predict+train loops.  numpy (when present) materialises the
    matrices as ``(slots, weight_count)`` snapshots for bulk audits.
    All behaviour (fused predict+train, usefulness rules, protected
    replacement, 2:1 virtualisation, corruption) matches the object
    model bit for bit.
    """

    def __init__(self, config: PerceptronConfig, gpv_width: int):
        super().__init__(config, gpv_width)
        # The parent's object rows stay empty; all state lives here.
        self._rows = []
        slots = config.rows * config.ways
        self._slots = slots
        self._weight_count = config.weight_count
        self._valid = bytearray(slots)
        self._addresses = [0] * slots
        self._slot_usefulness = [0] * slots
        self._protection = [0] * slots
        self._updates_seen = [0] * slots
        self._weights = [0] * (slots * config.weight_count)
        self._mapping = [0] * (slots * config.weight_count)
        #: Bumped on every (re)install so corruption-recovery closures
        #: can tell "same slot, different occupant" apart.
        self._slot_generation = [0] * slots
        self._zero_weights = [0] * config.weight_count
        self._fresh_mapping = list(self._initial_mapping())

    # -- numpy bulk views (snapshots; None without numpy) --------------

    def weights_view(self):
        """``(slots, weight_count)`` int snapshot of the weight matrix."""
        if _np is None:
            return None
        return _np.asarray(self._weights, dtype=_np.intc).reshape(
            self._slots, self._weight_count
        )

    def mapping_view(self):
        """``(slots, weight_count)`` int snapshot of the virtualisation
        map."""
        if _np is None:
            return None
        return _np.asarray(self._mapping, dtype=_np.intc).reshape(
            self._slots, self._weight_count
        )

    # -- prediction ----------------------------------------------------

    def lookup(self, address: int, gpv) -> PerceptronLookup:
        if not self.enabled:
            return PerceptronLookup(hit=False)
        self.lookups += 1
        row = self._row_fold(address >> 1) % self.config.rows
        gpv_bits = gpv.snapshot()
        ways = self.config.ways
        base = row * ways
        valid = self._valid
        addresses = self._addresses
        for way in range(ways):
            slot = base + way
            if valid[slot] and addresses[slot] == address:
                self.hits += 1
                useful = (
                    self._slot_usefulness[slot]
                    >= self.config.provider_threshold
                )
                if useful:
                    self.provider_hits += 1
                weights = self._weights
                mapping = self._mapping
                start = slot * self._weight_count
                total = 0
                for index in range(start, start + self._weight_count):
                    if (gpv_bits >> mapping[index]) & 1:
                        total += weights[index]
                    else:
                        total -= weights[index]
                return PerceptronLookup(
                    hit=True,
                    row=row,
                    way=way,
                    address=address,
                    taken=total >= 0,
                    useful=useful,
                    gpv_bits=gpv_bits,
                )
        return PerceptronLookup(hit=False, row=row, gpv_bits=gpv_bits)

    # -- training ------------------------------------------------------

    def update(self, lookup: PerceptronLookup, actual_taken: bool,
               alternate_taken: Optional[bool]) -> None:
        if not self.enabled or not lookup.hit:
            return
        slot = lookup.row * self.config.ways + lookup.way
        if not self._valid[slot] or self._addresses[slot] != lookup.address:
            return
        gpv_value = lookup.gpv_bits
        limit = self.config.weight_limit
        floor = -limit
        weights = self._weights
        mapping = self._mapping
        start = slot * self._weight_count
        total = 0
        for index in range(start, start + self._weight_count):
            weight = weights[index]
            if (gpv_value >> mapping[index]) & 1:
                total += weight
                strengthen = actual_taken
            else:
                total -= weight
                strengthen = not actual_taken
            if strengthen:
                if weight < limit:
                    weights[index] = weight + 1
            elif weight > floor:
                weights[index] = weight - 1
        perceptron_taken = total >= 0
        self._updates_seen[slot] += 1
        perceptron_correct = perceptron_taken == actual_taken
        if alternate_taken is not None:
            alternate_correct = alternate_taken == actual_taken
            usefulness = self._slot_usefulness[slot]
            if perceptron_correct and not alternate_correct:
                self._slot_usefulness[slot] = min(
                    usefulness + 1, (1 << self.config.usefulness_bits) - 1
                )
            elif not perceptron_correct and alternate_correct:
                self._slot_usefulness[slot] = max(usefulness - 1, 0)
            elif (
                not perceptron_correct
                and not alternate_correct
                and usefulness < self.config.learning_threshold
            ):
                self._slot_usefulness[slot] = usefulness + 1
        self._maybe_virtualize_slot(slot)

    def _maybe_virtualize_slot(self, slot: int) -> None:
        if self._updates_seen[slot] < self.config.virtualization_age:
            return
        threshold = self.config.virtualization_threshold
        gpv_width = self.gpv_width
        weights = self._weights
        mapping = self._mapping
        start = slot * self._weight_count
        for index in range(start, start + self._weight_count):
            if -threshold <= weights[index] <= threshold:
                mapping[index] = (mapping[index] + 1) % gpv_width
                weights[index] = 0
                self.virtualizations += 1
        self._updates_seen[slot] = 0

    # -- replacement ---------------------------------------------------

    def install(self, address: int) -> bool:
        if not self.enabled:
            return False
        row = self.row_of(address)
        ways = self.config.ways
        base = row * ways
        valid = self._valid
        addresses = self._addresses
        for way in range(ways):
            slot = base + way
            if valid[slot] and addresses[slot] == address:
                return False  # already present
        for way in range(ways):
            slot = base + way
            if not valid[slot]:
                self._write_fresh(slot, address)
                self.installs += 1
                return True
        replaceable = [
            (self._slot_usefulness[base + way], way)
            for way in range(ways)
            if self._protection[base + way] == 0
        ]
        if replaceable:
            _, way = min(replaceable)
            self._write_fresh(base + way, address)
            self.installs += 1
            return True
        protection = self._protection
        for way in range(ways):
            protection[base + way] -= 1
        self.install_rejects += 1
        return False

    def _write_fresh(self, slot: int, address: int) -> None:
        self._valid[slot] = 1
        self._addresses[slot] = address
        self._slot_usefulness[slot] = 0
        self._protection[slot] = self.config.protection_limit
        self._updates_seen[slot] = 0
        start = slot * self._weight_count
        end = start + self._weight_count
        self._weights[start:end] = self._zero_weights
        self._mapping[start:end] = self._fresh_mapping
        self._slot_generation[slot] += 1

    # -- introspection -------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(self._valid)

    # -- fault-injection & audit hooks ---------------------------------

    def corrupt(self, rng) -> Optional[Corruption]:
        ways = self.config.ways
        victims = [
            (slot // ways, slot % ways, slot)
            for slot in range(self._slots)
            if self._valid[slot]
        ]
        if not victims:
            return None
        row, way, slot = rng.choice(victims)
        field = rng.choice(("weight", "usefulness", "mapping"))
        limit = self.config.weight_limit
        count = self._weight_count
        if field == "weight":
            index = rng.randint(0, count - 1)
            flat = slot * count + index
            old = self._weights[flat]
            new = rng.randint(-limit, limit)
            if new == old:
                new = -old if old != 0 else limit
            self._weights[flat] = new
            bits = flipped_bits(old + limit, new + limit)
            field = f"weight[{index}]"
        elif field == "usefulness":
            maximum = (1 << self.config.usefulness_bits) - 1
            old = self._slot_usefulness[slot]
            self._slot_usefulness[slot] = old ^ rng.randint(1, maximum)
            bits = flipped_bits(old, self._slot_usefulness[slot])
        else:
            index = rng.randint(0, count - 1)
            flat = slot * count + index
            old = self._mapping[flat]
            new = rng.randint(0, self.gpv_width - 1)
            if new == old:
                new = self._alternate_bit(index, old)
            self._mapping[flat] = new
            bits = max(1, flipped_bits(old, new))
            field = f"mapping[{index}]"
        generation = self._slot_generation[slot]

        def _invalidate(self=self, slot=slot, generation=generation):
            if self._valid[slot] and self._slot_generation[slot] == generation:
                self._valid[slot] = 0

        return Corruption(
            component="perceptron",
            location=f"row={row},way={way}",
            field=field,
            bits_flipped=bits,
            invalidate=_invalidate,
        )

    def audit(self) -> List[str]:
        limit = self.config.weight_limit
        usefulness_max = (1 << self.config.usefulness_bits) - 1
        if _np is not None:
            # Whole-matrix screen first: when every buffer is in range —
            # the overwhelmingly common case — no per-slot Python loop
            # runs at all.  Invalid slots hold stale-but-legal values
            # (nothing mutates them), so a clean full-buffer screen
            # proves the valid slots clean too.
            weights = self.weights_view()
            mapping = self.mapping_view()
            usefulness = _np.asarray(self._slot_usefulness, dtype=_np.intc)
            protection = _np.asarray(self._protection, dtype=_np.intc)
            clean = (
                bool((_np.abs(weights) <= limit).all())
                and bool((mapping >= 0).all())
                and bool((mapping < self.gpv_width).all())
                and bool((usefulness >= 0).all())
                and bool((usefulness <= usefulness_max).all())
                and bool((protection >= 0).all())
            )
            if clean:
                return []
        violations: List[str] = []
        count = self._weight_count
        ways = self.config.ways
        for slot in range(self._slots):
            if not self._valid[slot]:
                continue
            where = f"perceptron[row={slot // ways},way={slot % ways}]"
            start = slot * count
            for index in range(count):
                weight = self._weights[start + index]
                if not -limit <= weight <= limit:
                    violations.append(
                        f"{where} weight[{index}] {weight} outside "
                        f"[-{limit}, {limit}]"
                    )
                bit_index = self._mapping[start + index]
                if not 0 <= bit_index < self.gpv_width:
                    violations.append(
                        f"{where} mapping[{index}] {bit_index} outside "
                        f"the {self.gpv_width}-bit GPV"
                    )
            if not 0 <= self._slot_usefulness[slot] <= usefulness_max:
                violations.append(
                    f"{where} usefulness {self._slot_usefulness[slot]} "
                    f"outside [0, {usefulness_max}]"
                )
            if self._protection[slot] < 0:
                violations.append(
                    f"{where} protection {self._protection[slot]} negative"
                )
        return violations
