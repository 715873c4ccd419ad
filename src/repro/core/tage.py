"""The TAGE-style pattern history tables (section V).

z15 employs two tagged PHT tables — *short* indexed with the most recent
9 GPV branches and *long* with all 17 — "a variation of the TAGE
algorithm" (Seznec's L-TAGE, the paper's [8]).  Earlier generations
(z196..z14) used a single tagged PHT; that is modelled by constructing
:class:`TagePht` with ``config.tage=False``.

Key behaviours reproduced:

* entries carry a direction counter and a usefulness count; an entry can
  only be displaced when its usefulness is 0;
* new installs happen when a predicted branch resolves with a wrong
  direction; the table whose victim has usefulness 0 is chosen, a 2:1
  preference for the short table breaking ties; a short-table
  misprediction attempts a long-table install;
* usefulness moves up when the TAGE prediction beat the alternate
  predictor and down when it lost to it;
* *weak filtering*: a weak TAGE hit only provides the prediction while a
  global weak-prediction counter sits above a threshold, and a weak long
  hit defers to a strong short hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.bits import bit_folder, mask
from repro.common.corruption import Corruption, flipped_bits
from repro.common.slots import add_slots
from repro.configs.predictor import PhtConfig
from repro.core.gpv import GlobalPathVector
from repro.structures.assoc import SetAssociativeTable
from repro.structures.saturating import SaturatingCounter

SHORT = "short"
LONG = "long"


@add_slots
@dataclass
class TageEntry:
    """One tagged-PHT entry."""

    tag: int
    counter: SaturatingCounter
    usefulness: SaturatingCounter

    @property
    def taken(self) -> bool:
        return self.counter.value >= (self.counter.maximum + 1) // 2

    @property
    def weak(self) -> bool:
        """True in the two central counter states."""
        midpoint = (self.counter.maximum + 1) // 2
        return self.counter.value in (midpoint - 1, midpoint)

    def update_direction(self, taken: bool) -> None:
        if taken:
            self.counter.increment()
        else:
            self.counter.decrement()


@add_slots
@dataclass
class TableLookup:
    """Result of probing one table for one branch."""

    table: str
    row: int
    way: int
    tag: int
    entry: TageEntry
    #: Direction/strength captured at probe time.  Plain fields, not
    #: entry properties: the selection chain re-reads them several
    #: times per branch, and nothing trains the entry between the probe
    #: and selection (updates happen at completion time).
    taken: bool = False
    weak: bool = False


@add_slots
@dataclass
class TageLookup:
    """Combined two-table lookup plus provider selection outcome."""

    short_hit: Optional[TableLookup] = None
    long_hit: Optional[TableLookup] = None
    #: Which table provides the direction (SHORT/LONG), or None when the
    #: prediction falls through to the BHT.
    provider: Optional[str] = None
    provider_taken: Optional[bool] = None
    provider_weak: bool = False
    #: True when a weak hit existed but filtering suppressed it.
    weak_filtered: bool = False

    def hit_for(self, table: str) -> Optional[TableLookup]:
        return self.short_hit if table == SHORT else self.long_hit

    @property
    def provider_hit(self) -> Optional[TableLookup]:
        if self.provider is None:
            return None
        return self.hit_for(self.provider)


class _TageTable:
    """One physical tagged table (rows x ways)."""

    def __init__(self, name: str, config: PhtConfig, history: int, gpv_bits: int):
        self.name = name
        self.config = config
        self.history = history
        self._gpv_bits_per_branch = gpv_bits
        self._row_bits = config.rows.bit_length() - 1
        # Index/tag constants, bound once per table.
        self._history_mask = mask(history * gpv_bits)
        self._index_fold = (
            bit_folder(self._row_bits) if self._row_bits > 0 else None
        )
        self._tag_fold = bit_folder(config.tag_bits)
        # Fold constants for the fully-inlined lookup() XOR loops.
        self._row_fold_mask = mask(self._row_bits)
        self._tag_bits = config.tag_bits
        self._tag_fold_mask = mask(config.tag_bits)
        self._table: SetAssociativeTable[TageEntry] = SetAssociativeTable(
            rows=config.rows, ways=config.ways, policy="lru"
        )
        self.hits = 0
        self.installs = 0
        self.install_failures = 0

    def _history_value(self, gpv_snapshot: int) -> int:
        return gpv_snapshot & self._history_mask

    def index_of(self, address: int, gpv_snapshot: int) -> int:
        if self._index_fold is None:
            return 0
        history = gpv_snapshot & self._history_mask
        mixed = (address >> 1) ^ (history * 0x5BD1) ^ (history >> self._row_bits)
        return self._index_fold(mixed)

    def tag_of(self, address: int, gpv_snapshot: int) -> int:
        history = gpv_snapshot & self._history_mask
        mixed = (address >> 3) ^ (history * 0xC2B2) ^ (address << 2)
        return self._tag_fold(mixed)

    def lookup(self, address: int, gpv_snapshot: int) -> Optional[TableLookup]:
        # Hot path: index_of/tag_of inlined down to the XOR-fold loops
        # (shared history extraction, no wrapper or fold-closure calls),
        # and the live row scanned directly instead of building a
        # per-call match closure for find().  A read builds no row.
        history = gpv_snapshot & self._history_mask
        row_bits = self._row_bits
        row = 0
        if row_bits:
            value = (address >> 1) ^ (history * 0x5BD1) ^ (history >> row_bits)
            fold_mask = self._row_fold_mask
            while value:
                row ^= value & fold_mask
                value >>= row_bits
        value = (address >> 3) ^ (history * 0xC2B2) ^ (address << 2)
        tag = 0
        tag_bits = self._tag_bits
        fold_mask = self._tag_fold_mask
        while value:
            tag ^= value & fold_mask
            value >>= tag_bits
        data = self._table._data[row]
        if data is None:
            return None
        for way, entry in enumerate(data):
            if entry is not None and entry.tag == tag:
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
        return None

    def can_install(self, address: int, gpv_snapshot: int) -> bool:
        """True when the indexed row holds an empty or usefulness-0 way."""
        row = self.index_of(address, gpv_snapshot)
        for entry in self._table.row_entries(row):
            if entry is None or entry.usefulness.value == 0:
                return True
        return False

    def install(self, address: int, gpv_snapshot: int, taken: bool) -> bool:
        """Attempt an install; only usefulness-0 victims may be displaced.

        On failure every usefulness count in the row is decremented
        (L-TAGE-style aging; assumption, prevents permanent lockout).
        """
        row = self.index_of(address, gpv_snapshot)
        tag = self.tag_of(address, gpv_snapshot)
        midpoint = (1 << self.config.counter_bits) // 2
        new_entry = TageEntry(
            tag=tag,
            counter=SaturatingCounter(
                self.config.counter_bits,
                value=midpoint if taken else midpoint - 1,
            ),
            usefulness=SaturatingCounter(self.config.usefulness_bits, value=0),
        )
        entries = self._table.row_entries(row)
        victim_way: Optional[int] = None
        for way, entry in enumerate(entries):
            if entry is None:
                victim_way = way
                break
            if entry.usefulness.value == 0 and victim_way is None:
                victim_way = way
        if victim_way is None:
            for entry in entries:
                assert entry is not None
                entry.usefulness.decrement()
            self.install_failures += 1
            return False
        self._table.write(row, victim_way, new_entry)
        self.installs += 1
        return True

    def entry_at(self, row: int, way: int, tag: int) -> Optional[TageEntry]:
        """Re-find an entry at update time; None if it was displaced."""
        entry = self._table.read(row, way)
        if entry is None or entry.tag != tag:
            return None
        return entry

    @property
    def occupancy(self) -> int:
        return self._table.occupancy()

    # -- fault-injection & audit hooks (repro.resilience) --------------

    def corrupt(self, rng) -> Optional[Corruption]:
        """Flip bits in one live entry, keeping every field in range."""
        victims = [(row, way, entry) for row, way, entry in self._table]
        if not victims:
            return None
        row, way, entry = rng.choice(victims)
        field = rng.choice(("counter", "usefulness", "tag"))
        if field == "counter":
            old = entry.counter.value
            entry.counter.value = old ^ rng.randint(1, entry.counter.maximum)
            bits = flipped_bits(old, entry.counter.value)
        elif field == "usefulness":
            old = entry.usefulness.value
            entry.usefulness.value = old ^ rng.randint(1, entry.usefulness.maximum)
            bits = flipped_bits(old, entry.usefulness.value)
        else:
            entry.tag ^= 1 << rng.randint(0, self._tag_bits - 1)
            bits = 1

        def _invalidate(table=self._table, row=row, way=way, entry=entry):
            if table.read(row, way) is entry:
                table.invalidate(row, way)

        return Corruption(
            component=f"tage-{self.name}",
            location=f"row={row},way={way}",
            field=field,
            bits_flipped=bits,
            invalidate=_invalidate,
        )

    def audit(self) -> list:
        """Structural-invariant check; returns violation strings."""
        violations = []
        if not 0 <= self.occupancy <= self._table.capacity:
            violations.append(
                f"tage-{self.name} occupancy {self.occupancy} outside "
                f"[0, {self._table.capacity}]"
            )
        for row, way, entry in self._table:
            where = f"tage-{self.name}[row={row},way={way}]"
            if not 0 <= entry.counter.value <= entry.counter.maximum:
                violations.append(
                    f"{where} counter {entry.counter.value} outside "
                    f"[0, {entry.counter.maximum}]"
                )
            if not 0 <= entry.usefulness.value <= entry.usefulness.maximum:
                violations.append(
                    f"{where} usefulness {entry.usefulness.value} outside "
                    f"[0, {entry.usefulness.maximum}]"
                )
            if not 0 <= entry.tag <= self._tag_fold_mask:
                violations.append(f"{where} tag {entry.tag} wider than the fold mask")
        return violations


class TagePht:
    """The complete PHT subsystem: one or two tagged tables."""

    #: Physical-table implementation; the array backend substitutes its
    #: mirror-accelerated twin (:class:`repro.structures.arrays.
    #: _ArrayTageTable`) through this seam.
    table_class = _TageTable

    def __init__(self, config: PhtConfig, gpv_bits_per_branch: int = 2):
        config.validate()
        self.config = config
        table_class = self.table_class
        self.short_table = table_class(
            SHORT, config, config.short_history, gpv_bits_per_branch
        )
        self.long_table: Optional[_TageTable] = (
            table_class(LONG, config, config.long_history, gpv_bits_per_branch)
            if config.tage
            else None
        )
        # Global weak-prediction confidence counters, one per table.
        weak_max = (1 << config.weak_counter_bits) - 1
        initial = min(config.weak_threshold + 1, weak_max)
        self._weak_confidence = {
            SHORT: SaturatingCounter(config.weak_counter_bits, value=initial),
            LONG: SaturatingCounter(config.weak_counter_bits, value=initial),
        }
        # 2:1 short-over-long install preference rotation (paper).
        self._install_rotation = 0
        self.lookups = 0
        self.provider_selections = 0
        self.weak_filter_suppressions = 0

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def weak_allowed(self, table: str) -> bool:
        return self._weak_confidence[table].value > self.config.weak_threshold

    def lookup(self, address: int, gpv: GlobalPathVector) -> TageLookup:
        """Probe the tables and run provider selection (figure 8's PHT leg)."""
        self.lookups += 1
        snapshot = gpv.snapshot()
        result = TageLookup()
        result.short_hit = self.short_table.lookup(address, snapshot)
        if self.long_table is not None:
            result.long_hit = self.long_table.lookup(address, snapshot)
        self._select_provider(result)
        if result.provider is not None:
            self.provider_selections += 1
        return result

    def _select_provider(self, result: TageLookup) -> None:
        """Longest-history-first with weak filtering (section V)."""
        long_hit = result.long_hit
        short_hit = result.short_hit
        if long_hit is not None:
            if not long_hit.weak:
                self._use(result, long_hit)
                return
            # Long is weak: a strong short hit is preferred outright.
            if short_hit is not None and not short_hit.weak:
                self._use(result, short_hit)
                return
            if self.weak_allowed(LONG):
                self._use(result, long_hit)
                return
            result.weak_filtered = True
            self.weak_filter_suppressions += 1
            if short_hit is not None and self.weak_allowed(SHORT):
                self._use(result, short_hit)
                return
            return
        if short_hit is not None:
            if not short_hit.weak:
                self._use(result, short_hit)
                return
            if self.config.tage and not self.weak_allowed(SHORT):
                result.weak_filtered = True
                self.weak_filter_suppressions += 1
                return
            self._use(result, short_hit)

    @staticmethod
    def _use(result: TageLookup, hit: TableLookup) -> None:
        result.provider = hit.table
        result.provider_taken = hit.taken
        result.provider_weak = hit.weak

    # ------------------------------------------------------------------
    # Update (completion time)
    # ------------------------------------------------------------------

    def update(
        self,
        lookup: "TageLookupSnapshot",
        actual_taken: bool,
        alternate_taken: Optional[bool],
    ) -> None:
        """Apply the completion-time update for a TAGE-provided prediction.

        *lookup* is the prediction-time snapshot (table/row/way/tag plus
        recorded directions); *alternate_taken* is what the alternate
        provider would have predicted (stored in the GPQ, section V).
        """
        provider_entry = None
        if lookup.provider is not None:
            table = self._table_by_name(lookup.provider)
            provider_entry = table.entry_at(
                lookup.provider_row, lookup.provider_way, lookup.provider_tag
            )
        if provider_entry is not None:
            provider_correct = provider_entry.taken == actual_taken
            provider_entry.update_direction(actual_taken)
            if alternate_taken is not None:
                alternate_correct = alternate_taken == actual_taken
                if provider_correct and not alternate_correct:
                    provider_entry.usefulness.increment()
                elif not provider_correct and alternate_correct:
                    provider_entry.usefulness.decrement()
        # Weak-confidence bookkeeping for any weak hit seen at prediction.
        for table_name, taken, weak in lookup.weak_observations:
            if weak:
                if taken == actual_taken:
                    self._weak_confidence[table_name].increment()
                else:
                    self._weak_confidence[table_name].decrement()

    def install_on_mispredict(
        self,
        address: int,
        gpv_snapshot: int,
        actual_taken: bool,
        mispredicting_provider: Optional[str],
    ) -> Optional[str]:
        """Allocate after a wrong-direction resolution (section V).

        Returns the table installed into, or None.  A short-table
        misprediction escalates to the long table; other mispredictions
        pick the usefulness-0 table, favouring short 2:1 on ties.
        """
        if self.long_table is None:
            installed = self.short_table.install(address, gpv_snapshot, actual_taken)
            return SHORT if installed else None
        if mispredicting_provider == SHORT:
            installed = self.long_table.install(address, gpv_snapshot, actual_taken)
            return LONG if installed else None
        if mispredicting_provider == LONG:
            # The longest history already failed; refresh its direction
            # via update() — no new allocation target exists.
            return None
        short_ok = self.short_table.can_install(address, gpv_snapshot)
        long_ok = self.long_table.can_install(address, gpv_snapshot)
        if short_ok and long_ok:
            # 2:1 rotation favouring the short table.
            self._install_rotation = (self._install_rotation + 1) % 3
            choice = LONG if self._install_rotation == 0 else SHORT
        elif short_ok:
            choice = SHORT
        elif long_ok:
            choice = LONG
        else:
            # Neither has a usefulness-0 victim: age both rows.
            self.short_table.install(address, gpv_snapshot, actual_taken)
            self.long_table.install(address, gpv_snapshot, actual_taken)
            return None
        table = self._table_by_name(choice)
        installed = table.install(address, gpv_snapshot, actual_taken)
        return choice if installed else None

    def _table_by_name(self, name: str) -> _TageTable:
        if name == SHORT:
            return self.short_table
        if name == LONG and self.long_table is not None:
            return self.long_table
        raise ValueError(f"unknown TAGE table {name!r}")

    # ------------------------------------------------------------------
    # Fault-injection & audit hooks (repro.resilience)
    # ------------------------------------------------------------------

    def corrupt(self, rng) -> Optional[Corruption]:
        """Corrupt one entry in one of the tagged tables."""
        tables = [self.short_table]
        if self.long_table is not None:
            tables.append(self.long_table)
        first = rng.choice(tables)
        corruption = first.corrupt(rng)
        if corruption is not None:
            return corruption
        for table in tables:
            if table is not first:
                corruption = table.corrupt(rng)
                if corruption is not None:
                    return corruption
        return None

    def audit(self) -> list:
        """Structural-invariant check across both tables."""
        violations = list(self.short_table.audit())
        if self.long_table is not None:
            violations.extend(self.long_table.audit())
        for name, counter in self._weak_confidence.items():
            if not 0 <= counter.value <= counter.maximum:
                violations.append(
                    f"tage weak-confidence[{name}] {counter.value} outside "
                    f"[0, {counter.maximum}]"
                )
        return violations

    def component_counters(self) -> dict:
        """Native statistics, harvested by the telemetry layer."""
        counters = {
            "lookups": self.lookups,
            "provider_selections": self.provider_selections,
            "weak_filter_suppressions": self.weak_filter_suppressions,
            "short_hits": self.short_table.hits,
            "short_installs": self.short_table.installs,
            "short_install_failures": self.short_table.install_failures,
        }
        if self.long_table is not None:
            counters["long_hits"] = self.long_table.hits
            counters["long_installs"] = self.long_table.installs
            counters["long_install_failures"] = self.long_table.install_failures
        return counters


@add_slots
@dataclass
class TageLookupSnapshot:
    """What the GPQ stores about a TAGE lookup for completion-time update."""

    provider: Optional[str] = None
    provider_row: int = 0
    provider_way: int = 0
    provider_tag: int = 0
    provider_taken: Optional[bool] = None
    provider_weak: bool = False
    #: (table_name, predicted_taken, was_weak) per table that hit.
    weak_observations: tuple = field(default_factory=tuple)

    @classmethod
    def from_lookup(cls, lookup: TageLookup) -> "TageLookupSnapshot":
        observations = []
        for hit in (lookup.short_hit, lookup.long_hit):
            if hit is not None:
                observations.append((hit.table, hit.taken, hit.weak))
        snapshot = cls(weak_observations=tuple(observations))
        provider_hit = lookup.provider_hit
        if provider_hit is not None:
            snapshot.provider = provider_hit.table
            snapshot.provider_row = provider_hit.row
            snapshot.provider_way = provider_hit.way
            snapshot.provider_tag = provider_hit.tag
            snapshot.provider_taken = provider_hit.taken
            snapshot.provider_weak = provider_hit.weak
        return snapshot
