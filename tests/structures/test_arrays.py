"""Unit tests for the array-backed structures in ``repro.structures.arrays``.

Two obligations per structure: *twin equivalence* — driven with the same
operation stream as its object twin it must make identical decisions and
count identical statistics — and the *resilience contract* — ``corrupt()``
keeps every field legal-but-wrong (and keeps the probe mirror coherent),
``audit()`` proves the mirror, and the returned recovery action repairs
both views.

The :class:`PackedLanes` dual view gets its own battery: the SWAR
comparator over the packed-int view and the C-scanned tag-array view
must always name the same ways, and ``view_violations`` must catch any
seeded desynchronisation.
"""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import GENERATIONS
from repro.configs.predictor import (
    Btb1Config,
    Btb2Config,
    PerceptronConfig,
    PhtConfig,
)
from repro.core.btb1 import Btb1
from repro.core.btb2 import Btb2System
from repro.core.entries import BtbEntry
from repro.core.gpv import GlobalPathVector
from repro.core.perceptron import Perceptron
from repro.core.tage import TagePht
from repro.engine.array import create_predictor
from repro.engine.functional import FunctionalEngine
from repro.isa.instructions import BranchKind
from repro.resilience import FaultInjector, FaultPlan
from repro.structures.arrays import (
    ArrayBtb1,
    ArrayBtb2,
    ArrayPerceptron,
    ArrayTagePht,
    PackedLanes,
    _ArrayTageTable,
)
from repro.workloads import get_workload

SEED = 20260808


def _btb1_config():
    return Btb1Config(rows=16, ways=4, tag_bits=6, policy="lru")


def _btb2_config():
    return Btb2Config(
        rows=64, ways=2, tag_bits=6, policy="lru",
        transfer_lines=4, staging_capacity=8,
    )


def _pht_config():
    return PhtConfig(rows=32, ways=2, tag_bits=6)


def _perceptron_config():
    return PerceptronConfig(rows=4, ways=2, weight_count=8,
                            virtualization_age=4)


def _entry(kind=BranchKind.CONDITIONAL_RELATIVE, target=0x500):
    # install() overwrites tag/offset from the install address.
    return BtbEntry(tag=0, offset=0, length=4, kind=kind, target=target)


# ======================================================================
# PackedLanes
# ======================================================================


def _mask_to_ways(lanes, mask):
    """Decode the SWAR guard-position bitmask into way indices."""
    return [
        way for way in range(lanes.ways)
        if mask >> (way * lanes.lane_bits + lanes.tag_bits) & 1
    ]


class TestPackedLanes:
    def test_set_then_match(self):
        lanes = PackedLanes(rows=4, ways=4, tag_bits=6)
        lanes.set(1, 0, 0x2A)
        lanes.set(1, 2, 0x15)
        assert _mask_to_ways(lanes, lanes.match(1, 0x2A)) == [0]
        assert _mask_to_ways(lanes, lanes.match(1, 0x15)) == [2]
        assert lanes.match(1, 0x3F) == 0
        assert lanes.match(0, 0x2A) == 0  # other rows untouched
        assert lanes.match_ways(1, 0x2A) == [0]
        assert lanes.way_tag(1, 2) == 0x15
        assert lanes.is_valid(1, 0) and not lanes.is_valid(1, 1)
        assert lanes.valid_count() == 2

    def test_duplicate_tags_match_every_way_in_order(self):
        lanes = PackedLanes(rows=2, ways=4, tag_bits=6)
        for way in (3, 0, 2):
            lanes.set(0, way, 0x11)
        assert lanes.match_ways(0, 0x11) == [0, 2, 3]
        assert _mask_to_ways(lanes, lanes.match(0, 0x11)) == [0, 2, 3]

    def test_zero_tag_matches_only_valid_ways(self):
        # Tag 0 is a legal fold value; empty lanes must not alias it.
        lanes = PackedLanes(rows=2, ways=4, tag_bits=6)
        assert lanes.match(0, 0) == 0
        assert lanes.match_ways(0, 0) == []
        lanes.set(0, 1, 0)
        assert lanes.match_ways(0, 0) == [1]
        assert _mask_to_ways(lanes, lanes.match(0, 0)) == [1]

    def test_clear_way_and_clear_all(self):
        lanes = PackedLanes(rows=2, ways=2, tag_bits=6)
        lanes.set(0, 0, 5)
        lanes.set(1, 1, 9)
        lanes.clear_way(0, 0)
        assert lanes.match(0, 5) == 0
        assert lanes.match_ways(0, 5) == []
        assert lanes.valid_count() == 1
        lanes.clear_all()
        assert lanes.valid_count() == 0
        assert lanes.match(1, 9) == 0
        assert lanes.view_violations("t") == []

    def test_overwrite_replaces_lane(self):
        lanes = PackedLanes(rows=1, ways=2, tag_bits=6)
        lanes.set(0, 0, 0x3F)
        lanes.set(0, 0, 0x01)
        assert lanes.match_ways(0, 0x3F) == []
        assert lanes.match_ways(0, 0x01) == [0]
        assert lanes.view_violations("t") == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_views_always_agree(self, data):
        """Property: after any op sequence, the SWAR comparator, the tag
        scan and a brute-force reference all name the same ways."""
        rows, ways, tag_bits = 4, 3, 5
        lanes = PackedLanes(rows=rows, ways=ways, tag_bits=tag_bits)
        reference = [[None] * ways for _ in range(rows)]
        ops = data.draw(st.lists(st.tuples(
            st.sampled_from(["set", "clear"]),
            st.integers(0, rows - 1),
            st.integers(0, ways - 1),
            st.integers(0, (1 << tag_bits) - 1),
        ), max_size=40))
        for op, row, way, tag in ops:
            if op == "set":
                lanes.set(row, way, tag)
                reference[row][way] = tag
            else:
                lanes.clear_way(row, way)
                reference[row][way] = None
        assert lanes.view_violations("prop") == []
        for row in range(rows):
            for tag in {t for t in reference[row] if t is not None} | {0}:
                expected = [
                    way for way in range(ways) if reference[row][way] == tag
                ]
                assert lanes.match_ways(row, tag) == expected
                assert _mask_to_ways(lanes, lanes.match(row, tag)) == expected
        assert lanes.valid_count() == sum(
            tag is not None for row in reference for tag in row
        )

    def test_view_violations_catches_desync(self):
        lanes = PackedLanes(rows=2, ways=2, tag_bits=6)
        lanes.set(0, 0, 7)
        # Seed all three desync shapes directly into the views.
        lanes.tags[0][0] = 9                     # packed tag != tag view
        lanes.tags[1] = [-1, 3]                  # tag view valid, packed not
        lanes.valid[1] |= 1 << (0 * lanes.lane_bits + lanes.tag_bits)
        violations = lanes.view_violations("x")
        assert len(violations) == 3
        assert any("packed tag" in v for v in violations)
        assert any("empty in tag view" in v for v in violations)
        assert any("not in packed view" in v for v in violations)
        # A row not built yet reads as all EMPTY, so a stray valid bit
        # on it is caught too.
        lanes.clear_all()
        lanes.valid[1] |= 1 << lanes.tag_bits
        assert lanes.view_violations("x") == [
            "x lanes[row=1,way=0] valid in packed view but empty in tag view"
        ]


def _built_rows(rows):
    return {row for row, built in enumerate(rows) if built is not None}


@pytest.mark.parametrize("generation", sorted(GENERATIONS))
def test_lane_rows_are_built_on_first_write(generation):
    """Construction builds no tag row (a z15 BTB2 has 32K), and a run
    builds only rows the object table under each mirror built too."""
    factory, _ = GENERATIONS[generation]
    predictor = create_predictor(factory(), "array")
    tage = predictor.tage
    mirrored = [
        (name, structure._lanes, structure._table)
        for name, structure in (
            ("btb1", predictor.btb1), ("btb2", predictor.btb2),
            ("tage-short", tage.short_table), ("tage-long", tage.long_table),
        )
        if structure is not None
    ]
    for name, lanes, _table in mirrored:
        assert _built_rows(lanes.tags) == set(), name
    injector = FaultInjector(predictor, FaultPlan(seed=7, rate=0.01))
    FunctionalEngine(predictor, injector=injector).run_program(
        get_workload("transactions", 1), max_branches=4000,
        warmup_branches=0, seed=1,
    )
    assert injector.events
    assert predictor.audit() == []
    assert _built_rows(predictor.btb1._lanes.tags)
    for name, lanes, table in mirrored:
        assert _built_rows(lanes.tags) <= _built_rows(table._data), name


@pytest.mark.parametrize("structure", ["btb1", "btb2", "tage"])
def test_predictor_audit_checks_the_tag_view(structure):
    """The probes read the tag-array view, so every audit cross-checks
    it: desyncing one built row's tag view alone is reported."""
    # zEC12's BTB1 is small enough that a short footprint run spills
    # into BTB2, so all three mirrors have built rows.
    factory, _ = GENERATIONS["zEC12"]
    predictor = create_predictor(factory(), "array")
    FunctionalEngine(predictor).run_program(
        get_workload("footprint-large", 1), max_branches=3000,
        warmup_branches=0, seed=1,
    )
    assert predictor.audit() == []
    lanes = {"btb1": predictor.btb1._lanes, "btb2": predictor.btb2._lanes,
             "tage": predictor.tage.short_table._lanes}[structure]
    row, tags = next((row, tags) for row, tags in enumerate(lanes.tags)
                     if tags is not None and max(tags) >= 0)
    way = next(way for way, tag in enumerate(tags) if tag >= 0)
    tags[way] ^= 1  # the packed view and the entries are untouched
    violations = predictor.audit()
    assert len(violations) == 1
    assert f"lanes[row={row},way={way}] packed tag" in violations[0]


# ======================================================================
# ArrayBtb1 vs Btb1
# ======================================================================


def _drive_btb1_pair(ops):
    """Run the same op stream through both BTB1s, collecting decisions."""
    object_btb = Btb1(_btb1_config())
    array_btb = ArrayBtb1(_btb1_config())
    trace = {id(object_btb): [], id(array_btb): []}
    for btb in (object_btb, array_btb):
        out = trace[id(btb)]
        for op, address, context, extra in ops:
            if op == "install":
                result = btb.install(address, context, _entry(target=extra))
                out.append(("install", result.installed, result.duplicate,
                            result.row, result.way,
                            result.victim is not None))
            elif op == "search":
                hits = btb.search_line(address, context, min_offset=extra)
                out.append(("search", [
                    (h.row, h.way, h.entry.tag, h.entry.offset) for h in hits
                ]))
            elif op == "lookup":
                hit = btb.lookup(address, context)
                out.append(
                    ("lookup", None if hit is None else (hit.row, hit.way))
                )
            elif op == "remove":
                hits = btb.search_line(address, context)
                if hits:
                    out.append(("remove", btb.remove(hits[0])))
            elif op == "invalidate":
                btb.invalidate_entry(address % btb.config.rows,
                                     extra % btb.config.ways)
            elif op == "clear":
                btb.clear()
    return object_btb, array_btb, trace[id(object_btb)], trace[id(array_btb)]


def _random_btb1_ops(seed, count=400):
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        op = rng.choice(
            ["install"] * 4 + ["search"] * 4
            + ["lookup", "remove", "invalidate", "clear"]
        )
        # A handful of lines so rows collide and tags alias across
        # contexts — the eviction/duplicate paths all get exercised.
        address = rng.randrange(0, 64) * 64 + rng.randrange(0, 32) * 2
        context = rng.choice([0, 1, 7])
        extra = rng.randrange(0, 64) if op != "install" else rng.randrange(
            0x1000, 0x9000, 2
        )
        if op == "clear" and rng.random() < 0.9:
            op = "search"  # keep clears rare so state accumulates
        ops.append((op, address, context, extra))
    return ops


class TestArrayBtb1:
    def test_twin_equivalence_randomized(self):
        ops = _random_btb1_ops(SEED)
        object_btb, array_btb, object_trace, array_trace = (
            _drive_btb1_pair(ops)
        )
        assert object_trace == array_trace
        for counter in ("searches", "hit_searches", "installs",
                        "duplicate_rejects", "evictions", "removals"):
            assert getattr(object_btb, counter) == getattr(
                array_btb, counter
            ), counter
        assert array_btb.audit() == []
        assert array_btb._lanes.view_violations("btb1") == []

    def test_min_offset_filtering_matches(self):
        object_btb, array_btb, object_trace, array_trace = _drive_btb1_pair([
            ("install", 0x1000, 0, 0x2000),
            ("install", 0x1008, 0, 0x2008),
            ("install", 0x1020, 0, 0x2020),
            ("search", 0x1000, 0, 0x10),   # drops the offset-0/8 entries
            ("search", 0x1000, 0, 0x22),   # drops everything
        ])
        assert object_trace == array_trace
        # The offset filter ran: the last search found nothing.
        assert array_trace[-1] == ("search", [])

    def test_audit_catches_each_mirror_desync(self):
        array_btb = ArrayBtb1(_btb1_config())
        result = array_btb.install(0x1004, 0, _entry())
        assert array_btb.audit() == []
        # Mirror lost a live entry.
        array_btb._lanes.clear_way(result.row, result.way)
        assert any("missing from mirror" in v for v in array_btb.audit())
        array_btb._lanes.set(result.row, result.way, 0x3F)
        assert any("mirror tag" in v for v in array_btb.audit())
        # Stale mirror lane with no entry behind it.
        array_btb._resync_row(result.row)
        array_btb._lanes.set(result.row, result.way + 1, 0x01)
        assert any("no entry" in v for v in array_btb.audit())


# ======================================================================
# ArrayBtb2 vs Btb2System
# ======================================================================


def _btb2_pair():
    object_system = Btb2System(_btb2_config(), Btb1(_btb1_config()))
    array_system = ArrayBtb2(_btb2_config(), ArrayBtb1(_btb1_config()))
    return object_system, array_system


class TestArrayBtb2:
    def test_twin_equivalence_randomized(self):
        object_system, array_system = _btb2_pair()
        rng_state = random.Random(SEED)
        ops = []
        for _ in range(300):
            op = rng_state.choice(
                ["snapshot"] * 3 + ["search"] * 3 + ["drain", "invalidate"]
            )
            address = rng_state.randrange(0, 256) * 64 + (
                rng_state.randrange(0, 32) * 2
            )
            ops.append((op, address, rng_state.choice([0, 1])))
        traces = []
        for system in (object_system, array_system):
            out = []
            for op, address, context in ops:
                if op == "snapshot":
                    system.install_snapshot(address, context,
                                            _entry(target=address + 64))
                elif op == "search":
                    out.append(("search", system.search(address, context)))
                elif op == "drain":
                    out.append(("drain", system.drain_staging(limit=4)))
                else:
                    system.invalidate_entry(
                        address % system.config.rows, context
                    )
            traces.append(out)
        assert traces[0] == traces[1]
        for counter in ("searches", "transfers_found", "transfers_staged",
                        "staging_overflows", "writebacks"):
            assert getattr(object_system, counter, None) == getattr(
                array_system, counter, None
            ), counter
        assert object_system.occupancy == array_system.occupancy
        assert len(object_system.staging) == len(array_system.staging)
        assert array_system.audit() == []
        assert array_system._lanes.view_violations("btb2") == []

    def test_search_sweeps_and_stages_identically(self):
        object_system, array_system = _btb2_pair()
        lines = [0x8000 + i * 64 for i in range(4)]
        for system in (object_system, array_system):
            for line in lines:
                system.install_snapshot(line + 4, 0, _entry(target=line))
            staged = system.search(0x8000, 0)
            assert staged == len(lines)
        assert (
            object_system.transfers_found == array_system.transfers_found
        )

    def test_empty_rows_stage_nothing(self):
        _object_system, array_system = _btb2_pair()
        assert array_system.search(0x4000, 0) == 0
        assert array_system.transfers_found == 0


# ======================================================================
# ArrayTagePht vs TagePht
# ======================================================================


def _tage_lookup_key(lookup):
    return [
        None if hit is None else (hit.table, hit.row, hit.way, hit.tag,
                                  hit.taken, hit.weak)
        for hit in (lookup.hit_for("short"), lookup.hit_for("long"))
    ] + [lookup.provider]


class TestArrayTagePht:
    def test_uses_array_tables(self):
        pht = ArrayTagePht(_pht_config())
        assert ArrayTagePht.table_class is _ArrayTageTable
        assert isinstance(pht.short_table, _ArrayTageTable)
        assert isinstance(pht.long_table, _ArrayTageTable)

    def test_twin_equivalence_randomized(self):
        object_pht = TagePht(_pht_config())
        array_pht = ArrayTagePht(_pht_config())
        rng_state = random.Random(SEED)
        stimulus = []
        for _ in range(500):
            stimulus.append((
                rng_state.randrange(0x1000, 0x1100, 2),
                rng_state.random() < 0.6,
                rng_state.choice(["short", "long", None]),
            ))
        traces = []
        for pht in (object_pht, array_pht):
            gpv = GlobalPathVector(depth=17, bits_per_branch=2)
            out = []
            for address, taken, provider_hint in stimulus:
                lookup = pht.lookup(address, gpv)
                out.append(_tage_lookup_key(lookup))
                if lookup.provider is None:
                    out.append(pht.install_on_mispredict(
                        address, gpv.snapshot(), taken, provider_hint
                    ))
                if taken:
                    gpv.record_taken(address)
            traces.append(out)
        assert traces[0] == traces[1]
        assert (
            object_pht.component_counters()
            == array_pht.component_counters()
        )
        assert array_pht.audit() == []
        for table in (array_pht.short_table, array_pht.long_table):
            assert table._lanes.view_violations(table.name) == []

    def test_single_table_generation_shape(self):
        # tage=False models the z196..z14 single tagged PHT.
        config = _pht_config()
        config.tage = False
        pht = ArrayTagePht(config)
        assert pht.long_table is None
        assert isinstance(pht.short_table, _ArrayTageTable)
        gpv = GlobalPathVector(depth=9, bits_per_branch=2)
        pht.install_on_mispredict(0x2000, gpv.snapshot(), True, None)
        assert pht.lookup(0x2000, gpv).provider is not None
        assert pht.audit() == []


# ======================================================================
# ArrayPerceptron vs Perceptron
# ======================================================================

GPV_WIDTH = 16


def _perceptron_pair():
    return (
        Perceptron(_perceptron_config(), GPV_WIDTH),
        ArrayPerceptron(_perceptron_config(), GPV_WIDTH),
    )


def _lookup_key(lookup):
    return (lookup.hit, lookup.row, lookup.way, lookup.address,
            lookup.taken, lookup.useful)


class TestArrayPerceptron:
    def test_twin_equivalence_fused_predict_train(self):
        object_perceptron, array_perceptron = _perceptron_pair()
        rng_state = random.Random(SEED)
        addresses = [0x3000 + i * 2 for i in range(12)]
        stimulus = []
        for _ in range(600):
            stimulus.append((
                rng_state.choice(addresses),
                rng_state.random() < 0.5,
                rng_state.choice([True, False, None]),
                rng_state.random() < 0.2,
            ))
        traces = []
        for predictor in (object_perceptron, array_perceptron):
            gpv = GlobalPathVector(depth=GPV_WIDTH // 2, bits_per_branch=2)
            out = []
            for address, taken, alternate, install in stimulus:
                if install:
                    out.append(predictor.install(address))
                lookup = predictor.lookup(address, gpv)
                out.append(_lookup_key(lookup))
                predictor.update(lookup, taken, alternate)
                if taken:
                    gpv.record_taken(address)
            traces.append(out)
        assert traces[0] == traces[1]
        assert object_perceptron.occupancy == array_perceptron.occupancy
        for counter in ("lookups", "hits", "provider_hits", "installs",
                        "install_rejects", "virtualizations"):
            assert getattr(object_perceptron, counter) == getattr(
                array_perceptron, counter
            ), counter
        # The learned state itself must agree slot for slot.
        ways = array_perceptron.config.ways
        count = array_perceptron._weight_count
        array_slots = {}
        for slot in range(array_perceptron._slots):
            if array_perceptron._valid[slot]:
                start = slot * count
                array_slots[array_perceptron._addresses[slot]] = (
                    array_perceptron._weights[start:start + count],
                    array_perceptron._mapping[start:start + count],
                    array_perceptron._slot_usefulness[slot],
                )
        object_slots = {}
        for row in object_perceptron._rows:
            for entry in row:
                if entry is not None:
                    object_slots[entry.address] = (
                        list(entry.weights), list(entry.mapping),
                        entry.usefulness,
                    )
        assert array_slots == object_slots
        assert array_perceptron.audit() == []

    def test_replacement_protection_matches(self):
        object_perceptron, array_perceptron = _perceptron_pair()
        # Overfill one row: same row for aliasing addresses, identical
        # accept/reject decisions including the protection count-down.
        row = object_perceptron.row_of(0x1000)
        aliases = [
            address for address in range(0x1000, 0x8000, 2)
            if object_perceptron.row_of(address) == row
        ][:6]
        decisions = [
            [predictor.install(address) for address in aliases for _ in (0, 1)]
            for predictor in (object_perceptron, array_perceptron)
        ]
        assert decisions[0] == decisions[1]
        assert (
            object_perceptron.install_rejects
            == array_perceptron.install_rejects
        )

    def test_numpy_views_shape_and_content(self):
        pytest.importorskip("numpy")
        from repro.structures.arrays import NUMPY_AVAILABLE

        if not NUMPY_AVAILABLE:
            pytest.skip("numpy disabled via REPRO_NO_NUMPY")
        _, array_perceptron = _perceptron_pair()
        array_perceptron.install(0x3000)
        weights = array_perceptron.weights_view()
        mapping = array_perceptron.mapping_view()
        slots = array_perceptron._slots
        assert weights.shape == (slots, array_perceptron._weight_count)
        assert mapping.shape == weights.shape
        assert (weights == 0).all()


# ======================================================================
# The resilience contract: legal-but-wrong, mirror-coherent, recoverable
# ======================================================================


def _warmed_structures():
    """One warmed instance of each array structure, plus its rng."""
    btb1 = ArrayBtb1(_btb1_config())
    btb2 = ArrayBtb2(_btb2_config(), ArrayBtb1(_btb1_config()))
    pht = ArrayTagePht(_pht_config())
    perceptron = ArrayPerceptron(_perceptron_config(), GPV_WIDTH)
    gpv = GlobalPathVector(depth=17, bits_per_branch=2)
    for index in range(24):
        address = 0x2000 + index * 0x42
        btb1.install(address, 0, _entry(target=address + 8))
        btb2.install_snapshot(address, 0, _entry(target=address + 8))
        pht.install_on_mispredict(address, gpv.snapshot(), index % 2 == 0,
                                  None)
        perceptron.install(address)
        gpv.record_taken(address)
    return [("btb1", btb1), ("btb2", btb2), ("tage", pht),
            ("perceptron", perceptron)]


@pytest.mark.parametrize("which", ["btb1", "btb2", "tage", "perceptron"])
def test_corruption_is_legal_but_wrong_and_recoverable(which):
    structure = dict(_warmed_structures())[which]
    rng_state = random.Random(SEED)
    corruption = structure.corrupt(rng_state)
    assert corruption is not None
    # Legal-but-wrong: the flip changed state audits cannot catch, and
    # the probe mirror was resynchronised along with it.
    assert corruption.bits_flipped >= 1
    assert structure.audit() == []
    # The recovery action invalidates the victim and repairs the mirror.
    corruption.invalidate()
    assert structure.audit() == []


@pytest.mark.parametrize("which", ["btb1", "btb2", "tage", "perceptron"])
def test_corruption_draws_match_object_twin(which):
    """Same warmed state + same rng seed => the same victim and field as
    the object twin, so fault-injection sweeps are backend-comparable."""
    object_structures = {
        "btb1": Btb1(_btb1_config()),
        "btb2": Btb2System(_btb2_config(), Btb1(_btb1_config())),
        "tage": TagePht(_pht_config()),
        "perceptron": Perceptron(_perceptron_config(), GPV_WIDTH),
    }
    gpv = GlobalPathVector(depth=17, bits_per_branch=2)
    for index in range(24):
        address = 0x2000 + index * 0x42
        object_structures["btb1"].install(address, 0,
                                          _entry(target=address + 8))
        object_structures["btb2"].install_snapshot(
            address, 0, _entry(target=address + 8)
        )
        object_structures["tage"].install_on_mispredict(
            address, gpv.snapshot(), index % 2 == 0, None
        )
        object_structures["perceptron"].install(address)
        gpv.record_taken(address)
    array_structure = dict(_warmed_structures())[which]
    object_corruption = object_structures[which].corrupt(random.Random(99))
    array_corruption = array_structure.corrupt(random.Random(99))
    assert object_corruption is not None and array_corruption is not None
    assert object_corruption.component == array_corruption.component
    assert object_corruption.location == array_corruption.location
    assert object_corruption.field == array_corruption.field


def test_empty_structures_refuse_to_corrupt():
    btb1 = ArrayBtb1(_btb1_config())
    perceptron = ArrayPerceptron(_perceptron_config(), GPV_WIDTH)
    assert btb1.corrupt(random.Random(1)) is None
    assert perceptron.corrupt(random.Random(1)) is None


def test_lazy_reexport_from_structures_package():
    import repro.structures as structures

    assert structures.ArrayBtb1 is ArrayBtb1
    assert structures.PackedLanes is PackedLanes
    assert "ArrayBtb1" in structures.__all__


def test_array_backend_works_without_numpy():
    """REPRO_NO_NUMPY simulates a numpy-free install: the array backend
    must import, run, and stay equivalent — numpy only accelerates the
    bulk audit screen, never behaviour."""
    script = (
        "from repro.structures.arrays import NUMPY_AVAILABLE\n"
        "assert not NUMPY_AVAILABLE\n"
        "from repro.verification.differential import cross_backend_report\n"
        "report = cross_backend_report('compute-kernel', branches=300)\n"
        "assert report.clean, report.summary()\n"
        "print('fallback-ok')\n"
    )
    env = dict(os.environ, REPRO_NO_NUMPY="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "fallback-ok" in result.stdout
