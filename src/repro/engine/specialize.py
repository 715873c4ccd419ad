"""Config-specialized compiled prediction kernels (the ``fast`` engine mode).

INTERNALS §12's Amdahl accounting showed that after the array backend
made table probes cheap, ~80% of a simulated branch was still the
prediction *pipeline*: ``predict_and_resolve`` → ``_predict_dynamic`` →
figure-8/9 selection → resolution → completion updates, ~170 Python
calls per branch, identical across backends.  This module collapses
that pyramid the way :func:`collections.namedtuple` builds classes —
textual code generation plus :func:`compile` — producing, per *config
shape*, a flat kernel in which:

* dead component paths are dropped at generation time (no BTB2 section
  when ``config.btb2 is None``, no SKOOT section when
  ``config.skoot_enabled`` is false, no overlay probes when the
  SBHT/SPHT are disabled);
* geometry and latency constants (line size, walk cap, completion
  delay, GPQ capacity, drain limits, BTB2 visibility) are baked in as
  integer literals;
* every hot structure attribute and bound method is hoisted to a local
  once per *drive call* instead of being re-resolved per branch; and
* the per-branch allocations of the reference path (``SearchTrace``,
  ``DirectionDecision``, ``TargetDecision``, ``PredictionOutcome``)
  are elided entirely on the bare no-observer path, with the
  ``RunStats`` fold inlined over local accumulators; and
* BTB1 and TAGE reads (the line search, both TAGE probes, the
  completion-time re-finds and in-place training) read the tables'
  ``_table._data`` rows directly, with no ``BtbHit``/``TableLookup``/
  ``TageLookup`` per probe.  Every write that adds, removes or retags
  an entry stays a method call, so the array backend's mirror stays
  coherent; BTB2, the CTB and the perceptron stay behind their methods.

The reference object path in :mod:`repro.core.predictor` stays the
semantics definition; the generated code is a transcription of it, and
the cross-backend/cross-mode differential battery
(:mod:`repro.verification.differential`) proves byte-identical branch
streams, stats and state round-trips.  See ``docs/INTERNALS.md`` §14
for the specialization contract — what may be specialized away and
what must stay observable.

Observability contract of the generated kernels:

* **Bare kernels** (no observer, telemetry, injector or profile
  attached) accumulate the predictor counters (``predictions``,
  ``dynamic_predictions``, ``surprise_branches``, ``restarts``), the
  BTB1 and TAGE read counters and all ``RunStats`` integers in locals,
  flushed in a ``finally`` so exceptions and early exits leave exactly
  the state the reference path would have left.
* **Observed kernels** construct the same ``PredictionOutcome``
  objects as the reference path and keep every predictor and
  structure counter an attribute update, because telemetry samplers
  harvest ``component_counters()`` mid-run through the observer seam.
* **Reads build no state**: a table row that was never written reads
  as a miss and stays unbuilt, as in ``Btb1.search_line`` and
  ``_TageTable.lookup``.
* Every kernel refuses (``ConfigError``) to run with a BTB1 search tap
  (``Btb1.on_search``) attached, which its inline search cannot fire.
* ``_staging_drain_countdown`` is carried in a local in both flavours
  (no observer reads it) and written back to the predictor after every
  branch (observed) or in ``finally`` (bare), so checkpoints taken at
  any engine boundary are byte-identical.
"""

from __future__ import annotations

import linecache
import textwrap
import threading
from string import Template
from typing import Dict, Optional, Tuple

from repro.common.errors import ConfigError
from repro.configs.predictor import PredictorConfig
from repro.core.btb1 import BtbHit
from repro.core.cpred import (
    POWER_ALL,
    POWER_CTB,
    POWER_PERCEPTRON,
    POWER_PHT,
    CpredEntry,
    CpredLookup,
)
from repro.core.crs import CrsPrediction, _Stack as _CrsStack
from repro.core.gpq import PredictionRecord
from repro.core.predictor import (
    LookaheadBranchPredictor,
    PredictionOutcome,
    SearchTrace,
    _Stream,
)
from repro.core.providers import DirectionProvider, TargetProvider
from repro.core.tage import LONG, SHORT, TageLookupSnapshot
from repro.isa.instructions import static_guess_taken, static_target_known
from repro.stats.metrics import MispredictClass
from repro.workloads.multi import ContextSwitch

__all__ = [
    "ENGINE_MODES",
    "SpecializedKernels",
    "clear_kernel_cache",
    "config_shape",
    "generate_kernel_source",
    "kernels_for",
    "kernels_for_config",
]

#: The engine modes every engine/CLI surface accepts.  ``reference``
#: drives the object path in :mod:`repro.core.predictor`; ``fast``
#: drives the specialized kernels generated here.
ENGINE_MODES = ("reference", "fast")

#: Raised (as a ConfigError) by every kernel entered while a BTB1 search
#: tap is attached: the kernels read BTB1 rows inline and never call
#: ``Btb1.search_line``, so the tap would silently see nothing.
_TAP_MESSAGE = (
    "Btb1.on_search is attached, but the fast kernels read BTB1 rows "
    "inline and never fire it; drive this predictor with "
    "engine_mode='reference'"
)


# ---------------------------------------------------------------------------
# Shape keying
# ---------------------------------------------------------------------------

def config_shape(config: PredictorConfig) -> Tuple:
    """The specialization key: everything the generated source depends on.

    Two configs with the same shape share one compiled kernel module
    (the cache below); geometry that lives *inside* the structures
    (table rows/ways, mask constants) is already bound at structure
    construction and needs no key here.
    """
    return (
        config.btb2 is not None,
        bool(config.skoot_enabled),
        bool(config.speculative.enabled),
        bool(config.pht.tage),
        config.btb1.line_size,
        config.search_walk_cap,
        config.completion_delay,
        config.gpq_capacity,
        config.write_drain_per_step,
        config.btb2_visibility_lines,
        config.skoot_max,
    )


class SpecializedKernels:
    """The compiled drive loops for one config shape."""

    __slots__ = (
        "shape",
        "source",
        "counted_bare",
        "counted_observed",
        "warmup_bare",
        "warmup_observed",
        "events_bare",
        "events_observed",
        "predict_flat",
    )

    def __init__(self, shape: Tuple, source: str, namespace: Dict):
        self.shape = shape
        self.source = source
        self.counted_bare = namespace["counted_bare"]
        self.counted_observed = namespace["counted_observed"]
        self.warmup_bare = namespace["warmup_bare"]
        self.warmup_observed = namespace["warmup_observed"]
        self.events_bare = namespace["events_bare"]
        self.events_observed = namespace["events_observed"]
        self.predict_flat = namespace["predict_flat"]


_CACHE: Dict[Tuple, SpecializedKernels] = {}
_CACHE_LOCK = threading.Lock()


def clear_kernel_cache() -> None:
    """Drop every compiled kernel (tests of the generation path)."""
    with _CACHE_LOCK:
        _CACHE.clear()


def kernels_for_config(config: PredictorConfig) -> SpecializedKernels:
    """The (cached) compiled kernels for *config*'s shape."""
    shape = config_shape(config)
    kernels = _CACHE.get(shape)
    if kernels is None:
        with _CACHE_LOCK:
            kernels = _CACHE.get(shape)
            if kernels is None:
                kernels = _compile_shape(shape)
                _CACHE[shape] = kernels
    return kernels


def kernels_for(predictor: LookaheadBranchPredictor) -> SpecializedKernels:
    """The compiled kernels for a live predictor (any backend: the
    generated code binds instance attributes, so the array twins run
    through the very same kernel)."""
    return kernels_for_config(predictor.config)


# ---------------------------------------------------------------------------
# Template rendering
# ---------------------------------------------------------------------------
# The kernel body is written once as a marker-annotated template:
# ``#IF NAME`` / ``#ELSE`` / ``#ENDIF`` lines gate config- and
# flavour-conditional regions, ``$TOKEN`` placeholders take baked
# integer literals and flavour-specific statements.  The renderer is
# deliberately dumb — no expression language — so the template reads
# as the plain Python it becomes.


def _render(template: str, flags: Dict[str, bool], subs: Dict[str, str]) -> str:
    out = []
    # Stack of (emitting, this_if_taken); emitting folds in the parents.
    stack = [(True, True)]
    for line in template.splitlines():
        stripped = line.strip()
        if stripped.startswith("#IF "):
            name = stripped[4:].strip()
            taken = bool(flags.get(name, False))
            stack.append((stack[-1][0] and taken, taken))
            continue
        if stripped == "#ELSE":
            _, taken = stack.pop()
            stack.append((stack[-1][0] and not taken, not taken))
            continue
        if stripped == "#ENDIF":
            stack.pop()
            continue
        if stack[-1][0]:
            out.append(line)
    if len(stack) != 1:
        raise AssertionError("unbalanced #IF/#ENDIF in kernel template")
    text = "\n".join(out) + "\n"
    return Template(text).substitute(subs)


# --- the shared per-branch core (indent 0 == loop-body level) --------------
# A transcription of LookaheadBranchPredictor.predict_and_resolve with
# _walk_to (Btb1.search_line inlined), _predict_dynamic (figure 8 with
# TagePht.lookup inlined, figure 9), _predict_surprise,
# _after_resolution, the GPQ push/completions and _apply_update
# flattened in.  ``#PROBE <prefix>`` lines take one table's probe
# (_PROBE).  Every side effect runs in the reference order; the
# differential battery holds this line by line.

_CORE = """\
#IF EVENTS
if isinstance(branch, ContextSwitch):
    P.context_switch(branch.entry_point, branch.context, branch.thread)
    continue
#ENDIF
$INC_PRED
thread = branch.thread
if thread != cur_thread:
    state = tstates.get(thread)
    if state is None:
        state = mk_state(thread)
    gpv = state.gpv
    crs_pstk = crs_pstacks.get(thread)
    if crs_pstk is None:
        crs_pstk = crs_pstacks[thread] = CrsStack()
    cur_thread = thread
stream_s = state.stream
address = branch.address
context = branch.context
sequence = branch.sequence
t_lines = 0
t_skoot = 0
t_empty = 0
t_btb2 = 0
t_bad = 0
t_badtaken = 0
t_overshoot = False
t_capped = False
t_cpred = False
#IF BTB2
if drain_cd is None and btb2_staging_items:
    btb2_drain(limit=$DRAIN2)
#ENDIF
entry = None
while True:
#IF SKOOT
    pending = stream_s.pending_skip
    if pending:
        s_start = stream_s.start_address
        first_line = s_start - s_start % $LINE + pending * $LINE
        if address < first_line:
            t_overshoot = True
            stream_s.pending_skip = 0
            break
        if state.search_address < first_line:
            t_skoot += pending
            state.search_address = first_line
        stream_s.pending_skip = 0
#ENDIF
    if address < state.search_address:
        break
    sa = state.search_address
    gap = address // $LINE - sa // $LINE
    if gap > $CAP:
        skipped = gap - $CAP
        t_capped = True
        t_lines += skipped
        t_empty += skipped
        stream_s.searches_done += skipped
#IF BTB2
        btb2_reset()
#ENDIF
        state.search_address = address - address % $LINE - $CAPBYTES
    target_line = address - address % $LINE
    while True:
        sa = state.search_address
        line_base = sa - sa % $LINE
        min_offset = sa - line_base
        # --- Btb1.search_line: fold, way-order scan, offset sort -------
        u_v = line_base >> $LSHIFT
        u_row = u_v & b1_rowmask
        $INC_B1S
        hits = None
        u_rl = b1_data[u_row]
        if u_rl is not None:
            # (a row never written holds nothing: no tag to fold)
            u_v = (u_v >> b1_rowbits) ^ (context * 0x9E37)
            u_tag = 0
            while u_v:
                u_tag ^= u_v & b1_tagmask
                u_v >>= b1_tagbits
            u_w = 0
            for u_e in u_rl:
                if u_e is not None and u_e.tag == u_tag and u_e.offset >= min_offset:
                    if hits is None:
                        hits = [(u_e.offset, u_w, u_e)]
                    else:
                        hits.append((u_e.offset, u_w, u_e))
                u_w += 1
        t_lines += 1
        stream_s.searches_done += 1
        if hits is not None:
            $INC_B1H
            if len(hits) > 1:
                # (offset, way): the stable offset sort of the b3 stage.
                hits.sort()
            u_pol = b1_pols[u_row]
            if u_pol is None:
                u_pol = b1_pols[u_row] = b1_polf(b1_ways)
            for u_h in hits:
                u_pol.touch(u_h[1])
            if line_base == target_line:
                for u_off, u_w, u_e in hits:
                    hit_address = line_base + u_off
                    if hit_address < address:
                        would_redirect = u_e.is_unconditional or u_e.bht.value >= 2
                        btb1_remove(new_hit(u_row, u_w, u_e, line_base))
                        t_bad += 1
                        if would_redirect:
                            t_badtaken += 1
                    elif hit_address == address:
                        entry = u_e
                        hit_row = u_row
                        hit_way = u_w
                        break
                    else:
                        break
            else:
                for u_off, u_w, u_e in hits:
                    would_redirect = u_e.is_unconditional or u_e.bht.value >= 2
                    btb1_remove(new_hit(u_row, u_w, u_e, line_base))
                    t_bad += 1
                    if would_redirect:
                        t_badtaken += 1
        else:
            t_empty += 1
#IF BTB2
        if btb2_note(line_base, context, hits is not None):
            t_btb2 += 1
            drain_cd = $VIS
        if drain_cd is not None:
            if drain_cd <= 0:
                btb2_drain()
                drain_cd = None
            else:
                drain_cd = drain_cd - 1
#ENDIF
        if line_base == target_line:
            break
        state.search_address = line_base + $LINE
#IF BTB2
    if drain_cd is not None:
        btb2_drain()
        drain_cd = None
#ENDIF
    break
#IF ALLOC
t_stream = stream_s.searches_done
#ENDIF
if entry is not None:
    $INC_DYN
    gpv_snapshot = gpv._value
    cpred_lookup = stream_s.cpred_lookup
    # --- figure 8 (direction) -----------------------------------------
    if entry.is_unconditional:
        d_taken = True
        d_provider = D_UNCOND
        d_alt_taken = None
        d_alt_provider = None
        d_tage = None
        d_perc = None
        d_pht_powered = True
        d_perc_powered = True
    else:
        d_provider = None
        d_taken = False
        d_alt_provider = None
        d_alt_taken = None
        d_tage = None
        d_perc = None
        d_pht_powered = True
        d_perc_powered = True
        if entry.bidirectional:
            if cpred_on and cpred_lookup.hit:
                u_pmask = cpred_lookup.power_mask
                d_perc_powered = u_pmask & $PPERC != 0
                if not d_perc_powered:
                    cpred.power_gated_lookups += 1
                d_pht_powered = u_pmask & $PPHT != 0
                if not d_pht_powered:
                    cpred.power_gated_lookups += 1
            if d_perc_powered:
                d_perc = perc_lookup(address, gpv)
                if d_perc.hit and d_perc.useful:
                    d_provider = D_PERC
                    d_taken = d_perc.taken
            else:
                cpred.power_gate_misses += 1
            if d_pht_powered:
                # --- TagePht.lookup: probe both tables, then select ----
                $INC_TLOOK
                #PROBE ts
#IF TAGE
                #PROBE tl
                if tl_way >= 0:
                    if not tl_weak:
                        t_prov = tl_name
                    elif ts_way >= 0 and not ts_weak:
                        t_prov = ts_name
                    elif tg_conf_l.value > tg_thr:
                        t_prov = tl_name
                    else:
                        t_prov = None
                        $INC_TSUP
                        if ts_way >= 0 and tg_conf_s.value > tg_thr:
                            t_prov = ts_name
                elif ts_way >= 0:
                    if not ts_weak or tg_conf_s.value > tg_thr:
                        t_prov = ts_name
                    else:
                        t_prov = None
                        $INC_TSUP
                else:
                    t_prov = None
#ELSE
                t_prov = ts_name if ts_way >= 0 else None
#ENDIF
                # --- TageLookupSnapshot.from_lookup ----------------------
                d_tage = new_tsnap(TageSnapT)
                d_tage.provider = t_prov
                if t_prov is None:
                    d_tage.provider_row = 0
                    d_tage.provider_way = 0
                    d_tage.provider_tag = 0
                    d_tage.provider_taken = None
                    d_tage.provider_weak = False
                elif t_prov is ts_name:
                    $INC_TSEL
                    d_tage.provider_row = ts_row
                    d_tage.provider_way = ts_way
                    d_tage.provider_tag = ts_tag
                    d_tage.provider_taken = ts_taken
                    d_tage.provider_weak = ts_weak
#IF TAGE
                else:
                    $INC_TSEL
                    d_tage.provider_row = tl_row
                    d_tage.provider_way = tl_way
                    d_tage.provider_tag = tl_tag
                    d_tage.provider_taken = tl_taken
                    d_tage.provider_weak = tl_weak
#ENDIF
                u_obs = ((ts_name, ts_taken, ts_weak),) if ts_way >= 0 else ()
#IF TAGE
                if tl_way >= 0:
                    u_obs += ((tl_name, tl_taken, tl_weak),)
#ENDIF
                d_tage.weak_observations = u_obs
#IF SPEC
                spht_entry = None
#IF TAGE
                if tl_way >= 0:
                    spht_entry = spht_entries.get(("spht", tl_name, tl_row, tl_tag))
                if spht_entry is None and ts_way >= 0:
#ELSE
                if ts_way >= 0:
#ENDIF
                    spht_entry = spht_entries.get(("spht", ts_name, ts_row, ts_tag))
                if spht_entry is not None:
                    spht.overrides += 1
                    override = spht_entry.taken
                    if d_provider is None:
                        d_provider = D_SPHT
                        d_taken = override
                    elif d_alt_provider is None:
                        d_alt_provider = D_SPHT
                        d_alt_taken = override
#ENDIF
                if t_prov is not None:
#IF TAGE
                    provider_id = D_PHTL if t_prov is tl_name else D_PHTS
#ELSE
                    provider_id = D_PHTS
#ENDIF
                    if d_provider is None:
                        d_provider = provider_id
                        d_taken = d_tage.provider_taken
                    elif d_alt_provider is None:
                        d_alt_provider = provider_id
                        d_alt_taken = d_tage.provider_taken
#IF TAGE
                    if t_prov is tl_name and ts_way >= 0:
                        if d_alt_provider is None:
                            d_alt_provider = D_PHTS
                            d_alt_taken = ts_taken
#ENDIF
            else:
                cpred.power_gate_misses += 1
        # TwoBitDirectionCounter.taken / .weak read inline
        bht_taken = entry.bht.value >= 2
#IF SPEC
        sbht_entry = sbht_entries.get(
            ("sbht", hit_row, hit_way, entry.tag, entry.offset)
        )
        if sbht_entry is not None:
            sbht.overrides += 1
            sbht_override = sbht_entry.taken
            if d_provider is None:
                d_provider = D_SBHT
                d_taken = sbht_override
            elif d_alt_provider is None:
                d_alt_provider = D_SBHT
                d_alt_taken = sbht_override
#ENDIF
        if d_provider is None:
            d_provider = D_BHT
            d_taken = bht_taken
        elif d_alt_provider is None:
            d_alt_provider = D_BHT
            d_alt_taken = bht_taken
#IF SPEC
        # _install_weak_overlays
        if d_provider is D_BHT and entry.bht.value not in (0, 3):
            sbht_install(
                ("sbht", hit_row, hit_way, entry.tag, entry.offset),
                d_taken,
                sequence,
            )
        if (
            (d_provider is D_PHTS or d_provider is D_PHTL)
            and d_tage is not None
            and d_tage.provider_weak
            and d_tage.provider is not None
        ):
            spht_install(
                ("spht", d_tage.provider, d_tage.provider_row, d_tage.provider_tag),
                d_taken,
                sequence,
            )
#ENDIF
    # --- figure 9 (target) --------------------------------------------
    predicted_target = None
    target_provider = T_BTB1
    ctb_lookup = None
    crs_prediction = None
    ctb_powered = True
    if d_taken:
        fig9_done = False
        if entry.multi_target:
            u_roff = entry.return_offset
            if (
                crs_on
                and u_roff is not None
                and not entry.crs_blacklisted
                and crs_pstk.valid
            ):
                u_target = crs_pstk.nsia + u_roff
                crs_pstk.valid = False
                crs.predictions_used += 1
                crs_prediction = new_crspred(CrsPredT)
                crs_prediction.used = True
                crs_prediction.target = u_target
                predicted_target = u_target
                target_provider = T_CRS
                fig9_done = True
            else:
                crs_prediction = new_crspred(CrsPredT)
                crs_prediction.used = False
                crs_prediction.target = None
                if cpred_on and cpred_lookup.hit:
                    ctb_powered = cpred_lookup.power_mask & $PCTB != 0
                    if not ctb_powered:
                        cpred.power_gated_lookups += 1
                if ctb_powered:
                    ctb_lookup = ctb_lookup_fn(address, context, gpv_snapshot)
                    if ctb_lookup.hit:
                        predicted_target = ctb_lookup.target
                        target_provider = T_CTB
                        fig9_done = True
                else:
                    cpred.power_gate_misses += 1
        if not fig9_done:
            predicted_target = entry.target
            target_provider = T_BTB1
    # --- the prediction record ----------------------------------------
    record = new_record(Record)
    record.sequence = sequence
    record.address = address
    record.context = context
    record.thread = thread
    record.kind = branch.kind
    record.length = branch.instruction.length
    record.dynamic = True
    record.predicted_taken = d_taken
    record.predicted_target = predicted_target
    record.direction_provider = d_provider
    record.target_provider = target_provider
    record.alternate_taken = d_alt_taken
    record.alternate_provider = d_alt_provider
    record.gpv_snapshot = gpv_snapshot
    record.btb_row = hit_row
    record.btb_way = hit_way
    record.btb_tag = entry.tag
    record.btb_offset = entry.offset
    record.bidirectional_at_prediction = entry.bidirectional
    record.multi_target_at_prediction = entry.multi_target
    record.marked_return_at_prediction = entry.return_offset is not None
    record.blacklisted_at_prediction = entry.crs_blacklisted
    record.tage = d_tage
    record.perceptron = d_perc
    record.ctb = ctb_lookup
    record.crs = crs_prediction
    record.cpred = cpred_lookup
    record.pht_powered = d_pht_powered
    record.perceptron_powered = d_perc_powered
    record.ctb_powered = ctb_powered
    # --- stream bookkeeping: power needs and SKOOT training -----------
    if entry.bidirectional and not entry.is_unconditional:
        stream_s.needed_power_mask |= $PPMASK
    if entry.multi_target:
        stream_s.needed_power_mask |= $PCTB
    if not stream_s.first_branch_trained:
        stream_s.first_branch_trained = True
#IF SKOOT
        opener_t = stream_s.opener
        if opener_t is not None:
            s_start = stream_s.start_address
            if address >= s_start:
                # BtbEntry.train_skoot: only ever lowers a known SKOOT
                u_skip = address // $LINE - s_start // $LINE
                if u_skip > $SKOOTMAX:
                    u_skip = $SKOOTMAX
                u_cur = opener_t.skoot
                if u_cur is None or u_skip < u_cur:
                    opener_t.skoot = u_skip
#ENDIF
    if d_taken:
        if crs_on:
            u_d = predicted_target - address
            if (u_d if u_d >= 0 else -u_d) >= crs_dist:
                crs_pstk.nsia = branch.next_sequential
                crs_pstk.valid = True
#IF SKOOT
        e_skoot = entry.skoot
        if e_skoot is not None and e_skoot > 0:
            redirect = predicted_target - predicted_target % $LINE + e_skoot * $LINE
        else:
            redirect = predicted_target
#ELSE
        redirect = predicted_target
#ENDIF
        if cpred_lookup.hit:
            if cpred_lookup.way == hit_way and cpred_lookup.redirect_address == redirect:
                cpred.correct += 1
                t_cpred = True
            else:
                cpred.wrong += 1
        if cpred_on:
            u_v = stream_s.start_address >> 1
            u_row = 0
            while u_v:
                u_row ^= u_v & cpred_rowmask
                u_v >>= cpred_rowbits
            u_row %= cpred_rowcount
            u_v = (stream_s.start_address >> 4) ^ (context * 0x1F7B)
            u_tag = 0
            while u_v:
                u_tag ^= u_v & cpred_tagmask
                u_v >>= cpred_tagbits
            u_new = new_cpred_entry(CpredEntryT)
            u_new.tag = u_tag
            u_new.searches_to_taken = stream_s.searches_done
            u_new.way = hit_way
            u_new.redirect_address = redirect
            u_new.power_mask = stream_s.needed_power_mask
            u_data = cpred_data[u_row]
            if u_data is None:
                u_data = cpred_data[u_row] = [None] * cpred_ways
            u_found = -1
            u_way = 0
            for u_e in u_data:
                if u_e is not None and u_e.tag == u_tag:
                    u_found = u_way
                    break
                u_way += 1
            if u_found < 0:
                u_way = 0
                for u_e in u_data:
                    if u_e is None:
                        u_found = u_way
                        break
                    u_way += 1
            u_pol = cpred_pols[u_row]
            if u_pol is None:
                u_pol = cpred_pols[u_row] = cpred_polf(cpred_ways)
            if u_found < 0:
                u_found = u_pol.victim()
            u_data[u_found] = u_new
            u_pol.touch(u_found)
            cpred.trains += 1
    record.crs_stack_snapshot = (crs_pstk.valid, crs_pstk.nsia)
    predicted_taken_l = d_taken
    direction_provider_l = d_provider
else:
    $INC_SUR
    instruction = branch.instruction
    guessed_taken = static_guess(instruction)
    predicted_target = None
    target_provider = T_NONE
    if guessed_taken and static_known(instruction):
        predicted_target = instruction.static_target
        target_provider = T_STATREL
#IF BTB2
    if guessed_taken or branch.taken:
        btb2_surprise(sequence, address, context)
#ENDIF
    if guessed_taken or branch.taken:
        if not stream_s.first_branch_trained:
            stream_s.first_branch_trained = True
#IF SKOOT
            opener_t = stream_s.opener
            if opener_t is not None:
                s_start = stream_s.start_address
                if address >= s_start:
                    u_skip = address // $LINE - s_start // $LINE
                    if u_skip > $SKOOTMAX:
                        u_skip = $SKOOTMAX
                    u_cur = opener_t.skoot
                    if u_cur is None or u_skip < u_cur:
                        opener_t.skoot = u_skip
#ENDIF
    record = new_record(Record)
    record.sequence = sequence
    record.address = address
    record.context = context
    record.thread = thread
    record.kind = branch.kind
    record.length = instruction.length
    record.dynamic = False
    record.predicted_taken = guessed_taken
    record.predicted_target = predicted_target
    record.direction_provider = D_STATIC
    record.target_provider = target_provider
    record.alternate_taken = None
    record.alternate_provider = None
    record.gpv_snapshot = gpv._value
    record.btb_row = 0
    record.btb_way = 0
    record.btb_tag = 0
    record.btb_offset = 0
    record.bidirectional_at_prediction = False
    record.multi_target_at_prediction = False
    record.marked_return_at_prediction = False
    record.blacklisted_at_prediction = False
    record.tage = None
    record.perceptron = None
    record.ctb = None
    record.crs = None
    record.cpred = None
    record.crs_stack_snapshot = (crs_pstk.valid, crs_pstk.nsia)
    record.pht_powered = True
    record.perceptron_powered = True
    record.ctb_powered = True
    predicted_taken_l = guessed_taken
    direction_provider_l = D_STATIC
# --- resolution ------------------------------------------------------
actual_taken = branch.taken
actual_target = branch.target
record.actual_taken = actual_taken
record.actual_target = actual_target
# --- _after_resolution ----------------------------------------------
correct_path = predicted_taken_l == actual_taken and (
    not actual_taken or predicted_target == actual_target
)
#IF SPEC
if entry is not None and predicted_taken_l != actual_taken:
    install_corrected(
        record, new_hit(hit_row, hit_way, entry, target_line), branch
    )
#ENDIF
if actual_taken:
    u_gc = gpv._hash_cache
    u_h = u_gc.get(address)
    if u_h is None:
        if len(u_gc) >= 65536:
            u_gc.clear()
        u_h = u_gc[address] = gpv._hash_fold(address >> 1)
    gpv._value = ((gpv._value << gpv.bits_per_branch) | u_h) & gpv._width_mask
if entry is not None and correct_path:
    if actual_taken:
        state.search_address = actual_target
        begin_stream(P, state, actual_target, context, entry)
    else:
        state.search_address = address + 2
else:
    $INC_RST
    crs_pstk.valid, crs_pstk.nsia = record.crs_stack_snapshot
#IF BTB2
    btb2_reset()
#ENDIF
    next_address = branch.next_address
    state.search_address = next_address
    if entry is not None and actual_taken:
        opener_n = entry
    else:
        opener_n = None
    begin_stream(P, state, next_address, context, opener_n)
# --- GPQ push + due completions (with _apply_update inlined) ---------
if len(gpq_items) >= $GPQCAP:
    forced = gpq_popleft()
    gpq.forced_completions += 1
else:
    forced = None
gpq_append(record)
if forced is not None:
    #APPLY forced
completed = sequence - $CDELAY
while gpq_items and gpq_items[0].sequence <= completed:
    due = gpq_popleft()
    #APPLY due
$SYNC_DRAIN
#IF FOLD
# --- RunStats.record inlined over local accumulators -----------------
s_branches += 1
if entry is not None:
    s_dyn += 1
else:
    s_sur += 1
if actual_taken:
    s_taken += 1
if entry is not None:
    if predicted_taken_l != actual_taken:
        klass = K_DIRW
    elif actual_taken and predicted_target != actual_target:
        klass = K_TGTW
    else:
        klass = K_NONE
else:
    if not predicted_taken_l:
        klass = K_SURT if actual_taken else K_NONE
    elif not actual_taken:
        klass = K_SGW
    elif predicted_target is None:
        klass = K_SGTI
    elif predicted_target != actual_target:
        klass = K_SGW
    else:
        klass = K_SGTR
classes[klass] += 1
if klass is K_DIRW:
    s_mis += 1
    s_dirw += 1
elif klass is K_TGTW:
    s_mis += 1
    s_tgtw += 1
elif klass is K_SURT or klass is K_SGW:
    s_mis += 1
pstats = dprov.get(direction_provider_l)
if pstats is None:
    pstats = dprov[direction_provider_l] = [0, 0]
pstats[0] += 1
if predicted_taken_l == actual_taken:
    pstats[1] += 1
if entry is not None and predicted_taken_l:
    s_ptd += 1
    if actual_taken:
        tstats = tprov.get(target_provider)
        if tstats is None:
            tstats = tprov[target_provider] = [0, 0]
        tstats[0] += 1
        if predicted_target == actual_target:
            tstats[1] += 1
s_lines += t_lines
s_empty += t_empty
s_skoot += t_skoot
s_btb2 += t_btb2
s_bad += t_bad
s_badtaken += t_badtaken
if t_overshoot:
    s_overshoot += 1
if t_cpred:
    s_cpredacc += 1
#ENDIF
#IF ALLOC
trace = new_trace(Trace)
trace.lines_searched = t_lines
trace.lines_skipped_by_skoot = t_skoot
trace.empty_searches = t_empty
trace.btb2_triggers = t_btb2
trace.bad_predictions_removed = t_bad
trace.bad_taken_restarts = t_badtaken
trace.skoot_overshoot = t_overshoot
trace.walk_capped = t_capped
trace.cpred_accelerated = t_cpred
trace.stream_searches = t_stream
outcome = new_outcome(Outcome)
outcome.record = record
outcome.trace = trace
#ENDIF
"""


# --- _apply_update inlined (spliced at the two completion sites) ----------
# A transcription of _apply_update -> _update_dynamic / _update_targets
# (with _refind_entry, _tage_alternate and TagePht.update folded in);
# surprise completions stay a bound-method call — they are rare and
# allocate.
# ``$REC`` is the record variable at the splice site (forced / due).

_APPLY = """\
#IF SPEC
if sbht_entries:
    u_stale = [
        u_k
        for u_k, u_e in sbht_entries.items()
        if u_e.installer_sequence <= $REC.sequence
    ]
    if u_stale:
        for u_k in u_stale:
            del sbht_entries[u_k]
            sbht_order.remove(u_k)
        sbht.removals += len(u_stale)
if spht_entries:
    u_stale = [
        u_k
        for u_k, u_e in spht_entries.items()
        if u_e.installer_sequence <= $REC.sequence
    ]
    if u_stale:
        for u_k in u_stale:
            del spht_entries[u_k]
            spht_order.remove(u_k)
        spht.removals += len(u_stale)
#ENDIF
if $REC.dynamic:
    # _refind_entry (Btb1.entry_at read inline)
    u_rl = b1_data[$REC.btb_row]
    u_entry = None if u_rl is None else u_rl[$REC.btb_way]
    if u_entry is not None and (
        u_entry.tag != $REC.btb_tag or u_entry.offset != $REC.btb_offset
    ):
        u_entry = None
    u_ataken = $REC.actual_taken
    u_taken = bool(u_ataken)
    u_dirw = $REC.predicted_taken != u_ataken
    if u_entry is not None:
        # TwoBitDirectionCounter.update
        u_c = u_entry.bht
        if u_taken:
            u_v = u_c.value + 1
            u_c.value = 3 if u_v > 3 else u_v
        else:
            u_v = u_c.value - 1
            u_c.value = 0 if u_v < 0 else u_v
        if u_dirw and not u_entry.is_unconditional:
            u_entry.bidirectional = True
    u_tage = $REC.tage
    if u_tage is not None:
        # TagePht.update: train the provider entry if it is still there
        # (_TageTable.entry_at read inline), against _tage_alternate:
        # the short table's direction when the long table provided and
        # a short observation exists, else the recorded alternate.
        u_tp = u_tage.provider
        if u_tp is not None:
            u_alt = $REC.alternate_taken
#IF TAGE
            if u_tp == LONG_T:
                for u_tbl, u_tk, u_wk in u_tage.weak_observations:
                    if u_tbl == SHORT_T:
                        u_alt = u_tk
                        break
                u_rl = tl_data[u_tage.provider_row]
            else:
                u_rl = ts_data[u_tage.provider_row]
#ELSE
            u_rl = ts_data[u_tage.provider_row]
#ENDIF
            u_te = None if u_rl is None else u_rl[u_tage.provider_way]
            if u_te is not None and u_te.tag == u_tage.provider_tag:
                u_c = u_te.counter
                u_v = u_c.value
                u_pc = (u_v >= tg_mid) == u_taken
                if u_taken:
                    u_v += 1
                    u_c.value = u_c.maximum if u_v > u_c.maximum else u_v
                else:
                    u_c.value = 0 if u_v < 1 else u_v - 1
                if u_alt is not None:
                    u_ac = u_alt == u_taken
                    if u_pc and not u_ac:
                        u_c = u_te.usefulness
                        u_v = u_c.value + 1
                        u_c.value = u_c.maximum if u_v > u_c.maximum else u_v
                    elif not u_pc and u_ac:
                        u_c = u_te.usefulness
                        u_v = u_c.value - 1
                        u_c.value = 0 if u_v < 0 else u_v
        # weak-confidence bookkeeping for every weak hit at prediction
        for u_tbl, u_tk, u_wk in u_tage.weak_observations:
            if u_wk:
                u_c = tg_conf_s if u_tbl == SHORT_T else tg_conf_l
                if u_tk == u_taken:
                    u_v = u_c.value + 1
                    u_c.value = u_c.maximum if u_v > u_c.maximum else u_v
                else:
                    u_v = u_c.value - 1
                    u_c.value = 0 if u_v < 0 else u_v
    if u_dirw and not (u_entry is not None and u_entry.is_unconditional):
        u_dp = $REC.direction_provider
        if u_dp is D_PHTS:
            u_mis = SHORT_T
        elif u_dp is D_PHTL:
            u_mis = LONG_T
        else:
            u_mis = None
        tage_install_mis($REC.address, $REC.gpv_snapshot, u_taken, u_mis)
        u_perc = $REC.perceptron
        if u_perc is None or not u_perc.hit:
            perc_install($REC.address)
    u_perc = $REC.perceptron
    if u_perc is not None and u_perc.hit:
        if $REC.direction_provider is D_PERC:
            u_cmp = $REC.alternate_taken
        else:
            u_cmp = $REC.predicted_taken
        perc_update(u_perc, u_taken, u_cmp)
    u_atgt = $REC.actual_target
    if u_taken and u_atgt is not None:
        u_tgtw = $REC.predicted_taken and $REC.predicted_target != u_atgt
        if u_tgtw:
            u_tp = $REC.target_provider
            if u_tp is T_BTB1:
                if u_entry is not None:
                    u_entry.target = u_atgt
                    u_entry.multi_target = True
                ctb_install($REC.address, $REC.context, $REC.gpv_snapshot, u_atgt)
            elif u_tp is T_CTB and $REC.ctb is not None:
                ctb_correct($REC.ctb, u_atgt)
            elif u_tp is T_CRS:
                crs.blacklists += 1
                if u_entry is not None:
                    u_entry.crs_blacklisted = True
        u_match = None
        if crs_on:
            u_stk = crs_dstacks.get($REC.thread)
            if u_stk is None:
                u_stk = crs_dstacks[$REC.thread] = CrsStack()
            if u_stk.valid:
                u_delta = u_atgt - u_stk.nsia
                if u_delta in crs_offsets:
                    u_match = u_delta
            if u_match is not None:
                crs.detections += 1
                u_stk.valid = False
            else:
                u_d2 = u_atgt - $REC.address
                if (u_d2 if u_d2 >= 0 else -u_d2) >= crs_dist:
                    u_stk.nsia = $REC.address + $REC.length
                    u_stk.valid = True
        if u_entry is not None:
            if u_match is not None and u_entry.return_offset is None:
                u_entry.return_offset = u_match
            if u_tgtw and u_entry.crs_blacklisted:
                if crs_amnesty(u_match is not None):
                    u_entry.crs_blacklisted = False
else:
    upd_sur($REC)
if wq_items:
    drained = 0
    while drained < $DRAIN:
        command = wq_try_pop()
        if command is None:
            break
        result = btb1_install(command.address, command.context, command.entry)
#IF BTB2
        if result.installed and result.victim is not None:
            btb2_evict(result.victim)
#ENDIF
        drained += 1
"""


# --- _TageTable.lookup inlined (spliced once per table) ---------------
# ``@`` is the table's local prefix at the splice site (``ts`` short,
# ``tl`` long).  The first matching way in way order hits, as in the
# method; a row that was never written is a miss and stays unbuilt.
# The XOR folds run in three shift-XOR steps when the value fits in
# eight fold-width chunks (the XOR of chunks 0..7 lands in chunk 0:
# halve the span, fold, repeat), and as the method's chunk loop
# otherwise; both give the same fold.

_PROBE = """\
@_way = -1
u_v = gpv_snapshot & @_hmask
u_row = 0
if tg_rowbits:
    u_x = (address >> 1) ^ (u_v * 0x5BD1) ^ (u_v >> tg_rowbits)
    if u_x >> tg_rowspan:
        while u_x:
            u_row ^= u_x & tg_rowmask
            u_x >>= tg_rowbits
    else:
        u_x ^= u_x >> tg_rowbits4
        u_x ^= u_x >> tg_rowbits2
        u_row = (u_x ^ (u_x >> tg_rowbits)) & tg_rowmask
u_rl = @_data[u_row]
if u_rl is not None:
    u_x = (address >> 3) ^ (u_v * 0xC2B2) ^ (address << 2)
    if u_x >> tg_tagspan:
        u_tag = 0
        while u_x:
            u_tag ^= u_x & tg_tagmask
            u_x >>= tg_tagbits
    else:
        u_x ^= u_x >> tg_tagbits4
        u_x ^= u_x >> tg_tagbits2
        u_tag = (u_x ^ (u_x >> tg_tagbits)) & tg_tagmask
    u_w = 0
    for u_e in u_rl:
        if u_e is not None and u_e.tag == u_tag:
            $INC_THIT
            u_pol = @_pols[u_row]
            if u_pol is None:
                u_pol = @_pols[u_row] = tg_polf(tg_ways)
            # TrueLru.touch (TAGE tables are always true LRU)
            u_o = u_pol._order
            u_o.remove(u_w)
            u_o.append(u_w)
            u_v = u_e.counter.value
            @_way = u_w
            @_row = u_row
            @_tag = u_tag
            @_taken = u_v >= tg_mid
            @_weak = u_v == tg_mid or u_v == tg_mid - 1
            break
        u_w += 1
"""


def _splice(text: str, marker: str, body: str, placeholder: str) -> str:
    """Replace ``<marker> <name>`` lines with *body*, indented to the
    marker and with *placeholder* bound to the site's name (the record
    variable of an ``#APPLY`` site, the table prefix of a ``#PROBE``
    site)."""
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(marker + " "):
            name = stripped[len(marker) + 1:].strip()
            indent = line[: len(line) - len(line.lstrip())]
            out.append(
                textwrap.indent(body.replace(placeholder, name), indent).rstrip("\n")
            )
        else:
            out.append(line)
    return "\n".join(out) + "\n"


_HOISTS = """\
tstates = P._threads
mk_state = P._thread_state
btb1 = P.btb1
if btb1.on_search is not None:
    raise _TapError(_TAP_MESSAGE)
btb1_remove = btb1.remove
btb1_install = btb1.install
b1_table = btb1._table
b1_data = b1_table._data
b1_pols = b1_table._policies
b1_polf = b1_table._policy_factory
b1_ways = b1_table.ways
b1_rowmask = btb1._row_mask
b1_rowbits = btb1._row_bits
b1_tagmask = btb1._tag_fold_mask
b1_tagbits = btb1._tag_bits
new_hit = _BtbHit
LONG_T = _LONG
SHORT_T = _SHORT
tage = P.tage
tage_install_mis = tage.install_on_mispredict
ts_tbl = tage.short_table
# The tables' own name objects, which the methods store in lookups,
# snapshots and SPHT keys: a restored predictor's names are not the
# module constants, and a pickle tells the two apart.
ts_name = ts_tbl.name
ts_data = ts_tbl._table._data
ts_pols = ts_tbl._table._policies
ts_hmask = ts_tbl._history_mask
#IF TAGE
tl_tbl = tage.long_table
tl_name = tl_tbl.name
tl_data = tl_tbl._table._data
tl_pols = tl_tbl._table._policies
tl_hmask = tl_tbl._history_mask
#ENDIF
# Both tables are built from one PhtConfig: one geometry, one fold.
tg_polf = ts_tbl._table._policy_factory
tg_ways = ts_tbl._table.ways
tg_rowbits = ts_tbl._row_bits
tg_rowmask = ts_tbl._row_fold_mask
tg_tagbits = ts_tbl._tag_bits
tg_tagmask = ts_tbl._tag_fold_mask
tg_rowbits2 = 2 * tg_rowbits
tg_rowbits4 = 4 * tg_rowbits
tg_rowspan = 8 * tg_rowbits
tg_tagbits2 = 2 * tg_tagbits
tg_tagbits4 = 4 * tg_tagbits
tg_tagspan = 8 * tg_tagbits
tg_mid = (1 << tage.config.counter_bits) // 2
tg_thr = tage.config.weak_threshold
tg_conf_s = tage._weak_confidence[SHORT_T]
tg_conf_l = tage._weak_confidence[LONG_T]
TageSnapT = TageLookupSnapshot
new_tsnap = _new_tage_snapshot
perc_install = P.perceptron.install
perc_update = P.perceptron.update
ctb_install = P.ctb.install
ctb_correct = P.ctb.correct_target
#IF BTB2
btb2 = P.btb2
btb2_staging_items = btb2.staging._items
btb2_drain = btb2.drain_staging
btb2_note = btb2.note_search_outcome
btb2_reset = btb2.reset_empty_counter
btb2_surprise = btb2.note_surprise_branch
btb2_evict = btb2.handle_btb1_eviction
#ENDIF
perc_lookup = P.perceptron.lookup
#IF SPEC
sbht = P.sbht
spht = P.spht
sbht_entries = sbht._entries
spht_entries = spht._entries
sbht_order = sbht._insertion_order
spht_order = spht._insertion_order
sbht_install = sbht.install
spht_install = spht.install
sbht_retire = sbht.retire
spht_retire = spht.retire
install_corrected = P._install_corrected_overlays
#ENDIF
ctb_lookup_fn = P.ctb.lookup
crs = P.crs
crs_on = crs.enabled
crs_dist = crs.config.distance_threshold
crs_offsets = crs.config.return_offsets
crs_pstacks = crs._predict_stacks
crs_dstacks = crs._detect_stacks
crs_amnesty = crs.consider_amnesty
CrsStack = _CrsStack
CrsPredT = _CrsPrediction
new_crspred = _new_crspred
CpredLookupT = _CpredLookup
new_cpred_lookup = _new_cpred_lookup
CpredEntryT = _CpredEntry
new_cpred_entry = _new_cpred_entry
cpred = P.cpred
cpred_on = cpred.enabled
cpred_table = cpred._table
cpred_data = cpred_table._data
cpred_pols = cpred_table._policies
cpred_ways = cpred_table.ways
cpred_polf = cpred_table._policy_factory
cpred_rowbits = cpred._row_bits
cpred_rowmask = cpred._row_fold_mask
cpred_rowcount = cpred._row_count
cpred_tagbits = cpred._tag_bits
cpred_tagmask = cpred._tag_fold_mask
gpq = P.gpq
gpq_items = gpq._items
gpq_popleft = gpq_items.popleft
gpq_append = gpq_items.append
wq = P.write_queue
wq_items = wq._items
wq_try_pop = wq.try_pop
upd_dyn = P._update_dynamic
upd_sur = P._update_surprise
begin_stream = _begin_stream
static_guess = _static_guess_taken
static_known = _static_target_known
Record = PredictionRecord
new_record = _new_record
Trace = SearchTrace
new_trace = _new_trace
Outcome = PredictionOutcome
new_outcome = _new_outcome
D_UNCOND = _D_UNCOND
D_PERC = _D_PERC
D_SPHT = _D_SPHT
D_PHTL = _D_PHTL
D_PHTS = _D_PHTS
D_SBHT = _D_SBHT
D_BHT = _D_BHT
D_STATIC = _D_STATIC
T_BTB1 = _T_BTB1
T_CRS = _T_CRS
T_CTB = _T_CTB
T_NONE = _T_NONE
T_STATREL = _T_STATREL
K_NONE = _K_NONE
K_DIRW = _K_DIRW
K_TGTW = _K_TGTW
K_SURT = _K_SURT
K_SGTR = _K_SGTR
K_SGTI = _K_SGTI
K_SGW = _K_SGW
drain_cd = P._staging_drain_countdown
cur_thread = None
state = None
gpv = None
crs_pstk = None
"""


_STATS_LOCALS = """\
stats_obj = stats
classes = stats_obj.classes
dprov = stats_obj.direction_providers
tprov = stats_obj.target_providers
s_branches = 0
s_dyn = 0
s_sur = 0
s_taken = 0
s_mis = 0
s_dirw = 0
s_tgtw = 0
s_ptd = 0
s_lines = 0
s_empty = 0
s_skoot = 0
s_overshoot = 0
s_btb2 = 0
s_bad = 0
s_badtaken = 0
s_cpredacc = 0
"""


_BARE_COUNTERS = """\
n_pred = 0
n_dyn = 0
n_sur = 0
n_rst = 0
n_b1s = 0
n_b1h = 0
n_tlook = 0
n_tsel = 0
n_tsup = 0
ts_hits = 0
#IF TAGE
tl_hits = 0
#ENDIF
"""


_PREDICTOR_FLUSH = """\
P.predictions += n_pred
P.dynamic_predictions += n_dyn
P.surprise_branches += n_sur
P.restarts += n_rst
btb1.searches += n_b1s
btb1.hit_searches += n_b1h
tage.lookups += n_tlook
tage.provider_selections += n_tsel
tage.weak_filter_suppressions += n_tsup
ts_tbl.hits += ts_hits
#IF TAGE
tl_tbl.hits += tl_hits
#ENDIF
P._staging_drain_countdown = drain_cd
"""


_STATS_FLUSH = """\
stats_obj.branches += s_branches
stats_obj.dynamic_predictions += s_dyn
stats_obj.surprise_branches += s_sur
stats_obj.taken_branches += s_taken
stats_obj.mispredicted_branches += s_mis
stats_obj.direction_wrong += s_dirw
stats_obj.target_wrong += s_tgtw
stats_obj.predicted_taken_dynamic += s_ptd
stats_obj.lines_searched += s_lines
stats_obj.empty_searches += s_empty
stats_obj.lines_skipped_by_skoot += s_skoot
stats_obj.skoot_overshoots += s_overshoot
stats_obj.btb2_triggers += s_btb2
stats_obj.bad_predictions_removed += s_bad
stats_obj.bad_taken_restarts += s_badtaken
stats_obj.cpred_accelerated_streams += s_cpredacc
"""


_BEGIN_STREAM = """\
def _begin_stream(P, state, start, context, opener):
    pending_skip = 0
#IF SKOOT
    if opener is not None:
        skoot_v = opener.skoot
        if skoot_v is not None:
            pending_skip = skoot_v
#ENDIF
    s = _new_stream(_Stream)
    s.start_address = start
    s.context = context
    s.opener = opener
    s.pending_skip = pending_skip
    s.first_branch_trained = False
    s.searches_done = 0
    s.needed_power_mask = 0
    cpred = P.cpred
    if not cpred.enabled:
        look = _new_cpred_lookup(_CpredLookup)
        look.hit = False
        look.row = 0
        look.tag = 0
        look.searches_to_taken = 0
        look.way = 0
        look.redirect_address = 0
        look.power_mask = $PALL
    else:
        cpred.lookups += 1
        value = start >> 1
        row = 0
        row_bits = cpred._row_bits
        fold_mask = cpred._row_fold_mask
        while value:
            row ^= value & fold_mask
            value >>= row_bits
        row %= cpred._row_count
        value = (start >> 4) ^ (context * 0x1F7B)
        tag = 0
        tag_bits = cpred._tag_bits
        fold_mask = cpred._tag_fold_mask
        while value:
            tag ^= value & fold_mask
            value >>= tag_bits
        table = cpred._table
        data = table._data[row]
        if data is None:
            data = table._data[row] = [None] * table.ways
        found = None
        way = 0
        for entry in data:
            if entry is not None and entry.tag == tag:
                found = entry
                break
            way += 1
        look = _new_cpred_lookup(_CpredLookup)
        look.row = row
        look.tag = tag
        if found is None:
            look.hit = False
            look.searches_to_taken = 0
            look.way = 0
            look.redirect_address = 0
            look.power_mask = $PALL
        else:
            pol = table._policies[row]
            if pol is None:
                pol = table._policies[row] = table._policy_factory(table.ways)
            pol.touch(way)
            cpred.hits += 1
            look.hit = True
            look.searches_to_taken = found.searches_to_taken
            look.way = found.way
            look.redirect_address = found.redirect_address
            look.power_mask = found.power_mask
    s.cpred_lookup = look
    state.stream = s
"""


# Counters: locals flushed in ``finally`` on bare kernels, attribute
# updates on observed ones (telemetry harvests them mid-run).  ``@`` in
# INC_THIT is the probed table's prefix (see _PROBE).
_BARE_SUBS = {
    "INC_PRED": "n_pred += 1",
    "INC_DYN": "n_dyn += 1",
    "INC_SUR": "n_sur += 1",
    "INC_RST": "n_rst += 1",
    "INC_B1S": "n_b1s += 1",
    "INC_B1H": "n_b1h += 1",
    "INC_TLOOK": "n_tlook += 1",
    "INC_TSEL": "n_tsel += 1",
    "INC_TSUP": "n_tsup += 1",
    "INC_THIT": "@_hits += 1",
    "SYNC_DRAIN": "pass",
}

_OBSERVED_SUBS = {
    "INC_PRED": "P.predictions += 1",
    "INC_DYN": "P.dynamic_predictions += 1",
    "INC_SUR": "P.surprise_branches += 1",
    "INC_RST": "P.restarts += 1",
    "INC_B1S": "btb1.searches += 1",
    "INC_B1H": "btb1.hit_searches += 1",
    "INC_TLOOK": "tage.lookups += 1",
    "INC_TSEL": "tage.provider_selections += 1",
    "INC_TSUP": "tage.weak_filter_suppressions += 1",
    "INC_THIT": "@_tbl.hits += 1",
    "SYNC_DRAIN": "P._staging_drain_countdown = drain_cd",
}


def _indent(text: str, spaces: int) -> str:
    return textwrap.indent(text, " " * spaces)


def generate_kernel_source(shape: Tuple) -> str:
    """The full generated module text for one config shape (pure
    function of the shape — tests introspect it)."""
    (
        has_btb2,
        skoot_enabled,
        spec_enabled,
        two_tables,
        line_size,
        walk_cap,
        completion_delay,
        gpq_capacity,
        write_drain,
        visibility_lines,
        skoot_max,
    ) = shape
    shape_flags = {
        "BTB2": has_btb2,
        "SKOOT": skoot_enabled,
        "SPEC": spec_enabled,
        "TAGE": two_tables,
    }
    subs_base = {
        "LINE": str(line_size),
        "LSHIFT": str(line_size.bit_length() - 1),
        "CAP": str(walk_cap),
        "CAPBYTES": str(walk_cap * line_size),
        "CDELAY": str(completion_delay),
        "GPQCAP": str(gpq_capacity),
        "DRAIN": str(write_drain),
        "DRAIN2": str(2 * write_drain),
        "VIS": str(visibility_lines),
        "SKOOTMAX": str(skoot_max),
        "PPMASK": str(POWER_PHT | POWER_PERCEPTRON),
        "PPERC": str(POWER_PERCEPTRON),
        "PPHT": str(POWER_PHT),
        "PCTB": str(POWER_CTB),
    }

    def core(extra_flags: Dict[str, bool], subs: Dict[str, str]) -> str:
        flags = dict(shape_flags)
        flags.update(extra_flags)
        merged = dict(subs_base)
        merged.update(subs)
        text = _render(_splice(_CORE, "#APPLY", _APPLY, "$REC"), flags, merged)
        return _splice(text, "#PROBE", _render(_PROBE, flags, merged), "@")

    hoists = _render(_HOISTS, shape_flags, {})
    bare_counters = _render(_BARE_COUNTERS, shape_flags, {})
    predictor_flush = _render(_PREDICTOR_FLUSH, shape_flags, {})
    begin_stream = _render(
        _BEGIN_STREAM, shape_flags, {"PALL": str(POWER_ALL)}
    )

    parts = [
        f'"""Specialized prediction kernels for shape {shape!r}.\n'
        "\n"
        "Generated by repro.engine.specialize; do not edit.  The\n"
        "reference semantics live in repro.core.predictor.\n"
        '"""\n',
        begin_stream,
    ]

    # -- counted_bare ----------------------------------------------------
    parts.append(
        "def counted_bare(P, stream, stats):\n"
        + _indent(hoists, 4)
        + _indent(bare_counters, 4)
        + _indent(_STATS_LOCALS, 4)
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"FOLD": True}, _BARE_SUBS), 12)
        + "    finally:\n"
        + _indent(predictor_flush, 8)
        + _indent(_STATS_FLUSH, 8)
        + "    return s_branches\n"
    )

    # -- counted_observed ------------------------------------------------
    parts.append(
        "def counted_observed(P, stream, stats, observer, extra):\n"
        + _indent(hoists, 4)
        + "    stats_record = stats.record\n"
        + "    count = 0\n"
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"ALLOC": True}, _OBSERVED_SUBS), 12)
        + "            if observer is not None:\n"
        + "                observer(outcome)\n"
        + "            stats_record(outcome)\n"
        + "            if extra is not None:\n"
        + "                extra(outcome)\n"
        + "            count += 1\n"
        + "    finally:\n"
        + "        P._staging_drain_countdown = drain_cd\n"
        + "    return count\n"
    )

    # -- warmup_bare -----------------------------------------------------
    parts.append(
        "def warmup_bare(P, stream, warmup_branches):\n"
        + _indent(hoists, 4)
        + _indent(bare_counters, 4)
        + "    consumed = 0\n"
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({}, _BARE_SUBS), 12)
        + "            consumed += 1\n"
        + "            if consumed == warmup_branches:\n"
        + "                break\n"
        + "    finally:\n"
        + _indent(predictor_flush, 8)
        + "    return consumed\n"
    )

    # -- warmup_observed -------------------------------------------------
    parts.append(
        "def warmup_observed(P, stream, warmup_branches, observer):\n"
        + _indent(hoists, 4)
        + "    consumed = 0\n"
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"ALLOC": True}, _OBSERVED_SUBS), 12)
        + "            observer(outcome)\n"
        + "            consumed += 1\n"
        + "            if consumed == warmup_branches:\n"
        + "                break\n"
        + "    finally:\n"
        + "        P._staging_drain_countdown = drain_cd\n"
        + "    return consumed\n"
    )

    # -- events_bare -----------------------------------------------------
    parts.append(
        "def events_bare(P, stream, stats):\n"
        + _indent(hoists, 4)
        + _indent(bare_counters, 4)
        + _indent(_STATS_LOCALS, 4)
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"FOLD": True, "EVENTS": True}, _BARE_SUBS), 12)
        + "    finally:\n"
        + _indent(predictor_flush, 8)
        + _indent(_STATS_FLUSH, 8)
        + "    return s_branches\n"
    )

    # -- events_observed -------------------------------------------------
    parts.append(
        "def events_observed(P, stream, stats, observer, extra):\n"
        + _indent(hoists, 4)
        + "    stats_record = stats.record\n"
        + "    count = 0\n"
        + "    try:\n"
        + "        for branch in stream:\n"
        + _indent(core({"ALLOC": True, "EVENTS": True}, _OBSERVED_SUBS), 12)
        + "            if observer is not None:\n"
        + "                observer(outcome)\n"
        + "            stats_record(outcome)\n"
        + "            if extra is not None:\n"
        + "                extra(outcome)\n"
        + "            count += 1\n"
        + "    finally:\n"
        + "        P._staging_drain_countdown = drain_cd\n"
        + "    return count\n"
    )

    # -- predict_flat ----------------------------------------------------
    parts.append(
        "def predict_flat(P, branch):\n"
        + _indent(hoists, 4)
        + _indent(core({"ALLOC": True}, _OBSERVED_SUBS), 4)
        + "    return outcome\n"
    )

    return "\n".join(parts)


def _compile_shape(shape: Tuple) -> SpecializedKernels:
    source = generate_kernel_source(shape)
    filename = f"<repro-specialized-{'-'.join(str(s) for s in shape)}>"
    namespace = {
        "_Stream": _Stream,
        "_new_stream": _Stream.__new__,
        "PredictionRecord": PredictionRecord,
        "_new_record": PredictionRecord.__new__,
        "SearchTrace": SearchTrace,
        "_new_trace": SearchTrace.__new__,
        "PredictionOutcome": PredictionOutcome,
        "_new_outcome": PredictionOutcome.__new__,
        "TageLookupSnapshot": TageLookupSnapshot,
        "_new_tage_snapshot": TageLookupSnapshot.__new__,
        "_BtbHit": BtbHit,
        "_TapError": ConfigError,
        "_TAP_MESSAGE": _TAP_MESSAGE,
        "ContextSwitch": ContextSwitch,
        "_static_guess_taken": static_guess_taken,
        "_static_target_known": static_target_known,
        "_D_UNCOND": DirectionProvider.UNCONDITIONAL,
        "_D_PERC": DirectionProvider.PERCEPTRON,
        "_D_SPHT": DirectionProvider.SPHT,
        "_D_PHTL": DirectionProvider.PHT_LONG,
        "_D_PHTS": DirectionProvider.PHT_SHORT,
        "_D_SBHT": DirectionProvider.SBHT,
        "_D_BHT": DirectionProvider.BHT,
        "_D_STATIC": DirectionProvider.STATIC,
        "_T_BTB1": TargetProvider.BTB1,
        "_T_CRS": TargetProvider.CRS,
        "_T_CTB": TargetProvider.CTB,
        "_T_NONE": TargetProvider.NONE,
        "_T_STATREL": TargetProvider.STATIC_RELATIVE,
        "_K_NONE": MispredictClass.NONE,
        "_K_DIRW": MispredictClass.DIRECTION_WRONG,
        "_K_TGTW": MispredictClass.TARGET_WRONG,
        "_K_SURT": MispredictClass.SURPRISE_TAKEN,
        "_K_SGTR": MispredictClass.SURPRISE_GUESSED_TAKEN_RELATIVE,
        "_K_SGTI": MispredictClass.SURPRISE_GUESSED_TAKEN_INDIRECT,
        "_K_SGW": MispredictClass.SURPRISE_GUESS_WRONG,
        "_LONG": LONG,
        "_SHORT": SHORT,
        "_CrsStack": _CrsStack,
        "_CrsPrediction": CrsPrediction,
        "_new_crspred": CrsPrediction.__new__,
        "_CpredLookup": CpredLookup,
        "_new_cpred_lookup": CpredLookup.__new__,
        "_CpredEntry": CpredEntry,
        "_new_cpred_entry": CpredEntry.__new__,
    }
    code = compile(source, filename, "exec")
    exec(code, namespace)
    # Register the source so tracebacks through generated code show
    # real lines (the namedtuple trick, one better).
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    return SpecializedKernels(shape, source, namespace)


def effective_engine_mode(engine_mode: str, predictor) -> str:
    """The mode a run will actually use: baselines and other non-z15
    predictor protocols have no specialized kernel and silently fall
    back to the reference path."""
    if engine_mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {engine_mode!r}; expected one of {ENGINE_MODES}"
        )
    if engine_mode == "fast" and isinstance(predictor, LookaheadBranchPredictor):
        return "fast"
    return "reference"
