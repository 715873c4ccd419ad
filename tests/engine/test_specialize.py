"""Unit contract of the config-specialized kernel generator.

The equivalence battery (``test_fast_mode_equivalence.py``) proves the
compiled kernels *behave* identically; this module pins the generator
machinery itself — shape derivation, source hygiene (no unexpanded
template markers), process-wide caching, and the mode-resolution rules
(`fast` silently falls back to `reference` for baseline predictors,
unknown modes are rejected loudly).
"""

import pytest

from repro.baselines import BimodalPredictor
from repro.common.errors import ConfigError
from repro.configs import GENERATIONS, z15_config
from repro.core.predictor import LookaheadBranchPredictor
from repro.engine import CycleEngine, FunctionalEngine
from repro.engine.specialize import (
    ENGINE_MODES,
    SpecializedKernels,
    clear_kernel_cache,
    config_shape,
    effective_engine_mode,
    generate_kernel_source,
    kernels_for,
    kernels_for_config,
)
from repro.workloads import get_workload
from tests.conftest import small_predictor_config

KERNEL_NAMES = (
    "counted_bare", "counted_observed", "warmup_bare", "warmup_observed",
    "events_bare", "events_observed", "predict_flat",
)


def test_config_shape_is_hashable_and_config_dependent():
    z15 = config_shape(z15_config())
    tiny = config_shape(small_predictor_config())
    assert hash(z15) is not None
    assert z15 != tiny
    assert z15 == config_shape(z15_config())


@pytest.mark.parametrize("generation", sorted(GENERATIONS))
def test_every_generation_compiles_all_kernels(generation):
    factory, _ = GENERATIONS[generation]
    kernels = kernels_for_config(factory())
    assert isinstance(kernels, SpecializedKernels)
    for name in KERNEL_NAMES:
        assert callable(getattr(kernels, name)), name


def test_generated_source_has_no_unexpanded_markers():
    """Every ``#IF``/``#ELSE``/``#ENDIF``/``#APPLY`` marker and every
    ``$TOKEN`` must be resolved at generation time — a leftover marker
    means a template branch silently shipped as a comment."""
    for config in (z15_config(), small_predictor_config()):
        source = generate_kernel_source(config_shape(config))
        for marker in ("#IF", "#ELSE", "#ENDIF", "#APPLY", "#PROBE", "$",
                       "@"):
            assert marker not in source, f"unexpanded {marker!r} in source"


def test_kernels_are_cached_per_shape():
    clear_kernel_cache()
    first = kernels_for_config(z15_config())
    second = kernels_for_config(z15_config())
    assert first is second
    other = kernels_for_config(small_predictor_config())
    assert other is not first
    clear_kernel_cache()
    assert kernels_for_config(z15_config()) is not first


def test_kernels_for_predictor_uses_its_config():
    predictor = LookaheadBranchPredictor(z15_config())
    assert kernels_for(predictor) is kernels_for_config(z15_config())


def test_effective_engine_mode_validates():
    predictor = LookaheadBranchPredictor(z15_config())
    assert effective_engine_mode("reference", predictor) == "reference"
    assert effective_engine_mode("fast", predictor) == "fast"
    with pytest.raises(ValueError):
        effective_engine_mode("warp", predictor)


def test_fast_mode_falls_back_for_baselines():
    """Baselines have no PredictorConfig to specialize on; requesting
    fast mode on one is a silent no-op, not an error — sweeps may mix
    baselines into a fast grid."""
    assert effective_engine_mode("fast", BimodalPredictor()) == "reference"


def test_engine_modes_tuple_is_the_public_axis():
    assert ENGINE_MODES == ("reference", "fast")


def test_config_shape_keys_the_tage_table_count():
    """zEC12-z14 run one tagged PHT, z15 two: the probe code differs."""
    one_table = config_shape(GENERATIONS["z14"][0]())
    two_tables = config_shape(z15_config())
    assert one_table[3] is False and two_tables[3] is True


@pytest.mark.parametrize("drive", ["functional", "cycle"])
def test_fast_drive_refuses_an_attached_btb1_search_tap(drive):
    """The kernels read BTB1 rows inline and never call
    ``Btb1.search_line``, so a search tap would see nothing: a fast
    drive with one attached raises a one-line ConfigError before it
    predicts anything, and the reference pipeline still fires it."""
    searches = []

    def tap(**event):
        searches.append(event["line_base"])

    def run(mode):
        predictor = LookaheadBranchPredictor(z15_config())
        predictor.btb1.on_search = tap
        if drive == "cycle":
            engine = CycleEngine(predictor, engine_mode=mode)
            return predictor, lambda: engine.run_program(
                get_workload("patterned", 1), max_branches=200)
        engine = FunctionalEngine(predictor, engine_mode=mode)
        return predictor, lambda: engine.run_program(
            get_workload("patterned", 1), max_branches=200,
            warmup_branches=100)

    predictor, go = run("fast")
    with pytest.raises(ConfigError, match="on_search") as caught:
        go()
    assert "\n" not in str(caught.value)
    assert predictor.predictions == 0 and not searches
    _predictor, go = run("reference")
    go()
    assert searches
