"""Simulation engines: functional (accuracy), cycle-level (timing), the
array-backed prediction backend, and the deterministic warm-pool sweep
runner (with JSONL checkpoint streams and fleet-scale grids).  The
shared per-branch consume sequence they all drive lives in
:mod:`repro.engine.kernel`."""

from repro.engine.array import (
    BACKENDS,
    ArrayLookaheadBranchPredictor,
    create_predictor,
    predictor_class,
)
from repro.engine.cycle import CycleEngine, CycleStats
from repro.engine.fleet import build_fleet_grid, run_fleet
from repro.engine.functional import FunctionalEngine
from repro.engine.parallel import (
    CellError,
    PayloadRegistry,
    SweepCell,
    SweepResult,
    cell_fingerprint,
    make_grid,
    run_cells,
    stream_cells,
)
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
from repro.engine.stream import (
    RestoredStats,
    SweepStreamWriter,
    load_stream,
    restore_completed,
    result_to_row,
    row_to_result,
    run_checkpointed,
)

__all__ = [
    "ArrayLookaheadBranchPredictor",
    "BACKENDS",
    "create_predictor",
    "predictor_class",
    "CycleEngine",
    "CycleStats",
    "FunctionalEngine",
    "CellError",
    "PayloadRegistry",
    "SweepCell",
    "SweepResult",
    "cell_fingerprint",
    "make_grid",
    "run_cells",
    "stream_cells",
    "RestoredStats",
    "SweepStreamWriter",
    "load_stream",
    "restore_completed",
    "result_to_row",
    "row_to_result",
    "run_checkpointed",
    "build_fleet_grid",
    "run_fleet",
    "ENGINE_MODES",
    "SpecializedKernels",
    "clear_kernel_cache",
    "config_shape",
    "effective_engine_mode",
    "generate_kernel_source",
    "kernels_for",
    "kernels_for_config",
]
