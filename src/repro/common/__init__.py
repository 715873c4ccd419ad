"""Shared low-level utilities: address math, bit manipulation, RNG, errors.

Everything in this package is intentionally free of dependencies on the
rest of :mod:`repro` so that any other subpackage may import it.
"""

from repro.common.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    discard_stale_temps,
    fsync_directory,
)
from repro.common.addresses import (
    HALFWORD,
    LINE_SIZE,
    align_down,
    align_up,
    line_index,
    line_of,
    line_offset,
    lines_between,
    next_line,
)
from repro.common.bits import bit_select, fold_xor, mask, popcount, rotate_left
from repro.common.corruption import Corruption, flipped_bits
from repro.common.errors import (
    AuditError,
    ConfigError,
    ReproError,
    SimulationError,
    StateFormatError,
    TraceFormatError,
    VerificationError,
)
from repro.common.jsonl import JsonlWriter, format_location, iter_jsonl
from repro.common.rng import DeterministicRng
from repro.common.signals import GracefulShutdown, exit_code_for

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "discard_stale_temps",
    "exit_code_for",
    "format_location",
    "fsync_directory",
    "iter_jsonl",
    "JsonlWriter",
    "GracefulShutdown",
    "HALFWORD",
    "LINE_SIZE",
    "align_down",
    "align_up",
    "line_index",
    "line_of",
    "line_offset",
    "lines_between",
    "next_line",
    "bit_select",
    "fold_xor",
    "mask",
    "popcount",
    "rotate_left",
    "AuditError",
    "ConfigError",
    "Corruption",
    "ReproError",
    "SimulationError",
    "StateFormatError",
    "TraceFormatError",
    "VerificationError",
    "flipped_bits",
    "DeterministicRng",
]
