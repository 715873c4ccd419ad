"""Wire protocol for the prediction service.

One request or response per line, each a JSON object — the same
newline-delimited discipline every other artifact in this repo uses, so
the loaders, torn-tail rules and fsync story carry over unchanged.

Requests carry ``op`` plus an ``id`` the response echoes, so a client
may pipeline.  Responses carry exactly one ``status``:

``ok``
    The request was served; the payload rides alongside.
``rejected``
    The request was refused *cleanly* (queue full, deadline exceeded,
    load shed, bad sequence number…) — the tenant's predictor state did
    not advance on its behalf.  ``code`` says why.
``retry``
    The owning shard was restarting; the request was not lost, merely
    unanswerable right now.  Resend the same sequence number.
``error``
    A protocol-level problem (malformed request, unknown op).

Branch batches travel as compact arrays (one row per branch) rather
than objects: at thousands of branches per batch the key repetition
would dominate the wire.  The row layout is
``[sequence, address, length, kind, static_target, taken, target,
context, thread]``.

Every accepted batch advances a *chained fingerprint*:
``fp' = sha256(fp + canonical_json(records))`` over the hex digest and
the canonical (sorted-key, no-whitespace) encoding of the prediction
records.  Unlike a raw hash object the chain value is a plain string,
so it checkpoints, journals and replays; byte-identical streams and
identical chains are equivalent by construction.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ServeError
from repro.isa.dynamic import DynamicBranch
from repro.isa.instructions import BranchKind, Instruction

PROTOCOL_SCHEMA = "repro-serve/v1"

#: Hard cap on one wire line; beyond this something is wrong, not big.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: The fingerprint chain's genesis value (no batches folded yet).
GENESIS_FINGERPRINT = hashlib.sha256(PROTOCOL_SCHEMA.encode("ascii")).hexdigest()

#: Tenant names double as spool directory names; keep them boring.
TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

# Rejection codes (status == "rejected").
REJECT_QUEUE_FULL = "queue-full"
REJECT_SHED = "shed"
REJECT_DEADLINE = "deadline"
REJECT_BAD_SEQ = "bad-seq"
REJECT_UNKNOWN_TENANT = "unknown-tenant"
REJECT_CLOSED = "closed"

# Retry codes (status == "retry").
RETRY_SHARD_RESTART = "shard-restart"

OPS = ("hello", "open", "predict", "stats", "close", "metrics", "chaos")


def validate_tenant(name: object) -> str:
    """Check a tenant name is a safe spool-directory component."""
    if not isinstance(name, str) or not TENANT_PATTERN.match(name):
        raise ServeError(
            f"invalid tenant name {name!r} (want {TENANT_PATTERN.pattern})"
        )
    return name


# -- framing -------------------------------------------------------------


def encode_message(message: Dict) -> bytes:
    """One wire line for *message* (compact JSON + newline)."""
    return json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict:
    """Parse one wire line; :class:`ServeError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ServeError(f"wire line exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ServeError(f"malformed wire line: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError(
            f"wire line must be a JSON object, got {type(message).__name__}"
        )
    return message


# -- branch codec --------------------------------------------------------


def encode_branch(branch: DynamicBranch) -> List:
    """One wire row for *branch* (see module docstring for the layout)."""
    return [
        branch.sequence,
        branch.address,
        branch.instruction.length,
        branch.kind.value,
        branch.instruction.static_target,
        1 if branch.taken else 0,
        branch.target,
        branch.context,
        branch.thread,
    ]


#: Bound on the static-instruction decode cache.  Real traffic repeats
#: a few hundred static sites per tenant (``transactions``: 337 in 16K
#: branches), so a warm cache serves nearly every row; the bound caps
#: what hostile input that never repeats a site can make it hold.
DECODE_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=DECODE_CACHE_SIZE, typed=True)
def _static_instruction(address, length, kind, static_target) -> Instruction:
    """The frozen :class:`Instruction` of one static site, shared by
    every row that names it (as the executor shares one per site).
    ``typed=True`` keeps ``4``/``4.0``/``True`` apart, so a warm cache
    never changes what a row decodes to; a rejected site raises (an
    unhashable field, with ``TypeError``) and is never cached."""
    return Instruction(
        address=address,
        length=length,
        kind=BranchKind(kind),
        static_target=static_target,
    )


def decode_branch(row: Sequence) -> DynamicBranch:
    """Rebuild the :class:`DynamicBranch` a wire row describes."""
    if not isinstance(row, (list, tuple)) or len(row) != 9:
        raise ServeError(f"branch row must have 9 fields, got {row!r}")
    sequence, address, length, kind, static_target, taken, target, \
        context, thread = row
    try:
        return DynamicBranch(
            sequence=sequence,
            instruction=_static_instruction(address, length, kind,
                                            static_target),
            taken=bool(taken),
            target=target,
            thread=thread,
            context=context,
        )
    except (ValueError, TypeError) as exc:
        raise ServeError(f"invalid branch row {row!r}: {exc}") from exc


def encode_record(outcome) -> List:
    """The served prediction for one branch:
    ``[dynamic, predicted_taken, predicted_target, mispredicted]``."""
    record = outcome.record
    return [
        1 if record.dynamic else 0,
        1 if record.predicted_taken else 0,
        record.predicted_target,
        1 if outcome.mispredicted else 0,
    ]


# -- fingerprint chain ---------------------------------------------------


def canonical_records(records: Sequence) -> str:
    """The canonical JSON text the fingerprint chain folds over."""
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


def fold_fingerprint(previous: str, records: Sequence) -> str:
    """Advance the chained stream fingerprint by one batch."""
    digest = hashlib.sha256()
    digest.update(previous.encode("ascii"))
    digest.update(canonical_records(records).encode("utf-8"))
    return digest.hexdigest()


# -- response helpers ----------------------------------------------------


def ok(request_id: Optional[int], **payload) -> Dict:
    response = {"id": request_id, "status": "ok"}
    response.update(payload)
    return response


def rejected(request_id: Optional[int], code: str, detail: str = "") -> Dict:
    return {"id": request_id, "status": "rejected", "code": code,
            "detail": detail}


def retry(request_id: Optional[int], code: str, detail: str = "") -> Dict:
    return {"id": request_id, "status": "retry", "code": code,
            "detail": detail}


def error(request_id: Optional[int], detail: str) -> Dict:
    return {"id": request_id, "status": "error", "code": "protocol",
            "detail": detail}
