"""Dynamic execution records.

A workload's execution is a stream of :class:`DynamicInstruction` events;
the branch-bearing subset is what every predictor consumes.  Records are
immutable so engines, queues and verification monitors can share them
freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.slots import add_slots
from repro.isa.instructions import BranchKind, Instruction


@add_slots
@dataclass(frozen=True)
class DynamicInstruction:
    """One executed instruction instance.

    ``sequence`` is the dynamic instruction number (0-based) within the
    run; ``thread`` identifies the SMT thread; ``context`` is a small
    address-space identifier used for virtual-address tagging (the CTB
    entry "can only be used if there is a tag match for the current
    address space", section VI).
    """

    sequence: int
    instruction: Instruction
    thread: int = 0
    context: int = 0

    @property
    def address(self) -> int:
        return self.instruction.address

    @property
    def is_branch(self) -> bool:
        return self.instruction.is_branch


@add_slots
@dataclass(frozen=True)
class DynamicBranch:
    """One executed branch instance with its resolved outcome."""

    sequence: int
    instruction: Instruction
    taken: bool
    target: Optional[int]
    thread: int = 0
    context: int = 0
    # Eagerly-derived views of the instruction (computed once in
    # __post_init__): the prediction chain reads each of these several
    # times per branch, so plain slots beat per-access properties.
    #: The branch's instruction address.
    address: int = field(init=False)
    #: The branch kind bits.
    kind: BranchKind = field(init=False)
    #: The fall-through address (NSIA).
    next_sequential: int = field(init=False)
    #: Where control actually went: target if taken, else NSIA.
    next_address: int = field(init=False)

    def __post_init__(self) -> None:
        instruction = self.instruction
        if instruction.kind is BranchKind.NONE:
            raise ValueError("DynamicBranch requires a branch instruction")
        target = self.target
        if self.taken:
            if target is None:
                raise ValueError("a taken branch must carry a target")
        elif target is not None:
            raise ValueError("a not-taken branch carries no target")
        set_attr = object.__setattr__
        address = instruction.address
        next_sequential = address + instruction.length
        set_attr(self, "address", address)
        set_attr(self, "kind", instruction.kind)
        set_attr(self, "next_sequential", next_sequential)
        set_attr(
            self, "next_address", target if self.taken else next_sequential
        )


# Slot-descriptor setters: a frozen dataclass blocks ``setattr``, but
# its slot descriptors still store values directly.
(
    _set_sequence, _set_instruction, _set_taken, _set_target, _set_thread,
    _set_context, _set_address, _set_kind, _set_next_sequential,
    _set_next_address,
) = (
    getattr(DynamicBranch, name).__set__
    for name in (
        "sequence", "instruction", "taken", "target", "thread", "context",
        "address", "kind", "next_sequential", "next_address",
    )
)
_new_branch = object.__new__


def resolved_branch(
    sequence: int,
    instruction: Instruction,
    taken: bool,
    target: Optional[int],
    thread: int = 0,
    context: int = 0,
) -> DynamicBranch:
    """Build a :class:`DynamicBranch` whose outcome the caller has
    already checked: a branch instruction, a target exactly when taken.

    The record equals (and hashes, pickles and compares as) the one the
    validating constructor builds, at half the cost: the executor builds
    one per executed branch, and the constructor's ten
    ``object.__setattr__`` calls and second validation doubled that.
    Input from outside the process (trace files, the serve wire format)
    keeps the validating constructor.
    """
    branch = _new_branch(DynamicBranch)
    _set_sequence(branch, sequence)
    _set_instruction(branch, instruction)
    _set_taken(branch, taken)
    _set_target(branch, target)
    _set_thread(branch, thread)
    _set_context(branch, context)
    address = instruction.address
    next_sequential = address + instruction.length
    _set_address(branch, address)
    _set_kind(branch, instruction.kind)
    _set_next_sequential(branch, next_sequential)
    _set_next_address(branch, target if taken else next_sequential)
    return branch
