"""The program executor: the model's "processor back end".

Walks a :class:`~repro.workloads.program.Program` from its entry point,
resolving each branch through its behaviour, and yields the executed
branches in program order — the resolved path the predictor is measured
against.  Non-branch instructions are counted (for MPKI) but not
yielded.  A :class:`StreamRecording` tapes one run so it can be
replayed, instruction counts included, without executing the program
again.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.common.errors import SimulationError
from repro.common.rng import DeterministicRng
from repro.isa.dynamic import DynamicBranch, resolved_branch
from repro.isa.instructions import BranchKind
from repro.workloads.behaviors import ExecutionContext
from repro.workloads.program import Program


class Executor:
    """Deterministic in-order execution of one program."""

    def __init__(
        self,
        program: Program,
        seed: int = 1,
        context_id: int = 0,
        thread: int = 0,
        start_sequence: int = 0,
    ):
        self.program = program
        self.context_id = context_id
        self.thread = thread
        self.rng = DeterministicRng(seed).fork(f"executor-{program.name}")
        self.exec_context = ExecutionContext(self.rng)
        self.pc = program.entry_point
        self.instructions_executed = 0
        self.branches_executed = 0
        self._sequence = start_sequence

    def run(
        self,
        max_branches: Optional[int] = None,
        max_instructions: Optional[int] = None,
    ) -> Iterator[DynamicBranch]:
        """Execute until a limit is reached; yields executed branches."""
        if max_branches is None and max_instructions is None:
            raise ValueError("a branch or instruction limit is required")
        if max_instructions is None:
            # Hot path: branch-limited runs (the common engine drive)
            # inline the non-branch stepping so the ~4+ sequential
            # instructions per branch cost one dict probe each instead
            # of a step() call with property lookups.
            get = self.program.instructions.get
            none_kind = BranchKind.NONE
            executed = self.instructions_executed
            while self.branches_executed < max_branches:
                pc = self.pc
                instruction = get(pc)
                while instruction is not None and instruction.kind is none_kind:
                    executed += 1
                    pc += instruction.length
                    instruction = get(pc)
                self.pc = pc
                self.instructions_executed = executed
                if instruction is None:
                    raise SimulationError(
                        f"{self.program.name}: no instruction at {pc:#x} "
                        "(bad control transfer)"
                    )
                executed += 1  # the branch instruction itself
                self.instructions_executed = executed
                yield self._execute_branch(instruction)
            return
        while True:
            if max_branches is not None and self.branches_executed >= max_branches:
                return
            if self.instructions_executed >= max_instructions:
                return
            branch = self.step()
            if branch is not None:
                yield branch

    def step(self) -> Optional[DynamicBranch]:
        """Execute one instruction; returns the branch record if it was a
        branch."""
        instruction = self.program.at(self.pc)
        self.instructions_executed += 1
        if not instruction.is_branch:
            self.pc = instruction.next_sequential
            return None
        return self._execute_branch(instruction)

    def _execute_branch(self, instruction) -> DynamicBranch:
        """Resolve one branch instruction (the PC already sits on it)."""
        behavior = self.program.behavior_of(instruction)
        taken, target = behavior.resolve(instruction, self.exec_context)
        if taken:
            if target is None:
                raise SimulationError(
                    f"behaviour at {instruction.address:#x} returned taken "
                    "without a target"
                )
            if (
                instruction.static_target is not None
                and target != instruction.static_target
            ):
                raise SimulationError(
                    f"relative branch at {instruction.address:#x} cannot "
                    f"retarget ({target:#x} != {instruction.static_target:#x})"
                )
            self.pc = target
        else:
            target = None
            self.pc = instruction.address + instruction.length
        self.exec_context.record_outcome(taken)
        # The checks above are the constructor's: build without them.
        branch = resolved_branch(
            self._sequence, instruction, taken, target, self.thread,
            self.context_id,
        )
        self._sequence += 1
        self.branches_executed += 1
        return branch

    @property
    def next_sequence(self) -> int:
        return self._sequence


class StreamRecording:
    """One branch-limited executor run, taped for replay.

    Keeps the :class:`DynamicBranch` records the run yielded (immutable,
    so any number of replays can share them) and the executor's
    ``instructions_executed`` right after each.  The stream depends only
    on the program and the seed — never on who consumes it — so a sweep
    worker records each (program, seed, length) once and replays it to
    every cell that would otherwise regenerate it.
    """

    __slots__ = ("entry_point", "branches", "instructions")

    def __init__(self, program: Program, seed: int, max_branches: int):
        executor = Executor(program, seed=seed)
        self.entry_point = program.entry_point
        self.branches: List[DynamicBranch] = []
        self.instructions: List[int] = []
        for branch in executor.run(max_branches=max_branches):
            self.branches.append(branch)
            self.instructions.append(executor.instructions_executed)

    def __len__(self) -> int:
        return len(self.branches)


class StreamReplay:
    """An :class:`Executor` stand-in that plays a recording back: ``run``
    yields the taped branches, and ``instructions_executed`` reads what
    the live executor read at the same point of its run."""

    def __init__(self, recording: StreamRecording):
        self.recording = recording
        self.instructions_executed = 0

    def run(self, max_branches: int) -> Iterator[DynamicBranch]:
        recording = self.recording
        if max_branches > len(recording):
            raise ValueError(
                f"recording holds {len(recording)} branches, "
                f"{max_branches} requested"
            )
        for branch, executed in zip(recording.branches[:max_branches],
                                    recording.instructions):
            self.instructions_executed = executed
            yield branch
