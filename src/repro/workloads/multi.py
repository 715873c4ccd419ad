"""Multi-context and SMT workload composition.

Mainframe cores run SMT2 and virtualised, frequently context-switching
workloads; the BTB2's proactive context-switch priming (section III)
only matters when contexts actually change.  These helpers interleave
several executors into one event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Union

from repro.isa.dynamic import DynamicBranch, resolved_branch
from repro.workloads.executor import Executor
from repro.workloads.program import Program


@dataclass(frozen=True)
class ContextSwitch:
    """Marker event: the following branches run in a new context."""

    context: int
    thread: int
    entry_point: int


Event = Union[DynamicBranch, ContextSwitch]


class Smt2Run:
    """Fine-grained two-thread SMT interleaving.

    Models an SMT2 core's resolved-path view: two threads' branches
    alternate (the hardware alternates the one search port every cycle,
    section IV), each thread keeping its own context id.  Sequence
    numbers are globally monotonic so shared structures (GPQ, tables)
    see a single completion order.
    """

    def __init__(
        self,
        program_a: Program,
        program_b: Program,
        seed: int = 1,
        interleave: int = 1,
    ):
        if interleave < 1:
            raise ValueError("interleave must be >= 1")
        self.interleave = interleave
        self._executors = [
            Executor(program_a, seed=seed, context_id=0, thread=0),
            Executor(program_b, seed=seed + 1, context_id=1, thread=1),
        ]
        self._sequence = 0

    @property
    def instructions_executed(self) -> int:
        return sum(executor.instructions_executed for executor in self._executors)

    def run(self, total_branches: int) -> Iterator[Event]:
        """Yield start markers then alternating branches."""
        for executor in self._executors:
            yield ContextSwitch(
                context=executor.context_id,
                thread=executor.thread,
                entry_point=executor.pc,
            )
        produced = 0
        index = 0
        while produced < total_branches:
            executor = self._executors[index % 2]
            index += 1
            emitted = 0
            while emitted < self.interleave and produced < total_branches:
                branch = executor.step()
                if branch is None:
                    continue
                branch = resolved_branch(
                    self._sequence, branch.instruction, branch.taken,
                    branch.target, branch.thread, branch.context,
                )
                self._sequence += 1
                emitted += 1
                produced += 1
                yield branch


class InterleavedRun:
    """Round-robin interleaving of several programs as distinct contexts.

    Yields :class:`ContextSwitch` markers between quanta; branch
    sequence numbers stay globally monotonic so the predictor's GPQ
    ordering holds across switches.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        quantum_branches: int = 2000,
        seed: int = 1,
        thread: int = 0,
    ):
        if not programs:
            raise ValueError("at least one program is required")
        if quantum_branches < 1:
            raise ValueError("quantum_branches must be >= 1")
        self.quantum_branches = quantum_branches
        self.thread = thread
        self._executors: List[Executor] = [
            Executor(
                program,
                seed=seed + index,
                context_id=index,
                thread=thread,
            )
            for index, program in enumerate(programs)
        ]
        self._sequence = 0

    @property
    def instructions_executed(self) -> int:
        return sum(executor.instructions_executed for executor in self._executors)

    @property
    def branches_executed(self) -> int:
        return sum(executor.branches_executed for executor in self._executors)

    def run(self, total_branches: int) -> Iterator[Event]:
        """Yield interleaved events until *total_branches* branches ran."""
        produced = 0
        index = 0
        while produced < total_branches:
            executor = self._executors[index % len(self._executors)]
            yield ContextSwitch(
                context=executor.context_id,
                thread=executor.thread,
                entry_point=executor.pc,
            )
            quantum = min(self.quantum_branches, total_branches - produced)
            emitted = 0
            while emitted < quantum:
                branch = executor.step()
                if branch is None:
                    continue
                # Re-sequence globally.
                branch = resolved_branch(
                    self._sequence, branch.instruction, branch.taken,
                    branch.target, branch.thread, branch.context,
                )
                self._sequence += 1
                emitted += 1
                produced += 1
                yield branch
            index += 1
