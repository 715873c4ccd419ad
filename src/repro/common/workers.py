"""One supervised worker process: the core sweeps and serve share.

A :class:`Worker` is a child process that answers ``(id, op, payload)``
messages over a duplex pipe with ``(id, reply)``.  The caller supplies a
module-level *factory*; the child calls ``factory(*args)`` once to build
its handler (warm state lives in the handler's closure) and then answers
every message with ``handler(op, payload)``.

The lifecycle is the whole supervision vocabulary both consumers need:

* :meth:`Worker.start` spawns the child and bumps ``generation``;
  :meth:`Worker.restart` kills and reaps it, then starts a fresh one
  (new pid, ``generation + 1``).
* A child that dies — ``os._exit``, a signal, a handler that raises —
  reads as EOF on the parent's end of the pipe, so a parent blocked in
  :meth:`Worker.recv` (or ``multiprocessing.connection.wait`` on
  :attr:`Worker.conn`) sees the death at once.
* The child ignores SIGINT (its parent owns shutdown: a terminal Ctrl-C
  must not tear a child mid-append while a graceful drain is in flight)
  and leaves its loop on EOF or after replying to a ``shutdown`` op,
  exiting 0.  :meth:`Worker.join` reaps it, killing it if it is late.

Every process the package creates is created here.  Each caller passes
its one multiprocessing context: sweeps use the platform default
(``fork`` on Linux); serve uses ``forkserver``, whose children inherit
neither the asyncio loop's locks nor its reader threads.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Callable, Sequence, Tuple

__all__ = ["Worker", "usable_cpus"]

#: Seconds :meth:`Worker.kill` waits to reap a SIGKILLed child.
_REAP_TIMEOUT = 5.0


def _child_main(conn, inherited, factory: Callable, args: Sequence) -> None:
    """The child's dispatch loop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if inherited is not None:
        # A forked child holds a copy of the parent's end of its own
        # pipe; closing it lets the child see EOF when the parent goes.
        inherited.close()
    handler = factory(*args)
    while True:
        try:
            msg_id, op, payload = conn.recv()
        except (EOFError, OSError):
            return
        conn.send((msg_id, handler(op, payload)))
        if op == "shutdown":
            return


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (``os.cpu_count()`` counts the whole machine)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Worker:
    """Parent-side handle of one supervised child process."""

    def __init__(self, factory: Callable, args: Sequence = (),
                 context=None, name: str = "repro-worker"):
        self.factory = factory
        self.args = tuple(args)
        self.context = context or multiprocessing.get_context()
        self.name = name
        #: Parent end of the current child's pipe (None before start).
        self.conn = None
        self.process = None
        #: Children started so far; a restart bumps it.
        self.generation = 0

    def start(self) -> None:
        parent, child = self.context.Pipe()
        inherited = (parent if self.context.get_start_method() == "fork"
                     else None)
        self.process = self.context.Process(
            target=_child_main,
            args=(child, inherited, self.factory, self.args),
            daemon=True,
            name=self.name,
        )
        self.process.start()
        child.close()
        self.conn = parent
        self.generation += 1

    def send(self, msg_id, op: str, payload) -> None:
        self.conn.send((msg_id, op, payload))

    def recv(self) -> Tuple[object, object]:
        """The next ``(id, reply)``; raises EOFError once the child died."""
        return self.conn.recv()

    def kill(self) -> None:
        """SIGKILL the child (if it still runs) and reap it."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.kill()
        self.process.join(_REAP_TIMEOUT)

    def restart(self) -> None:
        self.kill()
        self.start()

    def join(self, timeout: float) -> bool:
        """Wait up to *timeout* for the child to exit on its own (after
        a ``shutdown`` op), then reap it, killing it if it has not.
        True when it exited cleanly."""
        self.process.join(timeout)
        clean = self.process.exitcode == 0
        self.kill()
        return clean
