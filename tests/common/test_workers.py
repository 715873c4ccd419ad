"""The supervised worker core that sweep workers and serve shards share.

Each test drives a real child process through :class:`Worker` with the
platform's default start method; the handler factory lives at module
level so any start method can import it.  Every wait is bounded.
"""

import os
import signal
import time
from multiprocessing.connection import wait

from repro.common.workers import Worker

#: Seconds any single reply or exit may take before the test fails.
BOUND = 10.0


def _echo_worker(tag):
    calls = []

    def handle(op, payload):
        calls.append(op)
        if op == "echo":
            return (tag, payload, len(calls))
        if op == "pid":
            return os.getpid()
        if op == "exit":
            os._exit(3)
        if op == "hang":
            time.sleep(60)
        return "bye"

    return handle


def _started():
    worker = Worker(_echo_worker, ("t",), name="repro-test-worker")
    worker.start()
    return worker


def _reply(worker):
    assert wait([worker.conn], BOUND), "no reply within the bound"
    return worker.recv()


def test_round_trip_keeps_warm_state():
    worker = _started()
    try:
        worker.send(1, "echo", {"x": 1})
        assert _reply(worker) == (1, ("t", {"x": 1}, 1))
        worker.send(2, "echo", [2])
        # The handler's closure persists between messages.
        assert _reply(worker) == (2, ("t", [2], 2))
        worker.send(3, "pid", None)
        assert _reply(worker) == (3, worker.process.pid)
        assert worker.process.pid != os.getpid()
    finally:
        worker.kill()


def test_death_reads_as_eof_and_restart_is_a_new_generation():
    worker = _started()
    try:
        first_pid, first_generation = worker.process.pid, worker.generation
        worker.send(1, "exit", None)
        try:
            _reply(worker)
        except EOFError:
            pass
        else:
            raise AssertionError("a dead child must read as EOF")
        worker.restart()
        assert worker.process.pid != first_pid
        assert worker.generation == first_generation + 1
        worker.send(2, "echo", "again")
        assert _reply(worker) == (2, ("t", "again", 1))
    finally:
        worker.kill()


def test_kill_reaps_a_hung_child_promptly():
    worker = _started()
    worker.send(1, "hang", None)
    time.sleep(0.2)
    start = time.monotonic()
    worker.kill()
    assert time.monotonic() - start < BOUND
    assert not worker.process.is_alive()
    assert worker.process.exitcode == -signal.SIGKILL


def test_sigint_does_not_end_the_child():
    worker = _started()
    try:
        worker.send(1, "echo", "ready")
        assert _reply(worker)[0] == 1  # the loop runs: SIGINT is ignored
        os.kill(worker.process.pid, signal.SIGINT)
        time.sleep(0.2)
        worker.send(2, "echo", "still here")
        assert _reply(worker) == (2, ("t", "still here", 2))
        assert worker.process.is_alive()
    finally:
        worker.kill()


def test_shutdown_replies_then_exits_zero():
    worker = _started()
    worker.send(7, "shutdown", None)
    assert _reply(worker) == (7, "bye")
    assert worker.join(BOUND)
    assert not worker.process.is_alive()
    assert worker.process.exitcode == 0
