"""The two-process helper."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lifedual
from lifedual.fork import in_two_processes


def test_child_value_larger_than_the_pipe_buffer_comes_back_equal():
    big = np.arange(2**17, dtype=np.float64)  # 1 MiB, 16 times a 64 KB pipe buffer
    here, forked = in_two_processes(lambda: "here", lambda: big * 1.0)
    assert here == "here" and np.array_equal(forked, big)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failing_here_reaps_a_child_blocked_on_its_payload():
    started_r, started_w = os.pipe()

    def forked():
        os.write(started_w, b"x")
        return np.zeros(2**17)  # blocks in the write until the caller reads

    def here():
        os.read(started_r, 1)
        time.sleep(0.2)  # time for the child to fill the pipe
        raise KeyError("here failed")

    try:
        with pytest.raises(KeyError, match="here failed"):
            in_two_processes(here, forked)
    finally:
        os.close(started_r)
        os.close(started_w)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_interrupted_wait_kills_and_reaps_the_child():
    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        with pytest.raises(Interrupted):
            in_two_processes(lambda: None, lambda: time.sleep(3))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_failing_here_kills_the_processes_a_nested_call_forked():
    pids_r, pids_w = os.pipe()

    def sleeper():
        os.write(pids_w, os.getpid().to_bytes(8, "little"))
        time.sleep(3)

    def here():
        time.sleep(0.5)  # time for the child and its own child to start
        raise KeyError("here failed")

    try:
        with pytest.raises(KeyError, match="here failed"):
            in_two_processes(here, lambda: in_two_processes(sleeper, sleeper))
        pids = [int.from_bytes(os.read(pids_r, 8), "little") for _ in range(2)]
    finally:
        os.close(pids_r)
        os.close(pids_w)
    deadline = time.monotonic() + 1.0
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not any(map(_running, pids))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the top process sleeps while its child runs a nested call: the child
# and the grandchild each write their pid to stdout and sleep
_NESTED_SLEEPERS = """
import os, time
from lifedual.fork import in_two_processes

def sleeper():
    os.write(1, b"%d\\n" % os.getpid())
    time.sleep(30)

in_two_processes(lambda: time.sleep(30), lambda: in_two_processes(sleeper, sleeper))
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
@pytest.mark.parametrize("new_session", [False, True], ids=["sigkill-top", "sigterm-group"])
def test_helpers_end_when_the_top_process_is_killed(new_session):
    # SIGKILL of the top process alone, as a deadline or the OOM killer
    # sends it, or SIGTERM to its process group, as timeout(1) sends it:
    # either way no helper below it keeps running
    src = str(Path(lifedual.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _NESTED_SLEEPERS],
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
        start_new_session=new_session,
    )
    pids = []
    try:
        pids = [int(proc.stdout.readline()) for _ in range(2)]
        if new_session:
            os.killpg(proc.pid, signal.SIGTERM)
        else:
            proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + 1.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, pids))
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_without_fork_both_run_here_in_order(monkeypatch):
    monkeypatch.delattr(os, "fork")
    calls = []

    def step(name):
        calls.append((name, os.getpid()))
        return name

    assert in_two_processes(lambda: step("here"), lambda: step("forked")) == ("here", "forked")
    assert calls == [("here", os.getpid()), ("forked", os.getpid())]


def test_without_fork_a_failing_here_skips_forked(monkeypatch):
    monkeypatch.delattr(os, "fork")
    calls = []

    def here():
        raise KeyError("here failed")

    with pytest.raises(KeyError, match="here failed"):
        in_two_processes(here, lambda: calls.append("forked"))
    assert calls == []
