"""The two-process helper and the index queue its two processes share."""

import os

import pytest

from lifedual.fork import IndexQueue, in_two_processes


def test_queue_hands_out_each_index_once_to_two_processes():
    # far more indices than a 64 KB pipe could hold pre-filled
    n = 20000
    with IndexQueue(n) as queue:
        here, forked = in_two_processes(lambda: list(queue), lambda: list(queue))
    assert here == sorted(here) and forked == sorted(forked)
    assert sorted(here + forked) == list(range(n))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stopped_queue_hands_out_nothing():
    with IndexQueue(5) as queue:
        assert queue.take() == 0
        queue.stop()
        assert queue.take() is None
        assert list(queue) == []
