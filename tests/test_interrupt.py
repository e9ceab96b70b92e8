import signal
import threading

import pytest

from tilefuse import interrupt


@pytest.fixture
def python_handler():
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def test_a_deferred_sigint_is_raised_by_check(python_handler):
    with pytest.raises(KeyboardInterrupt):
        with interrupt.deferred():
            signal.raise_signal(signal.SIGINT)  # recorded, not raised
            reached = True
            interrupt.check()
    assert reached
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    interrupt.check()  # the record went with the block


def test_one_after_the_last_check_is_raised_at_the_end(python_handler):
    with pytest.raises(KeyboardInterrupt):
        with interrupt.deferred():
            interrupt.check()
            signal.raise_signal(signal.SIGINT)
    with interrupt.deferred():
        interrupt.check()


def test_an_ignored_sigint_stays_ignored():
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        with interrupt.deferred():
            assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
            signal.raise_signal(signal.SIGINT)
            interrupt.check()
        assert signal.getsignal(signal.SIGINT) == signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)


def test_off_the_main_thread_nothing_changes(python_handler):
    seen = []

    def body():
        with interrupt.deferred():
            seen.append(signal.getsignal(signal.SIGINT))

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert seen == [signal.default_int_handler]


def test_an_inner_block_leaves_the_outer_ones_handler(python_handler):
    with pytest.raises(KeyboardInterrupt):
        with interrupt.deferred():
            with interrupt.deferred():
                pass
            assert signal.getsignal(signal.SIGINT) is not signal.default_int_handler
            signal.raise_signal(signal.SIGINT)
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
