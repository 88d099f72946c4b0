import signal
from contextlib import contextmanager

import pytest

from multlat import default_corpus, zn_ideal_lattice


@contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block after `seconds`: a hang becomes a failure."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def z8():
    return zn_ideal_lattice(8)


@pytest.fixture(scope="session")
def z24():
    return zn_ideal_lattice(24)


@pytest.fixture(scope="session")
def z27():
    return zn_ideal_lattice(27)


@pytest.fixture(scope="session")
def z30():
    return zn_ideal_lattice(30)


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()
