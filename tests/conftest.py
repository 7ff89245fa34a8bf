import threading

import pytest


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves a thread running: every pool it starts,
    the engine's gate pool and the compare helper included, must be
    shut down before the test returns."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if leaked:
        pytest.fail(f"threads left running: {', '.join(leaked)}")
