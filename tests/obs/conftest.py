"""Observability tests configure the global tracer; always restore the
disabled default so no state leaks into other tests."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _reset_observability():
    yield
    obs.configure(None)
