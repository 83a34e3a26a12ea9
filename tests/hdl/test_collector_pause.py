"""``collector_paused``: a nestable, thread-safe pause of the cyclic collector.

The first region in disables the collector, the last one out restores
the state the first one found, whatever order threads leave in and
whether the block raised.
"""

import gc
import sys
import threading

import pytest

from repro.hdl.netlist import collector_paused
from repro.synth import DCShell


@pytest.fixture(autouse=True)
def collector_on():
    assert gc.isenabled()
    yield
    assert gc.isenabled()


def test_nested_regions_resume_at_the_outermost_exit():
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_threads_resume_when_the_last_leaves():
    inside = threading.Event()
    leave = threading.Event()

    def worker():
        with collector_paused():
            inside.set()
            assert leave.wait(10)

    thread = threading.Thread(target=worker)
    with collector_paused():
        thread.start()
        assert inside.wait(10)
    assert not gc.isenabled()  # the worker is still inside
    leave.set()
    thread.join(10)
    assert not thread.is_alive()
    assert gc.isenabled()


def test_many_threads_never_resume_inside_a_region():
    """A lost update to the depth count would re-enable the collector
    under a thread still inside, or leave it disabled at the end."""
    errors = []

    def worker():
        for _ in range(300):
            with collector_paused():
                with collector_paused():
                    if gc.isenabled():
                        errors.append("enabled inside a region")

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()


def test_exception_inside_region_restores_the_collector():
    with pytest.raises(RuntimeError):
        with collector_paused():
            with collector_paused():
                raise RuntimeError("boom")
    assert gc.isenabled()
    with collector_paused():  # the depth count is back at zero
        assert not gc.isenabled()


def test_a_caller_that_disabled_the_collector_keeps_it_disabled():
    gc.disable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        DCShell().run_script("puts hello")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_shell_commands_run_paused():
    shell = DCShell()
    shell.commands["collector_enabled"] = lambda shell, args: str(gc.isenabled())
    result = shell.run_script("collector_enabled")
    assert result.success, result.error
    assert result.transcript == [("collector_enabled", "False")]
