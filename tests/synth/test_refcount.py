"""A finished synthesis run is freed by reference counting alone.

Nothing a run builds — the shell, its netlist (nets and cells), pass
context, timing engine and SoA kernel — sits in a reference cycle, so the
last reference dropped frees all of it at once, without waiting for the
cyclic garbage collector.
"""

import gc
import weakref

from repro.designs import get_benchmark
from repro.hdl.netlist import Cell, Net, Netlist
from repro.synth import DCShell, clear_caches
from repro.synth.cache import synthesize_cached

BENCH = get_benchmark("aes")
SCRIPT = "\n".join(
    [
        "read_verilog aes",
        f"create_clock -period {BENCH.clock_period * 0.9}",
        "set_max_fanout 24",
        "compile_ultra",
        "report_qor",
    ]
)


def test_dropped_shell_is_freed_without_the_collector():
    gc.disable()
    try:
        shell = DCShell()
        shell.add_design("aes", BENCH.verilog, BENCH.top)
        result = shell.run_script(SCRIPT)
        assert result.success, result.error
        engine = shell._engine()
        refs = [
            weakref.ref(obj)
            for obj in (shell, shell.netlist, engine, engine._kernel)
        ]
        del shell, result, engine
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_synthesis_miss_leaves_no_cyclic_garbage():
    clear_caches()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = synthesize_cached(None, "aes", BENCH.verilog, SCRIPT, top=BENCH.top)
        gc.collect()
        kinds = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert result.success, result.error
    netlist_kinds = {cls.__name__ for cls in (Netlist, Net, Cell, DCShell)}
    assert not kinds & netlist_kinds, kinds
