"""A finished synthesis run is freed by reference counting alone.

Nothing a run builds — the shell, its netlist (nets and cells), pass
context, timing engine and SoA kernel — sits in a reference cycle, so the
last reference dropped frees all of it at once, without waiting for the
cyclic garbage collector.  The regions that run with the collector
paused (a ``DCShell`` batch, a design analysis) therefore leave it
nothing to collect afterwards: the pause defers no garbage.
"""

import gc
import weakref

import pytest

from repro.designs import benchmark_names, generate_family_variant, get_benchmark
from repro.hdl.netlist import Cell, Net, Netlist
from repro.mentor import analyze_design
from repro.synth import DCShell, clear_caches
from repro.synth.cache import synthesize_batch, synthesize_cached

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


def _pass_at_k_scripts(name: str, clock_period: float) -> list[str]:
    """Five drafts of one design sharing a prefix, as a pass@5 batch."""
    head = [
        f"read_verilog {name}",
        f"current_design {name}",
        "link",
        "set_wire_load_model -name 5K_heavy_1k",
        f"create_clock -period {clock_period} clk",
    ]
    tails = [
        ["compile", "report_qor"],
        ["compile_ultra", "report_timing", "report_qor"],
        ["compile_ultra -retime", "optimize_registers", "report_qor"],
        ["set_max_fanout 16", "compile_ultra", "balance_buffer", "report_area"],
        ["compile -map_effort high", "compile -incremental", "report_power"],
    ]
    return ["\n".join(head + tail) for tail in tails]


@pytest.fixture(scope="module")
def warm():
    """One batch first: numpy imports ``numpy.ma`` on the first
    ``np.unique``, and that import leaves cyclic garbage once per process."""
    bench = get_benchmark("dynamic_node")
    scripts = _pass_at_k_scripts(bench.name, bench.clock_period)
    synthesize_batch(None, bench.name, bench.verilog, scripts, top=bench.top)


@pytest.fixture
def collector_off(warm):
    """Nothing is collected behind the test's back, so ``gc.collect()``
    afterwards counts every cyclic object the test left."""
    clear_caches()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestPausedRegionsLeaveNoGarbage:
    @pytest.mark.parametrize("design", benchmark_names())
    def test_cold_pass_at_k_batch(self, collector_off, design):
        bench = get_benchmark(design)
        clear_caches()
        results = synthesize_batch(
            None, design, bench.verilog,
            _pass_at_k_scripts(design, bench.clock_period), top=bench.top,
        )
        assert all(result.success for result in results)
        analyze_design(bench.verilog, design, top=bench.top, clock_period=bench.clock_period)
        assert gc.collect() == 0

    def test_failing_scripts(self, collector_off):
        bench = get_benchmark("aes")
        good = _pass_at_k_scripts("aes", bench.clock_period)[1]
        results = synthesize_batch(
            None, "aes", bench.verilog,
            [
                good + "\nbogus_command 3\nreport_qor",
                good.replace("create_clock -period", "create_clock -name"),
                "read_verilog nosuchdesign\nreport_qor",
            ],
            top=bench.top,
        )
        assert not any(result.success for result in results)
        broken = "module broken(input a, output b); assign b = ; endmodule"
        (result,) = synthesize_batch(
            None, "broken", broken, ["read_verilog broken\nreport_qor"], top="broken"
        )
        assert not result.success
        assert gc.collect() == 0

    def test_chipyard_variant(self, collector_off):
        variant = generate_family_variant("rocket", 1)
        results = synthesize_batch(
            None, variant.name, variant.verilog,
            _pass_at_k_scripts(variant.name, 1.0), top=variant.top,
        )
        assert all(result.success for result in results)
        analyze_design(variant.verilog, variant.name, top=variant.top)
        assert gc.collect() == 0
