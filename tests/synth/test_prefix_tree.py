"""Batch synthesis as a command-prefix tree equals running each script alone.

:meth:`DCShell.run_scripts` runs each distinct prefix of a batch once and
forks the shell where scripts diverge; :func:`synthesize_batch` runs a
design's cache misses that way.  Every result must equal its script run
alone in a fresh shell (``tests/solo.py``) — success, error, transcript,
QoR and the final netlist, order-sensitive state included.
"""

from __future__ import annotations

import gc
import weakref
from types import SimpleNamespace

import pytest

from repro import perf
from repro.core import ChainState, ChatLS, ServeRequest
from repro.core.baseline_runner import BaselineRunner
from repro.core.chatls import _draft_and_revise
from repro.designs import benchmark_names, build_default_database, get_benchmark
from repro.designs.chipyard import FAMILIES, generate_family_variant
from repro.eval import TIMING_REQUIREMENT, baseline_script, run_table4_baseline
from repro.hdl.netlist import Netlist
from repro.llm.baselines import claude35, gpt4o
from repro.synth import DCShell, SynthesisCache, clear_caches, synthesize_batch
from repro.synth.cache import synthesize_cached
from tests.solo import run_solo

from .cleanup_reference import netlist_state
from .test_dcshell import PIPE_SRC

PREFIX = "\n".join(
    [
        "read_verilog pipe",
        "current_design pipe",
        "link",
        "set_wire_load_model -name 5K_heavy_1k",
        "create_clock -period 1.2 clk",
        "set_max_fanout 8",
        "compile_ultra -retime",
    ]
)


def _pipe_shell() -> DCShell:
    shell = DCShell()
    shell.add_design("pipe", PIPE_SRC)
    return shell


def _outcome(result) -> tuple:
    return result.success, result.error, result.transcript, result.qor


@pytest.fixture
def final_netlists(monkeypatch):
    """``id(result) -> netlist state`` of every shell that finishes a script."""
    captured: dict[int, tuple] = {}
    original = DCShell._result

    def recording(shell, transcript):
        result = original(shell, transcript)
        captured[id(result)] = netlist_state(shell.netlist)
        return result

    monkeypatch.setattr(DCShell, "_result", recording)
    return captured


def _assert_batch_equals_solo(prepare, scripts, captured) -> list:
    """Run ``scripts`` as one tree on ``prepare()`` and each alone on its own.

    A duplicate's result is a copy of its twin's, so only the twin has a
    captured final netlist.
    """
    results, _ = prepare().run_scripts(scripts)
    for script, result in zip(scripts, results):
        shell = prepare()
        solo = shell.run_script(script)
        assert _outcome(result) == _outcome(solo), script
        if id(result) in captured:
            assert captured[id(result)] == netlist_state(shell.netlist), script
    return results


# -- the Table III drafts ------------------------------------------------------


def _designs(database) -> list[SimpleNamespace]:
    designs = []
    for name in benchmark_names():
        bench = get_benchmark(name)
        designs.append(SimpleNamespace(
            name=name, verilog=bench.verilog, top=bench.top,
            clock_period=bench.clock_period,
        ))
    for family in FAMILIES:
        soc = generate_family_variant(family, 0)
        designs.append(SimpleNamespace(
            name=soc.name, verilog=soc.verilog, top=soc.top,
            clock_period=database.entries[soc.name].clock_period,
        ))
    return designs


@pytest.fixture(scope="module")
def drafts():
    """Every design's ChatLS k=5 drafts and both baseline runners' drafts."""
    database = build_default_database(variants_per_family=1)
    reports = run_table4_baseline(jobs=1).reports
    chatls = ChatLS(database)
    runners = [BaselineRunner(gpt4o()), BaselineRunner(claude35())]
    batches = []
    for design in _designs(database):
        base = baseline_script(design)
        report = reports.get(design.name)
        if report is None:
            run = synthesize_cached(None, design.name, design.verilog, base, top=design.top)
            report = next(out for line, out in run.transcript if line == "report_qor")
        request = ServeRequest(
            design.verilog, design.name, base, TIMING_REQUIREMENT, report,
            design.top, design.clock_period,
        )
        grounded = chatls.retrieve(chatls.analyze([ChainState(request=request)]))[0]
        scripts = [_draft_and_revise(chatls, grounded, seed).script for seed in range(5)]
        for runner in runners:
            scripts += [
                runner.draft(design.verilog, base, TIMING_REQUIREMENT, report, seed)
                for seed in range(5)
            ]
        batches.append((design, scripts))
    return batches


DRAFTED = benchmark_names() + [f"{family}_v0" for family in FAMILIES]


@pytest.mark.parametrize("index", range(len(DRAFTED)), ids=DRAFTED)
def test_table3_drafts_batch_equals_solo(drafts, final_netlists, index):
    design, scripts = drafts[index]
    clear_caches()
    forks = perf.counters().get("synth.fork", 0)
    batch = synthesize_batch(None, design.name, design.verilog, scripts, top=design.top)
    assert perf.counters().get("synth.fork", 0) > forks
    solo: dict[str, tuple] = {}
    for script, result in zip(scripts, batch):
        if script not in solo:
            run, shell = run_solo(design.name, design.verilog, script, top=design.top)
            state = netlist_state(shell.netlist) if shell.netlist else None
            solo[script] = (_outcome(run), state)
        outcome, state = solo[script]
        assert _outcome(result) == outcome, script
        if id(result) in final_netlists:
            assert final_netlists[id(result)] == state, script


# -- edge cases --------------------------------------------------------------------


def test_strict_prefix_and_duplicates(final_netlists):
    short = PREFIX + "\nreport_qor"
    longer = short + "\nbalance_buffer\nreport_area"
    scripts = [longer, short, longer, PREFIX + "\noptimize_registers\nreport_qor"]
    results = _assert_batch_equals_solo(_pipe_shell, scripts, final_netlists)
    assert results[0] is not results[2]
    assert results[0].transcript is not results[2].transcript


def test_bad_command_in_shared_prefix_fails_every_sharer(final_netlists):
    prefix = PREFIX.replace("link", "link\nmake_it_faster -please")
    scripts = [prefix + "\nreport_qor", prefix + "\nbalance_buffer\nreport_qor"]
    results = _assert_batch_equals_solo(_pipe_shell, scripts, final_netlists)
    assert [r.success for r in results] == [False, False]
    assert results[0].error == results[1].error
    assert "make_it_faster" in results[0].error


def test_bad_command_after_branch_fails_only_its_branch(final_netlists):
    scripts = [
        PREFIX + "\noptimize_registers\nreport_qor",
        PREFIX + "\nset_max_fanout\nreport_qor",
        PREFIX + "\nbalance_buffer\nreport_qor",
    ]
    results = _assert_batch_equals_solo(_pipe_shell, scripts, final_netlists)
    assert [r.success for r in results] == [True, False, True]


def test_variables_and_write_before_branch(final_netlists):
    prefix = "\n".join([
        "set period 1.5",
        "read_verilog pipe",
        "create_clock -period $period clk",
        "compile",
        "write -format verilog",
        "puts $period",
    ])
    scripts = [
        prefix + "\nset period 0.9\ncreate_clock -period $period clk\ncompile -incremental\nreport_qor",
        prefix + "\ncompile_ultra\nwrite -format verilog\nreport_timing",
        prefix + "\nreport_qor",
    ]
    _assert_batch_equals_solo(_pipe_shell, scripts, final_netlists)


def _shell_with_removed_last_uid() -> DCShell:
    """A loaded shell whose netlist's last handed-out uid named a removed cell."""
    shell = _pipe_shell()
    shell.run_script("read_verilog pipe\ncreate_clock -period 1.2 clk")
    netlist = shell.netlist
    probe = netlist.add_cell("NOT", [netlist.primary_inputs[1]], netlist.add_net().name)
    netlist.remove_cell(probe.name)
    return shell


def test_fork_continues_uid_past_removed_cell(final_netlists):
    netlist = _shell_with_removed_last_uid().netlist
    assert netlist.clone().add_net().name != netlist.fork().add_net().name
    scripts = ["compile\nreport_qor", "compile_ultra\nreport_qor", "compile -map_effort high"]
    _assert_batch_equals_solo(_shell_with_removed_last_uid, scripts, final_netlists)


def test_plain_clone_fork_is_caught(monkeypatch, final_netlists):
    """The equality check above is sensitive to the uid a fork resumes at."""
    monkeypatch.setattr(Netlist, "fork", Netlist.clone)
    scripts = ["compile\nreport_qor", "compile_ultra\nreport_qor"]
    with pytest.raises(AssertionError):
        _assert_batch_equals_solo(_shell_with_removed_last_uid, scripts, final_netlists)


# -- fork and cache behaviour --------------------------------------------------------


def test_fork_edits_leave_original_untouched():
    shell = _pipe_shell()
    shell.run_script(PREFIX + "\nset tag base\nputs hello")
    before = (
        netlist_state(shell.netlist), dict(shell.variables), list(shell.output),
        shell.constraints.copy(), list(shell.pass_log), shell.flatten, shell.compiled,
    )
    fork = shell.fork()
    fork.run_script(
        "set tag forked\nputs bye\nset_max_fanout 2\nset_input_delay 0.3 a\n"
        "balance_buffer\ncompile_ultra\nwrite -format verilog"
    )
    assert fork.netlist is not shell.netlist
    assert netlist_state(fork.netlist) != before[0]
    after = (
        netlist_state(shell.netlist), dict(shell.variables), list(shell.output),
        shell.constraints.copy(), list(shell.pass_log), shell.flatten, shell.compiled,
    )
    assert after == before
    assert shell.last_written is None


def test_in_batch_duplicate_counts_one_miss_one_hit():
    cache = SynthesisCache()
    script = PREFIX + "\nreport_qor"
    first, second = synthesize_batch(None, "pipe", PIPE_SRC, [script, script], cache=cache)
    stats = cache.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)
    assert _outcome(first) == _outcome(second)
    assert first is not second


def test_finished_branch_is_freed_before_the_next_starts(monkeypatch):
    """One snapshot per open branch point: with the collector off, each
    branch's forked shell is dead when the next branch begins."""
    forks: list[weakref.ref] = []
    seen: dict[str, list[bool]] = {}
    original = DCShell.fork

    def fork(self):
        other = original(self)
        forks.append(weakref.ref(other))
        return other

    def probe(interp, args):
        seen[args[0]] = [ref() is None for ref in forks]
        return ""

    monkeypatch.setattr(DCShell, "fork", fork)
    shell = _pipe_shell()
    shell.register("probe", probe)
    scripts = [PREFIX + f"\nprobe {tag}\nreport_qor" for tag in ("a", "b", "c")]
    gc.disable()
    try:
        results, made = shell.run_scripts(scripts)
    finally:
        gc.enable()
    assert all(r.success for r in results)
    assert made == 2
    assert seen == {"a": [False], "b": [True, False], "c": [True, True]}
