"""QoR snapshots read from the SoA kernel vs the Python walks they replace.

A :class:`~repro.synth.reports.QoRSnapshot` reads its area, leakage,
summed net load, cell and register counts and max fanout from the
timing engine's kernel.  This counts the snapshots that a Table III
set-up (Table IV baselines + expert database) and one cold sweep
(pass@5 on the seven OpenCores designs, ``jobs=1``, every result cache
cleared) build, and times each one against the Python oracle
(``tests/synth/scalar_reference.py``) recomputing the same numbers on
the same netlist from scratch.  ``BENCH_perf.json`` ``qor_kernel``
records both counts and both times; the asserted floor is parity: every
snapshot, unrounded totals included, equals the oracle's bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.core import ChatLS
from repro.eval.harness import run_table4_baseline
from repro.designs import build_default_database
from repro.gnn import embedding_cache
from repro.synth import dcshell
from repro.synth.cache import clear_caches

from tests.synth.scalar_reference import (
    dynamic_power,
    netlist_stats,
    total_area,
    total_leakage,
)

from .test_gc_pressure import K, _sweep


def _oracle(engine) -> tuple:
    netlist, library = engine.netlist, engine.library
    stats = netlist_stats(netlist)
    return (
        total_area(netlist, library),
        total_leakage(netlist, library),
        dynamic_power(netlist, library, engine.wireload, engine.constraints),
        stats["cells"],
        stats["sequential"],
        stats["max_fanout"],
    )


def _kernel(engine, snap) -> tuple:
    return (
        engine.total_area(),
        engine.total_leakage(),
        engine.dynamic_power(),
        snap.num_cells,
        snap.num_registers,
        snap.max_fanout,
    )


class _Probe:
    """Wraps ``snapshot``: times it, then the oracle, and compares them."""

    def __init__(self, real) -> None:
        self.real = real
        self.reset()

    def reset(self) -> None:
        self.snapshots = 0
        self.kernel_s = 0.0
        self.oracle_s = 0.0
        self.identical = True

    def __call__(self, design, engine, report):
        start = time.perf_counter()
        snap = self.real(design, engine, report)
        self.kernel_s += time.perf_counter() - start
        start = time.perf_counter()
        oracle = _oracle(engine)
        self.oracle_s += time.perf_counter() - start
        area, leakage, dynamic, cells, registers, max_fanout = oracle
        expected = dataclasses.replace(
            snap,
            area=round(area, 2),
            leakage_nw=round(leakage, 1),
            dynamic_uw=round(dynamic, 1),
            num_cells=cells,
            num_registers=registers,
            max_fanout=max_fanout,
        )
        self.snapshots += 1
        self.identical &= snap == expected and _kernel(engine, snap) == oracle
        return snap

    def take(self) -> dict:
        row = {
            "snapshots": self.snapshots,
            "kernel_s": round(self.kernel_s, 4),
            "oracle_s": round(self.oracle_s, 4),
            "speedup": round(self.oracle_s / max(self.kernel_s, 1e-9), 1),
        }
        self.reset()
        return row


def test_qor_kernel(bench_results, monkeypatch):
    probe = _Probe(dcshell.snapshot)
    monkeypatch.setattr(dcshell, "snapshot", probe)
    clear_caches()
    embedding_cache.clear()
    reports = run_table4_baseline(jobs=1).reports
    chatls = ChatLS(build_default_database(variants_per_family=1))
    identical = probe.identical
    setup = probe.take()
    clear_caches()
    embedding_cache.clear()
    _sweep(chatls, reports)
    identical &= probe.identical
    sweep = probe.take()

    bench_results["qor_kernel"] = {
        "cpus": os.cpu_count(),
        "k": K,
        "setup": setup,
        "sweep": sweep,
        "bit_identical": bool(identical),
    }
    assert identical, bench_results["qor_kernel"]
    assert sweep["snapshots"] > 0 and setup["snapshots"] > 0
