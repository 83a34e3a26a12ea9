"""Seeded workload inputs for the ChatLS customization benchmark.

Every draw (design order, variant choice, requirement text, arrival
schedule) comes from :func:`repro.rand.rng` keyed by the workload seed, so
the same seed always yields the same inputs and the program under test
only ever sees the generated requests.

The Chipyard-family requests of ``serve_bursts`` come from a fixed *pool*.
A pool item is a (family, residue, slot) triple: the residue fixes the
variant's structure (``generate_family_variant`` only looks at
``variant % 6``), the slot makes its name and RTL distinct, and the slot
also picks the requirement text and the sampling seed.  The committed
reference digests cover the whole pool, so any seed can be checked.  Runs
are stratified: every six bursts hold each (family, residue) structure
exactly once, so two seeds do the same amount of work and differ only in
names, requirements and order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import rand
from repro.designs import FAMILIES, benchmark_names, generate_family_variant

#: Structures per family: ``generate_family_variant`` varies with v % 2 and v % 3.
RESIDUES = 6
#: Slots per (family, residue) in the pool.
SLOTS = 4
#: First variant slot of the pool, well clear of the expert database's
#: variants (0 and 1); ``reference.json`` is keyed by the variant numbers.
VARIANT_BASE = 72

REQUIREMENTS = (
    "Optimize the synthesis script for timing: eliminate negative slack.",
    "fix the negative slack and improve timing",
    "reduce area while keeping timing closed",
    "cut leakage power without breaking timing",
    "improve timing on the critical path, area is secondary",
    "minimize total cell area",
)

#: Open-loop schedule of ``serve_bursts``: one session per family per burst.
BURST_PERIOD_S = 3.0
BURST_JITTER_S = 0.2


@dataclass(frozen=True)
class Item:
    """One Chipyard-family customization request."""

    family: str
    residue: int
    slot: int

    @property
    def variant(self) -> int:
        return RESIDUES * (VARIANT_BASE + self.slot) + self.residue

    @property
    def key(self) -> str:
        return f"serve/{self.family}_v{self.variant}"

    @property
    def requirement(self) -> str:
        return REQUIREMENTS[self.slot % len(REQUIREMENTS)]

    @property
    def seed(self) -> int:
        return self.slot

    def request(self) -> dict:
        """Keyword arguments of ``ServeRequest`` / ``ChatLS.customize_and_evaluate``."""
        design = generate_family_variant(self.family, self.variant)
        baseline = "\n".join(
            [
                f"read_verilog {design.name}",
                f"current_design {design.name}",
                "link",
                "create_clock -period 1.0 clk",
                "compile",
            ]
        )
        return dict(
            verilog=design.verilog,
            design_name=design.name,
            baseline_script=baseline,
            requirement=self.requirement,
            top=design.top,
            clock_period=1.2,
            seed=self.seed,
        )


def families() -> list[str]:
    return sorted(FAMILIES)


def pool() -> list[Item]:
    """Every item a ``serve_bursts`` schedule can draw."""
    return [
        Item(family, residue, slot)
        for family in families()
        for residue in range(RESIDUES)
        for slot in range(SLOTS)
    ]


def table3_sweep(seed: int, index: int) -> list[str]:
    """Design order of the ``index``-th Table III sweep."""
    names = list(benchmark_names())
    rand.rng(seed, "table3", index).shuffle(names)
    return names


def serve_schedule(seed: int, seconds: float) -> list[tuple[float, Item]]:
    """(arrival delay, item) pairs of ``serve_bursts``, in arrival order.

    One burst every ``BURST_PERIOD_S``, each holding one session per
    family.  Burst kind ``t`` puts family ``i`` at residue ``(t + i) % 6``;
    a round of six bursts serves the six kinds once, in seeded order, so
    each round does the same work and each structure appears once per
    round.  A run holds the whole number of rounds (at least one) nearest
    to ``seconds``, so two seeds differ only in names, requirements and
    order, never in which structures they serve.
    """
    rounds = max(1, round(seconds / (RESIDUES * BURST_PERIOD_S)))
    if rounds > SLOTS:
        raise ValueError(f"serve runs hold at most {SLOTS} rounds of bursts")
    names = families()
    generator = rand.rng(seed, "serve")
    slots = {
        (family, residue): generator.sample(range(SLOTS), SLOTS)
        for family in names
        for residue in range(RESIDUES)
    }
    kinds = [
        (round_index, kind)
        for round_index in range(rounds)
        for kind in generator.sample(range(RESIDUES), RESIDUES)
    ]
    schedule = []
    for burst, (round_index, kind) in enumerate(kinds):
        at = burst * BURST_PERIOD_S + generator.uniform(0.0, BURST_JITTER_S)
        members = []
        for offset, family in enumerate(names):
            residue = (kind + offset) % RESIDUES
            members.append(Item(family, residue, slots[family, residue][round_index]))
        generator.shuffle(members)
        schedule.extend((at, item) for item in members)
    return schedule
