"""Deterministic simulated LLMs.

The reproduction substitutes GPT-4o / Claude-3.5 with seeded, deterministic
policies that honour the same interface (prompt text in, completion text
out) and — critically — the same *information asymmetry* the paper
evaluates: a model can only act on what its prompt contains, truncated to
its effective context window, and it hallucinates invalid commands at a
profile-specific rate (paper §IV-C: hallucinated commands render scripts
non-executable).

Capability model:

* With ``RETRIEVED STRATEGIES`` / ``CIRCUIT ANALYSIS`` sections present
  (the ChatLS pipeline), the model grounds its script on them directly.
* Without them (raw baselines), it falls back to keyword heuristics over
  the (window-truncated) RTL plus the tool report — so pathologies that
  are invisible in source text (fanout, register imbalance) are missed.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .base import Completion
from .prompts import parse_sections

__all__ = ["ModelProfile", "SimulatedLLM", "VALID_COMMANDS"]


#: Commands (and option sets) that actually exist in the dc_shell substrate.
VALID_COMMANDS: dict[str, tuple[str, ...]] = {
    "compile": ("-map_effort medium", "-map_effort high"),
    "compile_ultra": ("", "-retime", "-no_autoungroup"),
    "optimize_registers": ("",),
    "balance_buffer": ("",),
    "set_max_fanout": ("16", "24", "12"),
    "set_max_area": ("0",),
    "ungroup": ("-all -flatten",),
    "set_flatten": ("true",),
    "report_qor": ("",),
    "report_timing": ("",),
}

#: Plausible-but-nonexistent commands / options used by the hallucination
#: model.  These mirror real LLM failure modes on EDA tools: invented
#: commands, options from other tools, misremembered flags.
HALLUCINATION_GALLERY: tuple[str, ...] = (
    "set_optimize_timing -aggressive",
    "compile_ultra -auto_retime",
    "optimize_fanout -max 16",
    "set_critical_range 0.5",
    "retime_design -effort high",
    "set_timing_derate -late 1.05",
    "compile -timing_effort ultra",
    "insert_clock_tree -balanced",
    "set_cost_priority -delay",
    "optimize_netlist -area",
)


@dataclass
class ModelProfile:
    """Capability profile of one simulated model."""

    name: str
    context_window: int = 4000  # chars of DESIGN RTL actually attended to
    hallucination_rate: float = 0.25
    prefers_area: bool = False
    extra_command_rate: float = 0.35
    knows_retiming_heuristic: bool = False  # dares retime w/o analysis
    knows_fanout_heuristic: bool = False


def _stable_seed(*parts) -> int:
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


@dataclass
class _Cues:
    """What the model managed to infer from its prompt."""

    wns: float = 0.0
    tns: float = 0.0
    violated: bool = False
    mul_heavy: bool = False
    xor_heavy: bool = False
    case_heavy: bool = False
    many_modules: bool = False
    pathologies: list[str] = field(default_factory=list)
    strategy_commands: list[str] = field(default_factory=list)
    manual_commands: list[str] = field(default_factory=list)
    requirement: str = ""


class SimulatedLLM:
    """A deterministic policy model honouring the LLM interface."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self.name = profile.name

    # -- public interface ------------------------------------------------------

    def complete(self, prompt: str, seed: int = 0) -> Completion:
        with obs.span("llm.complete"):
            sections = parse_sections(prompt)
            task = sections.get("TASK", "DRAFT_SCRIPT").strip().upper()
            rng = np.random.default_rng(_stable_seed(self.name, seed, task))
            if task == "FORMULATE QUERY" or task == "FORMULATE_QUERY":
                text = self._formulate_query(sections)
            elif task in ("GENERATE CYPHER", "GENERATE_CYPHER"):
                text = self._generate_cypher(sections)
            elif task in ("REVISE STEP", "REVISE_STEP"):
                text = self._revise_step(sections)
            elif task in ("RERANK", "RERANK DOCUMENTS"):
                text = self._rerank(sections)
            else:
                text = self._draft_script(sections, rng)
        return Completion(text=text, model=self.name, seed=seed)

    # -- cue extraction -----------------------------------------------------------

    def _gather_cues(self, sections: dict[str, str]) -> _Cues:
        cues = _Cues()
        cues.requirement = sections.get("USER REQUIREMENT", "")
        report = sections.get("TOOL REPORT", "")
        wns = re.search(r"Worst Negative Slack:\s*(-?\d+\.?\d*)", report)
        tns = re.search(r"Total Negative Slack:\s*(-?\d+\.?\d*)", report)
        if wns:
            cues.wns = float(wns.group(1))
        if tns:
            cues.tns = float(tns.group(1))
        cues.violated = cues.wns < 0 or "VIOLATED" in report
        rtl = sections.get("DESIGN RTL", "")[: self.profile.context_window]
        if rtl:
            cues.mul_heavy = rtl.count("*") >= 3
            cues.xor_heavy = rtl.count("^") >= 20
            cues.case_heavy = rtl.count("case") >= 3
            cues.many_modules = rtl.count("endmodule") >= 2
        analysis = sections.get("CIRCUIT ANALYSIS", "")
        match = re.search(r"detected pathologies:\s*(.+)", analysis)
        if match and match.group(1).strip() != "none":
            cues.pathologies = [p.strip() for p in match.group(1).split(",")]
        strategies = sections.get("RETRIEVED STRATEGIES", "")
        for line in strategies.splitlines():
            cmd = line.strip()
            if cmd.startswith("- command:"):
                cues.strategy_commands.append(cmd.split(":", 1)[1].strip())
        manual = sections.get("MANUAL EXCERPTS", "")
        for name in VALID_COMMANDS:
            if name in manual:
                cues.manual_commands.append(name)
        return cues

    # -- script drafting -----------------------------------------------------------

    def _draft_script(self, sections: dict[str, str], rng) -> str:
        cues = self._gather_cues(sections)
        baseline = sections.get("BASELINE SCRIPT", "")
        commands = self._choose_commands(cues, rng)
        commands = self._apply_hallucinations(commands, rng)
        script = self._rewrite_script(baseline, commands)
        rationale = self._rationale(cues, commands)
        return f"{rationale}\n\n```tcl\n{script}\n```\n"

    def _choose_commands(self, cues: _Cues, rng) -> list[str]:
        # Grounded path: retrieved strategies dominate (ChatLS pipeline).
        if cues.strategy_commands:
            commands = list(dict.fromkeys(cues.strategy_commands))
            # One compile-class command per script: the first (highest
            # priority) wins; set_* constraints must precede it.
            compiles = [c for c in commands if c.split()[0].startswith("compile")]
            keep_compile = compiles[0] if compiles else "compile"
            constraints = [c for c in commands if c.startswith(("set_", "ungroup"))]
            post = [
                c
                for c in commands
                if c in ("optimize_registers", "balance_buffer")
            ]
            return constraints + [keep_compile] + post
        # Ungrounded path: keyword heuristics over truncated RTL + report.
        commands: list[str] = []
        want_area = self.profile.prefers_area and "area" not in cues.requirement
        if cues.violated:
            if cues.mul_heavy and rng.random() < 0.8:
                commands.append("compile -map_effort high")
            else:
                commands.append("compile_ultra")
            if cues.many_modules and rng.random() < self.profile.extra_command_rate:
                commands.insert(0, "ungroup -all -flatten")
            if (
                self.profile.knows_fanout_heuristic
                and rng.random() < 0.25
            ):
                commands.insert(0, "set_max_fanout 16")
            if (
                self.profile.knows_retiming_heuristic
                and rng.random() < 0.2
            ):
                commands.append("optimize_registers")
        else:
            commands.append("compile")
        if (want_area or not cues.violated) and rng.random() < 0.5:
            commands.insert(0, "set_max_area 0")
        return commands

    def _apply_hallucinations(self, commands: list[str], rng) -> list[str]:
        output = []
        for command in commands:
            if rng.random() < self.profile.hallucination_rate:
                output.append(
                    HALLUCINATION_GALLERY[int(rng.integers(len(HALLUCINATION_GALLERY)))]
                )
            else:
                output.append(command)
        return output

    @staticmethod
    def _rewrite_script(baseline: str, commands: list[str]) -> str:
        """Replace the compile section of the baseline with new commands."""
        keep_before: list[str] = []
        keep_after: list[str] = []
        seen_compile = False
        for line in baseline.splitlines():
            stripped = line.strip()
            first = stripped.split(" ")[0] if stripped else ""
            if first in ("compile", "compile_ultra", "optimize_registers",
                         "balance_buffer", "set_max_fanout", "set_max_area",
                         "ungroup", "set_flatten"):
                seen_compile = True
                continue
            if not stripped:
                continue
            if first.startswith("report") and seen_compile:
                keep_after.append(stripped)
            elif first.startswith("report"):
                keep_after.append(stripped)
            else:
                keep_before.append(stripped)
        script_lines = keep_before + commands + (keep_after or ["report_qor"])
        return "\n".join(script_lines)

    def _rationale(self, cues: _Cues, commands: list[str]) -> str:
        reasons = []
        if cues.pathologies:
            reasons.append(f"analysis shows {', '.join(cues.pathologies)}")
        if cues.violated:
            reasons.append(f"timing is violated (WNS {cues.wns})")
        if cues.mul_heavy:
            reasons.append("the RTL is multiply-heavy")
        plan = "; ".join(reasons) or "the design meets timing"
        return f"Because {plan}, I will use: {', '.join(commands)}."

    # -- auxiliary tasks (used by SynthExpert / SynthRAG) -----------------------------

    def _formulate_query(self, sections: dict[str, str]) -> str:
        step = sections.get("THOUGHT STEP", "")
        tokens = re.findall(r"[a-z_]+", step.lower())
        relevant = [t for t in tokens if t in VALID_COMMANDS or len(t) > 5]
        return " ".join(dict.fromkeys(relevant))[:120] or step[:120]

    def _generate_cypher(self, sections: dict[str, str]) -> str:
        target = sections.get("TARGET", "").strip()
        kind = sections.get("KIND", "module").strip().lower()
        if kind == "cell":
            return (
                f"MATCH (c:LibCell {{name: '{target}'}}) "
                "RETURN c.name, c.area, c.drive_res"
            )
        return (
            f"MATCH (m:Module {{name: '{target}'}}) "
            "RETURN m.name, m.code, m.category"
        )

    def _revise_step(self, sections: dict[str, str]) -> str:
        step = sections.get("THOUGHT STEP", "")
        retrieved = sections.get("RETRIEVED", "")
        # Drop any command in the step that the retrieved manual text does
        # not document -- the paper's "ensure command specifications" check.
        valid_mentioned = [c for c in VALID_COMMANDS if c in retrieved]
        words = step.split()
        if not valid_mentioned:
            return step
        lines = [step]
        lines.append(f"(validated against manual: {', '.join(valid_mentioned)})")
        return "\n".join(lines)

    def _rerank(self, sections: dict[str, str]) -> str:
        """Order candidate documents by lexical overlap with the query."""
        query = set(re.findall(r"[a-z_]+", sections.get("QUERY", "").lower()))
        docs = []
        for line in sections.get("CANDIDATES", "").splitlines():
            if ":" not in line:
                continue
            doc_id, text = line.split(":", 1)
            overlap = len(query & set(re.findall(r"[a-z_]+", text.lower())))
            docs.append((overlap, doc_id.strip()))
        docs.sort(key=lambda pair: -pair[0])
        return "\n".join(doc_id for _, doc_id in docs)
