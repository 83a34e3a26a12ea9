"""ChainState checkpointing: atomic writes, format versioning, crash
injection, partial resume."""

from __future__ import annotations

import dataclasses
import os
import pickle
import sys
import types

import pytest

from repro import perf
from repro.mentor.analyzer import DesignAnalysis
from repro.serve import (
    CHECKPOINT_FORMAT,
    STAGES,
    BatchPolicy,
    ChainState,
    CheckpointError,
    ServeEngine,
    ServeRequest,
)


class _InjectedCrash(RuntimeError):
    pass


def _checkpoint_paths(directory) -> list[str]:
    return sorted(
        str(directory / name)
        for name in os.listdir(directory)
        if name.endswith(".ckpt")
    )


class TestChainState:
    def test_advance_walks_all_stages(self):
        state = ChainState(request=ServeRequest("v", "d", "b", "improve timing"))
        seen = []
        while state.stage != "done":
            seen.append(state.stage)
            state.advance()
        assert tuple(seen) == STAGES
        assert state.completed == STAGES
        with pytest.raises(ValueError):
            state.advance()

    def test_no_evaluate_skips_synthesize(self):
        state = ChainState(
            request=ServeRequest("v", "d", "b", "improve timing", evaluate=False)
        )
        assert state.stages() == STAGES[:-1]
        assert "synthesize" not in state.remaining()

    def test_result_requires_completion(self):
        state = ChainState(request=ServeRequest("v", "d", "b", "improve timing"))
        with pytest.raises(ValueError, match="not finished"):
            state.result()

    def test_save_load_roundtrip(self, tmp_path):
        state = ChainState(request=ServeRequest("v", "d", "b", "improve timing"))
        state.advance()
        path = str(tmp_path / "s.ckpt")
        state.save(path)
        loaded = ChainState.load(path)
        assert pickle.dumps(loaded) == pickle.dumps(state)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_save_is_atomic_under_write_failure(self, tmp_path, monkeypatch):
        """A failed overwrite leaves the previous checkpoint intact."""
        path = str(tmp_path / "s.ckpt")
        first = ChainState(request=ServeRequest("v", "d", "b", "improve timing"))
        first.save(path)

        second = ChainState(request=ServeRequest("v2", "d2", "b2", "reduce area"))
        import repro.core.session as state_mod

        def explode(obj, fh):
            fh.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(state_mod.pickle, "dump", explode)
        with pytest.raises(OSError, match="disk full"):
            second.save(path)
        monkeypatch.undo()

        survivor = ChainState.load(path)
        assert survivor.request.design_name == "d"
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_load_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"not": "a chain state"}))
        _assert_rejected(path, "not a ChainState")
        path.write_bytes(pickle.dumps(("ChainState", CHECKPOINT_FORMAT, "x")))
        _assert_rejected(path, "not a ChainState")


def _state() -> ChainState:
    state = ChainState(request=ServeRequest("v", "d", "b", "improve timing"))
    state.advance()
    return state


def _assert_rejected(path, reason: str) -> None:
    """Loading ``path`` raises a CheckpointError naming it, and is counted."""
    before = perf.counter("serve.checkpoint_rejected")
    with pytest.raises(CheckpointError, match=reason) as info:
        ChainState.load(str(path))
    assert isinstance(info.value, ValueError)
    assert str(path) in str(info.value)
    assert perf.counter("serve.checkpoint_rejected") == before + 1


class TestCheckpointFormat:
    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        _state().save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        _assert_rejected(path, "truncated or corrupt")

    def test_garbage_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"\x00 not a pickle")
        _assert_rejected(path, "truncated or corrupt")

    def test_unversioned_checkpoint_is_rejected(self, tmp_path):
        """A bare pickled ChainState, as checkpoints were first written."""
        path = tmp_path / "s.ckpt"
        path.write_bytes(pickle.dumps(_state()))
        _assert_rejected(path, "unversioned checkpoint")

    def test_other_format_is_rejected(self, tmp_path):
        """Format 1 checkpoints carried the analysis's mapped netlist."""
        path = tmp_path / "s.ckpt"
        path.write_bytes(pickle.dumps(("ChainState", 1, _state())))
        _assert_rejected(path, "checkpoint format 1, expected 3")

    def test_format_2_checkpoint_is_rejected(self, tmp_path, monkeypatch):
        """A format 2 checkpoint pickled ``repro.serve.state.ChainState``,
        a module that no longer exists."""
        module = types.ModuleType("repro.serve.state")
        module.ChainState = type("ChainState", (), {"__module__": module.__name__})
        monkeypatch.setitem(sys.modules, module.__name__, module)
        data = pickle.dumps(("ChainState", 2, module.ChainState()))
        monkeypatch.delitem(sys.modules, module.__name__)
        path = tmp_path / "s.ckpt"
        path.write_bytes(data)
        _assert_rejected(path, "No module named 'repro.serve.state'")

    def test_format_pins_the_fields(self):
        """Changing a checkpointed field means bumping CHECKPOINT_FORMAT."""
        fields = (
            tuple(f.name for f in dataclasses.fields(ChainState)),
            tuple(f.name for f in dataclasses.fields(ServeRequest)),
            tuple(f.name for f in dataclasses.fields(DesignAnalysis)),
        )
        assert (CHECKPOINT_FORMAT, fields) == (
            3,
            (
                ("request", "stage", "completed", "requirement", "analysis",
                 "design_embedding", "retrieval", "draft", "script", "trace",
                 "qor", "executable", "error"),
                ("verilog", "design_name", "baseline_script", "requirement",
                 "tool_report", "top", "clock_period", "seed", "evaluate",
                 "session_id"),
                ("design_name", "circuit", "timing", "area", "num_cells",
                 "num_registers", "max_fanout", "high_fanout_nets",
                 "critical_modules", "pathologies", "category_mix",
                 "register_stage_imbalance", "longest_chain",
                 "hierarchy_buffers", "tagged_adders"),
            ),
        )

    def test_resume_rejects_before_any_stage_runs(self, chatls, tmp_path):
        good = tmp_path / "good.ckpt"
        _state().save(str(good))
        stale = tmp_path / "stale.ckpt"
        stale.write_bytes(pickle.dumps(_state()))
        engine = ServeEngine(chatls)

        def ran(state, stage):  # pragma: no cover - only on failure
            raise AssertionError(f"stage {stage} ran")

        engine._after_stage = ran
        with pytest.raises(CheckpointError, match="stale.ckpt"):
            engine.resume([str(good), str(stale)])
        assert engine.stage_sessions == {}


class TestCrashResume:
    @pytest.mark.parametrize("crash_after", ["analyze", "retrieve", "draft", "revise"])
    def test_kill_after_stage_resumes_remaining_only(
        self, chatls, make_requests, expected_results, assert_identical,
        tmp_path, crash_after,
    ):
        engine = ServeEngine(
            chatls,
            policy=BatchPolicy(batch_max=8, batch_wait_ms=5.0),
            checkpoint_dir=str(tmp_path),
        )

        def bomb(state, stage):
            if stage == crash_after:
                raise _InjectedCrash(f"killed after {stage}")

        engine._after_stage = bomb
        with pytest.raises(_InjectedCrash):
            engine.run(make_requests())

        paths = _checkpoint_paths(tmp_path)
        assert len(paths) == 3
        completed_through = STAGES[: STAGES.index(crash_after) + 1]
        for path in paths:
            state = ChainState.load(path)
            assert state.completed == completed_through

        fresh = ServeEngine(
            chatls,
            policy=BatchPolicy(batch_max=8, batch_wait_ms=5.0),
            checkpoint_dir=str(tmp_path),
        )
        resumed = fresh.resume(paths)
        assert_identical(resumed, expected_results)
        # Completed stages were NOT re-run; remaining stages ran for all.
        for stage in completed_through:
            assert fresh.stage_sessions[stage] == 0, stage
        for stage in STAGES[STAGES.index(crash_after) + 1:]:
            assert fresh.stage_sessions[stage] == 3, stage

    def test_kill_after_draft_runs_only_revise_synthesize(
        self, chatls, make_requests, expected_results, assert_identical, tmp_path
    ):
        """The ISSUE's acceptance scenario, spelled out end to end."""
        engine = ServeEngine(
            chatls,
            policy=BatchPolicy(batch_max=8, batch_wait_ms=5.0),
            checkpoint_dir=str(tmp_path),
        )

        def bomb(state, stage):
            if stage == "draft":
                raise _InjectedCrash("killed after draft")

        engine._after_stage = bomb
        with pytest.raises(_InjectedCrash):
            engine.run(make_requests())

        fresh = ServeEngine(chatls, checkpoint_dir=str(tmp_path))
        resumed = fresh.resume(_checkpoint_paths(tmp_path))
        assert fresh.stage_sessions == {
            "analyze": 0, "retrieve": 0, "draft": 0, "revise": 3, "synthesize": 3,
        }
        assert_identical(resumed, expected_results)

    def test_completed_checkpoint_resumes_to_result(
        self, chatls, make_requests, expected_results, assert_identical, tmp_path
    ):
        engine = ServeEngine(
            chatls,
            policy=BatchPolicy(batch_max=8, batch_wait_ms=5.0),
            checkpoint_dir=str(tmp_path),
        )
        first = engine.run(make_requests())
        assert_identical(first, expected_results)

        fresh = ServeEngine(chatls)
        resumed = fresh.resume(_checkpoint_paths(tmp_path))
        assert_identical(resumed, expected_results)
        assert all(count == 0 for count in fresh.stage_sessions.values())
