"""Run-ledger tests: manifests, resolution, regression diffing, CLI gate."""

import copy
import json
import os

import pytest

from repro import perf
from repro.obs import ledger
from repro.obs.ledger import (
    Thresholds,
    build_manifest,
    diff_manifests,
    latest_run,
    ledger_enabled,
    list_runs,
    load_manifest,
    qor_rows,
    record_run,
    render_diff,
    resolve_run,
    write_manifest,
)
from repro.obs.report import main as report_main
from repro.synth.reports import QoRSnapshot


def snap(design="aes", wns=-0.1, cps=1.9, tns=-0.5, area=1200.0):
    return QoRSnapshot(
        design=design, wns=wns, cps=cps, tns=tns, area=area,
        num_violations=1, num_cells=100, num_registers=10,
        max_fanout=8, leakage_nw=1.0, dynamic_uw=2.0,
    )


class TestQorRows:
    def test_snapshot_objects_and_dicts_normalize(self):
        rows = qor_rows(
            {
                "ChatLS/aes": snap(),
                "GPT-4o/aes": {"wns": 0.25, "cps": 2.25, "tns": 0.0, "area": 1000.0},
                "Claude-3.5/aes": None,  # failed cell: skipped, not crashed
            }
        )
        assert set(rows) == {"ChatLS/aes", "GPT-4o/aes"}
        assert rows["ChatLS/aes"] == {
            "wns": -0.1, "cps": 1.9, "tns": -0.5, "area": 1200.0
        }
        assert rows["GPT-4o/aes"]["area"] == 1000.0

    def test_none_input(self):
        assert qor_rows(None) == {}


class TestManifest:
    def test_build_contains_identity_and_perf(self):
        perf.reset()
        perf.incr("ledger.test_counter", 3)
        perf.add_time("ledger.test_stage", 0.01)
        try:
            manifest = build_manifest("table3", qor={"ChatLS/aes": snap()})
        finally:
            perf.reset()
        assert manifest["schema"] == ledger.MANIFEST_SCHEMA
        assert manifest["label"] == "table3"
        assert manifest["run_id"].endswith("-table3")
        assert manifest["counters"]["ledger.test_counter"] == 3
        assert manifest["stages"]["ledger.test_stage"]["calls"] == 1
        assert manifest["qor"]["ChatLS/aes"]["cps"] == 1.9
        assert "python" in manifest and "hostname" in manifest
        assert isinstance(manifest["env"], dict)
        assert "REPRO_PARALLEL_WORKER" not in manifest["env"]

    def test_env_fingerprint_captures_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_PARALLEL_WORKER", "1")  # excluded
        manifest = build_manifest("t")
        assert manifest["env"]["REPRO_JOBS"] == "4"
        assert "REPRO_PARALLEL_WORKER" not in manifest["env"]

    def test_write_load_roundtrip_atomic(self, tmp_path):
        manifest = build_manifest("t", extra={"note": "x"})
        path = write_manifest(manifest, str(tmp_path))
        assert os.path.basename(path) == f"{manifest['run_id']}.json"
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        loaded = load_manifest(path)
        assert loaded["run_id"] == manifest["run_id"]
        assert loaded["extra"] == {"note": "x"}

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="not a run manifest"):
            load_manifest(str(path))

    def test_load_rejects_truncated_manifest(self, tmp_path):
        path = write_manifest(build_manifest("t"), str(tmp_path))
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[: len(text) // 2])
        with pytest.raises(ValueError, match="invalid manifest JSON") as info:
            load_manifest(path)
        assert path in str(info.value)

    def test_load_rejects_other_schema(self, tmp_path):
        manifest = dict(build_manifest("t"), schema=2)
        path = write_manifest(manifest, str(tmp_path))
        with pytest.raises(ValueError, match="schema 2, expected 1") as info:
            load_manifest(path)
        assert path in str(info.value)


class TestRecordRun:
    def test_disabled_is_a_noop(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_LEDGER", raising=False)
        assert not ledger_enabled()
        assert record_run("t") is None

    def test_enabled_writes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path))
        assert ledger_enabled()
        path = record_run("smoke", qor={"baseline/aes": snap()})
        assert path is not None and os.path.isfile(path)
        assert load_manifest(path)["label"] == "smoke"

    def test_list_latest_resolve(self, tmp_path):
        paths = [
            write_manifest(build_manifest(label), str(tmp_path))
            for label in ("a", "b", "c")
        ]
        assert list_runs(str(tmp_path)) == sorted(paths)
        assert latest_run(str(tmp_path)) == sorted(paths)[-1]
        # "latest" excluding the newest returns the one before it
        assert latest_run(str(tmp_path), exclude=paths[-1]) == sorted(paths)[-2]
        run_id = load_manifest(paths[0])["run_id"]
        assert resolve_run(run_id, str(tmp_path)) == paths[0]
        assert resolve_run(paths[1], str(tmp_path)) == paths[1]
        assert resolve_run("latest", str(tmp_path)) == sorted(paths)[-1]
        with pytest.raises(FileNotFoundError):
            resolve_run("nope", str(tmp_path))

    def test_latest_empty_dir(self, tmp_path):
        assert latest_run(str(tmp_path)) is None
        with pytest.raises(FileNotFoundError, match="no manifests"):
            resolve_run("latest", str(tmp_path))


def base_manifest():
    return {
        "schema": ledger.MANIFEST_SCHEMA,
        "run_id": "base-run",
        "stages": {
            "eval.cell": {"total_s": 10.0, "calls": 9, "p50_s": 1.0,
                          "p95_s": 2.0, "max_s": 2.5},
            "rag.manual": {"total_s": 0.01, "calls": 100, "p50_s": 0.0001,
                           "p95_s": 0.0002, "max_s": 0.0003},
        },
        "caches": {
            "synthesis": {"entries": 10, "hits": 80, "misses": 20},
            "tiny": {"entries": 1, "hits": 2, "misses": 1},
        },
        "qor": {
            "ChatLS/aes": {"wns": 0.25, "cps": 2.25, "tns": 0.0, "area": 1200.0},
        },
    }


class TestDiff:
    def test_identical_runs_are_ok(self):
        base = base_manifest()
        new = copy.deepcopy(base)
        new["run_id"] = "new-run"
        result = diff_manifests(base, new)
        assert result.ok and not result.regressions
        assert "verdict: OK" in render_diff(result)

    def test_latency_regression_trips(self):
        new = copy.deepcopy(base_manifest())
        new["stages"]["eval.cell"]["p95_s"] = 4.0  # 2x growth, >1ms delta
        result = diff_manifests(base_manifest(), new)
        assert not result.ok
        assert any("eval.cell p95_s" in r for r in result.regressions)
        assert "verdict: REGRESSION" in render_diff(result)

    def test_micro_stage_jitter_below_abs_floor_ignored(self):
        new = copy.deepcopy(base_manifest())
        new["stages"]["rag.manual"]["p50_s"] = 0.0005  # 5x, but only 0.4ms
        assert diff_manifests(base_manifest(), new).ok

    def test_latency_improvement_reported(self):
        new = copy.deepcopy(base_manifest())
        new["stages"]["eval.cell"]["p50_s"] = 0.4
        result = diff_manifests(base_manifest(), new)
        assert result.ok
        assert any("faster" in i for i in result.improvements)

    def test_one_sided_stage_is_a_note_not_a_regression(self):
        new = copy.deepcopy(base_manifest())
        new["stages"]["brand.new_stage"] = {"p50_s": 9.0, "p95_s": 9.0}
        del new["stages"]["rag.manual"]
        result = diff_manifests(base_manifest(), new)
        assert result.ok
        assert any("brand.new_stage only in new" in n for n in result.notes)
        assert any("rag.manual only in base" in n for n in result.notes)

    def test_cache_hit_rate_drop_trips(self):
        new = copy.deepcopy(base_manifest())
        new["caches"]["synthesis"] = {"entries": 10, "hits": 50, "misses": 50}
        result = diff_manifests(base_manifest(), new)
        assert any("cache synthesis hit rate" in r for r in result.regressions)

    def test_low_traffic_cache_ignored(self):
        new = copy.deepcopy(base_manifest())
        new["caches"]["tiny"] = {"entries": 1, "hits": 0, "misses": 3}  # 3 lookups
        assert diff_manifests(base_manifest(), new).ok

    def test_qor_sense_map(self):
        # WNS down = worse; area up = worse; both flagged.
        new = copy.deepcopy(base_manifest())
        new["qor"]["ChatLS/aes"]["wns"] = 0.10
        new["qor"]["ChatLS/aes"]["area"] = 1400.0
        result = diff_manifests(base_manifest(), new)
        flagged = "\n".join(result.regressions)
        assert "wns" in flagged and "area" in flagged
        # area down = better
        better = copy.deepcopy(base_manifest())
        better["qor"]["ChatLS/aes"]["area"] = 1000.0
        result2 = diff_manifests(base_manifest(), better)
        assert result2.ok and any("area" in i for i in result2.improvements)

    def test_thresholds_are_configurable(self):
        new = copy.deepcopy(base_manifest())
        new["stages"]["eval.cell"]["p95_s"] = 4.0
        loose = Thresholds(latency_ratio=3.0)
        assert diff_manifests(base_manifest(), new, loose).ok


class TestDiffCLI:
    def write(self, tmp_path, manifest, name):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def test_ok_exit_zero(self, tmp_path, capsys):
        base = self.write(tmp_path, base_manifest(), "base.json")
        new_manifest = copy.deepcopy(base_manifest())
        new_manifest["run_id"] = "new-run"
        new = self.write(tmp_path, new_manifest, "new.json")
        assert report_main(["--diff", base, new]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_deliberate_regression_exits_nonzero(self, tmp_path, capsys):
        """Satellite: a 2x-latency + hit-rate-drop run must fail the gate."""
        base = self.write(tmp_path, base_manifest(), "base.json")
        worse = copy.deepcopy(base_manifest())
        worse["run_id"] = "worse-run"
        worse["stages"]["eval.cell"]["p50_s"] = 2.0   # 2x the baseline
        worse["stages"]["eval.cell"]["p95_s"] = 4.0
        worse["caches"]["synthesis"] = {"entries": 10, "hits": 40, "misses": 60}
        new = self.write(tmp_path, worse, "worse.json")
        assert report_main(["--diff", base, new]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert "eval.cell" in out and "synthesis" in out

    def test_baseline_latest_from_ledger_dir(self, tmp_path, capsys):
        write_manifest(dict(base_manifest(), run_id="000-base"), str(tmp_path))
        new_manifest = copy.deepcopy(base_manifest())
        new_manifest["run_id"] = "zzz-new"
        new_path = write_manifest(new_manifest, str(tmp_path))
        code = report_main(
            ["--diff", new_path, "--baseline", "latest",
             "--ledger-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "base: 000-base" in out and "new:  zzz-new" in out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        base = self.write(tmp_path, base_manifest(), "base.json")
        assert report_main(["--diff", base, base, base]) == 2
        assert report_main(["--diff", base]) == 2  # needs --baseline
        assert (
            report_main(["--diff", base, base, "--baseline", "latest"]) == 2
        )
        assert report_main(["--diff", "missing.json", base]) == 2
        capsys.readouterr()
        other = self.write(tmp_path, dict(base_manifest(), schema=2), "other.json")
        assert report_main(["--diff", base, other]) == 2
        err = capsys.readouterr().err
        assert "diff failed:" in err and "other.json" in err

    def test_thresholds_flags_reach_diff(self, tmp_path):
        base = self.write(tmp_path, base_manifest(), "base.json")
        worse = copy.deepcopy(base_manifest())
        worse["run_id"] = "worse"
        worse["stages"]["eval.cell"]["p95_s"] = 4.0
        new = self.write(tmp_path, worse, "worse.json")
        assert report_main(["--diff", base, new]) == 1
        assert report_main(["--diff", base, new, "--latency-ratio", "3.0"]) == 0
