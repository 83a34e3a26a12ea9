"""Explore eval scenario: QoR-vs-budget curves, ledger wiring, metrics."""

import json

from repro.eval import ExploreQoRResult, run_explore_qor
from repro.obs import metrics


class TestExploreScenario:
    def test_curves_ledger_and_metrics(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path))
        result = run_explore_qor(
            designs=["dynamic_node"], budgets=(8, 16), seed=1, chains=1,
            jobs=1,
        )
        assert set(result.greedy) == {"dynamic_node"}
        assert set(result.curves["dynamic_node"]) == {8, 16}
        greedy = result.greedy["dynamic_node"]
        for q in result.curves["dynamic_node"].values():
            # The explorer never worsens the greedy reference point.
            assert (max(0.0, -q.wns), q.area) <= (
                max(0.0, -greedy.wns), greedy.area
            )
        rendered = result.render()
        assert "dynamic_node" in rendered and "@8:WNS" in rendered

        manifests = sorted(tmp_path.glob("*-explore.json"))
        assert manifests
        record = json.loads(manifests[-1].read_text())
        assert "greedy/dynamic_node" in record["qor"]
        assert "explore@16/dynamic_node" in record["qor"]
        assert record["extra"]["budgets"] == [8, 16]

        # The explorer's move counter reached the manifest, and its batch
        # widths the live metrics registry.
        assert record["counters"]["explore.moves"] >= 24  # 8 + 16 trials minimum
        families = {family.name for family in metrics.registry.collect()}
        assert "repro_explore_batch_size" in families

    def test_result_render_handles_missing_points(self):
        result = ExploreQoRResult()
        assert "Explore" in result.render()
