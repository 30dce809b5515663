"""Tests for the experiment harness (tiny configurations).

Each experiment is exercised at a deliberately small scale so the whole file
runs in tens of seconds; the full paper-shape runs live in ``benchmarks/``.
"""

import pytest

from repro.experiments import (
    Figure5Config,
    Figure7Config,
    Figure8Config,
    Figure9Config,
    Figure10Config,
    Table1Config,
    Table2Config,
    Table3Config,
    Table4Config,
    Table5Config,
    run_figure5,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import (
    available_experiments,
    experiment_config_fields,
    render_report,
    run_all,
    run_experiment,
)
from repro.exceptions import ExperimentError


TINY_DBLP = dict(num_communities=8, community_size=60, event_size=100,
                 num_pairs=2, sample_size=100)


class TestRunner:
    def test_available_experiments_cover_all_tables_and_figures(self):
        expected = {f"figure{i}" for i in range(5, 11)} | {f"table{i}" for i in range(1, 6)}
        assert set(available_experiments()) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("figure99")

    def test_config_object_and_overrides_are_exclusive(self):
        with pytest.raises(ExperimentError):
            run_experiment("table1", Table1Config(), sample_size=10)

    def test_run_all_rejects_an_override_an_experiment_lacks(self):
        assert "num_subnets" in experiment_config_fields("table3")
        assert "num_subnets" not in experiment_config_fields("figure5")

        def never_run(experiment_id):
            raise AssertionError(f"{experiment_id} ran despite a bad override")

        with pytest.raises(ExperimentError, match=r"'num_subnets'.*'figure5'"):
            run_all(["table3", "figure5"], progress=never_run,
                    config_overrides={"num_subnets": 40})

    def test_render_report_markdown(self):
        result = run_table3(Table3Config(num_subnets=40, subnet_size=15, sample_size=100))
        report = render_report([result], markdown=True)
        assert "table3" in report
        assert "|" in report


class TestFigureExperiments:
    def test_figure5_recall_at_zero_noise_is_high(self):
        config = Figure5Config(levels=(1,), noise_grids={1: (0.0, 0.3)},
                               samplers=("batch_bfs",), **TINY_DBLP)
        result = run_figure5(config)
        table = result.tables["h=1 (positive pairs)"]
        zero_noise_recall = float(table.rows[0][1])
        high_noise_recall = float(table.rows[1][1])
        assert zero_noise_recall >= 0.5
        assert high_noise_recall <= zero_noise_recall

    def test_figure7_produces_one_row_per_batch_size(self):
        config = Figure7Config(batch_sizes=(1, 10),
                               configurations=(("positive", 2, 0.0),), **TINY_DBLP)
        result = run_figure7(config)
        assert len(result.tables["recall vs batch size"]) == 2

    def test_figure8_has_removal_and_addition_tables(self):
        config = Figure8Config(levels=(1,), removal_fractions=(0.0, 0.5),
                               addition_fractions=(0.0, 3.0), **TINY_DBLP)
        result = run_figure8(config)
        assert len(result.tables) == 2

    def test_figure9_batch_bfs_time_grows_with_event_set(self):
        config = Figure9Config(num_nodes=4000, event_set_sizes=(100, 1500),
                               levels=(1,), samplers=("batch_bfs", "importance"),
                               sample_size=100, repetitions=1)
        result = run_figure9(config)
        table = result.tables["h=1"]
        small = float(table.rows[0][1])
        large = float(table.rows[1][1])
        assert large >= small

    def test_figure10_tables_have_expected_shape(self):
        config = Figure10Config(graph_sizes=(2000,), levels=(1, 2),
                                bfs_repetitions=5, reference_node_counts=(100, 300),
                                zscore_repetitions=2)
        result = run_figure10(config)
        assert len(result.tables["(a) one h-hop BFS vs graph size"]) == 1
        z_table = result.tables["(b) z-score computation vs number of reference nodes"]
        assert float(z_table.rows[1][1]) >= float(z_table.rows[0][1])


class TestTableExperiments:
    def test_table1_all_pairs_positive(self):
        result = run_table1(Table1Config(num_communities=12, community_size=60,
                                         num_pairs=2, sample_size=150))
        table = result.tables["1-hop positive keyword pairs"]
        for row in table.rows:
            assert float(row[2]) > 0  # h=1 z-score

    def test_table2_all_pairs_negative(self):
        result = run_table2(Table2Config(num_communities=12, community_size=60,
                                         num_pairs=2, sample_size=150))
        table = result.tables["3-hop negative keyword pairs"]
        for row in table.rows:
            assert float(row[2]) < 0  # h=1 z-score is negative

    def test_table3_positive_tesc_flat_tc(self):
        result = run_table3(Table3Config(num_subnets=50, subnet_size=25,
                                         num_pairs=3, sample_size=150))
        table = result.tables["1-hop positive alert pairs"]
        z_scores = [float(row[2]) for row in table.rows]
        tc_scores = [float(row[3]) for row in table.rows]
        assert max(z_scores) > 2.0
        assert all(tc < 2.0 for tc in tc_scores)

    def test_table4_negative_tesc(self):
        result = run_table4(Table4Config(num_subnets=50, subnet_size=25,
                                         num_pairs=3, sample_size=150))
        table = result.tables["2-hop negative alert pairs"]
        assert all(float(row[2]) < -2.0 for row in table.rows)

    def test_table5_rare_pairs_missed_by_pfp(self):
        result = run_table5(Table5Config(num_subnets=50, subnet_size=25, sample_size=150))
        table = result.tables["rare positive alert pairs"]
        assert all(row[4] == "no" for row in table.rows)

    def test_result_render_contains_tables(self):
        result = run_table5(Table5Config(num_subnets=50, subnet_size=25, sample_size=100))
        rendered = result.render()
        assert "rare positive alert pairs" in rendered
        assert isinstance(result, ExperimentResult)
