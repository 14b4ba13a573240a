"""Integration tests: every experiment driver runs end to end (tiny configurations).

The benchmark suite runs the drivers at their default (paper-meaningful)
scales; these tests only check that each driver executes, produces rows with
the expected columns, and renders — so that a broken driver is caught by
``pytest tests/`` and not only by the benchmark run.
"""


from repro.api import ExecutionConfig, run_experiment
from repro.experiments import (
    e1_rounds_vs_n,
    e2_rounds_vs_eps,
    e3_messages,
    e4_phase0,
    e5_stage1_growth,
    e6_stage2_boost,
    e7_baselines,
    e8_majority,
    e9_async,
    e10_majority_lemma,
    e11_lower_bounds,
    e12_faults,
)


def assert_renders(report, expected_id):
    assert report.experiment_id == expected_id
    assert report.rows
    text = report.render()
    assert expected_id in text and "paper claim" in text


def test_e1_driver_small():
    report = e1_rounds_vs_n.run(sizes=(200, 400), epsilon=0.3, trials=2)
    assert_renders(report, "E1")
    assert {"n", "mean_rounds", "success_rate"} <= set(report.columns())


def test_e2_driver_small():
    report = e2_rounds_vs_eps.run(epsilons=(0.25, 0.45), n=300, trials=2)
    assert_renders(report, "E2")
    rounds = report.row_values("mean_rounds")
    assert rounds[0] > rounds[-1]


def test_e3_driver_small():
    report = e3_messages.run(sizes=(300,), epsilons=(0.3,), trials=2)
    assert_renders(report, "E3")
    assert all(row["messages_per_agent_over_rounds"] <= 1.0 for row in report.rows)


def test_e4_driver_small():
    report = e4_phase0.run(n=600, epsilons=(0.3,), trials=5)
    assert_renders(report, "E4")
    assert report.rows[0]["beta_s"] > 0


def test_e5_driver_small():
    report = e5_stage1_growth.run(n=1500, epsilon=0.4, beta_override=6, trials=2)
    assert_renders(report, "E5")
    sizes = report.row_values("mean_X_i")
    assert sizes == sorted(sizes)


def test_e6_driver_small():
    report = e6_stage2_boost.run(n=800, epsilon=0.3, trials=3)
    assert_renders(report, "E6")
    assert report.rows[-1]["mean_bias_after"] > 0.4


def test_e7_driver_small():
    report = e7_baselines.run(n=400, epsilons=(0.3,), trials=2, voter_rounds=100)
    assert_renders(report, "E7")
    protocols = set(report.row_values("protocol"))
    assert "breathe-before-speaking" in protocols and "immediate-forwarding" in protocols


def test_e8_driver_small():
    report = e8_majority.run(n=400, epsilon=0.3, set_sizes=(120,), biases=(0.05, 0.3), trials=2)
    assert_renders(report, "E8")
    assert any(row["above_threshold"] for row in report.rows)


def test_e9_driver_small():
    report = e9_async.run(n=300, epsilon=0.3, skews=(8,), trials=2)
    assert_renders(report, "E9")
    variants = report.row_values("variant")
    assert "fully-synchronous" in variants and "bounded-skew" in variants


def test_e10_driver_small():
    report = e10_majority_lemma.run(epsilon=0.25, deltas=(0.01, 0.1), monte_carlo_reps=5000)
    assert_renders(report, "E10")
    assert all(row["bound_satisfied"] for row in report.rows)


def test_e11_driver_small():
    report = e11_lower_bounds.run(n=150, epsilon=0.35, trials=2)
    assert_renders(report, "E11")
    assert len(report.rows) == 2


def test_e12_driver_small():
    report = e12_faults.run(n=150, epsilon=0.3, fault_fractions=(0.0, 0.2), trials=2)
    assert_renders(report, "E12")
    assert len(report.rows) == 4  # 2 fractions x 2 protocols
    assert {"protocol", "fault_fraction", "num_faulty", "success_rate"} <= set(report.columns())
    zero_rows = [row for row in report.rows if row["fault_fraction"] == 0.0]
    assert all(row["num_faulty"] == 0 for row in zero_rows)


def test_e12_driver_small_batch_and_byzantine():
    report = run_experiment(
        "E12",
        config=ExecutionConfig(batch=True),
        n=150,
        epsilon=0.3,
        fault_fractions=(0.1,),
        fault_kind="byzantine",
        trials=2,
    ).report
    assert_renders(report, "E12")
    assert [row["protocol"] for row in report.rows] == [
        "breathe-before-speaking",
        "phased-approximate-consensus",
    ]
    assert all(row["num_faulty"] > 0 for row in report.rows)
