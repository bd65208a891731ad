import numpy as np
import pytest

from seqtag.exceptions import ConfigError
from seqtag.hyperopt import (
    ContinuousInterval,
    DiscreteInterval,
    ListInterval,
    SearchConfig,
    derive_seed,
    parse_interval,
    render_template,
    run_search,
    sample_trial,
    split_search_section,
)


def test_list_interval_uniform():
    interval = ListInterval(values=["LSTM", "GRU"])
    rng = np.random.default_rng(0)
    draws = [interval.sample(rng) for _ in range(4000)]
    assert set(draws) == {"LSTM", "GRU"}
    assert 0.45 < draws.count("LSTM") / len(draws) < 0.55


def test_discrete_interval_inclusive_endpoints():
    interval = DiscreteInterval(start=0, end=5)
    rng = np.random.default_rng(1)
    draws = {interval.sample(rng) for _ in range(2000)}
    assert draws == {0, 1, 2, 3, 4, 5}


def test_continuous_interval_half_open():
    interval = ContinuousInterval(start=0.0, end=5.0)
    rng = np.random.default_rng(2)
    draws = [interval.sample(rng) for _ in range(2000)]
    assert all(0.0 <= d < 5.0 for d in draws)


def test_interval_bounds_hold_for_many_draws():
    rng = np.random.default_rng(3)
    li = ListInterval(values=[1, 2, 7])
    di = DiscreteInterval(start=-3, end=3)
    ci = ContinuousInterval(start=0.25, end=0.75)
    seen_discrete = set()
    for _ in range(100_000):
        assert li.sample(rng) in (1, 2, 7)
        d = di.sample(rng)
        seen_discrete.add(d)
        assert -3 <= d <= 3
        c = ci.sample(rng)
        assert 0.25 <= c < 0.75
    assert -3 in seen_discrete and 3 in seen_discrete


def test_parse_interval_kinds():
    assert isinstance(parse_interval({"kind": "list", "values": [1]}), ListInterval)
    assert isinstance(parse_interval({"kind": "discrete", "start": 0, "end": 2}), DiscreteInterval)
    assert isinstance(
        parse_interval({"kind": "continuous", "start": 0.0, "end": 1.0}), ContinuousInterval
    )
    with pytest.raises(ConfigError):
        parse_interval({"kind": "grid"})


def test_unknown_key_is_reported_before_the_section_checks():
    """A misspelt key is named even when its section would also fail its
    own checks (an empty search space, an empty interval)."""
    interval = {"kind": "discrete", "start": 5, "end": 2, "stpe": 1}
    for section, message in [
        ({"variables": {}, "trails": 2}, r"unknown key search\.trails"),
        ({"variables": {"u": interval}}, r"unknown key search\.variables\.u\.stpe"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            split_search_section({"search": section})


def test_sample_trial_binds_every_variable():
    search = SearchConfig(
        variables={
            "lr": ContinuousInterval(0.001, 0.1),
            "units": DiscreteInterval(4, 16),
            "cell": ListInterval(["lstm", "gru"]),
        }
    )
    trial = sample_trial(search, np.random.default_rng(4))
    assert set(trial.keys()) == {"lr", "units", "cell"}


def test_render_template_typed_and_textual():
    template = {
        "lr": "${lr}",
        "name": "run-${cell}",
        "nested": {"units": ["${units}", 3]},
    }
    rendered = render_template(template, {"lr": 0.01, "cell": "gru", "units": 8})
    assert rendered == {"lr": 0.01, "name": "run-gru", "nested": {"units": [8, 3]}}


@pytest.mark.parametrize("node", ["${missing}", "run-${missing}-x"], ids=["whole", "embedded"])
def test_render_template_unbound_variable_is_config_error(node):
    with pytest.raises(ConfigError, match=r"^unbound template variable \$\{missing\}$"):
        render_template({"a": [node]}, {"lr": 0.1})


def test_unbound_variable_fails_before_training():
    calls = []
    with pytest.raises(ConfigError, match="missing"):
        run_search(
            template={"lr": "${missing}"},
            search=SearchConfig(
                variables={"lr": ContinuousInterval(0.0, 1.0)}, trials=2, seeds_per_trial=1
            ),
            train_fn=lambda cfg, seed: calls.append(1) or 0.0,
        )
    assert calls == []


def test_search_runs_trials_times_seeds():
    calls = []

    def train_fn(config, seed):
        calls.append((config["lr"], seed))
        return config["lr"]

    search = SearchConfig({"lr": ContinuousInterval(0.0, 1.0)}, 10, 3, master_seed=7)
    report = run_search({"lr": "${lr}"}, search, train_fn=train_fn)
    assert len(calls) == 30
    assert len(report.trials) == 10
    best = max(report.trials, key=lambda t: t.mean)
    assert report.winner == best.index


def test_mean_is_arithmetic_mean_of_seed_scores():
    scores = iter([0.2, 0.4, 0.9])
    report = run_search(
        {"x": "${x}"},
        SearchConfig({"x": DiscreteInterval(0, 1)}, trials=1, seeds_per_trial=3, master_seed=0),
        train_fn=lambda cfg, seed: next(scores),
    )
    assert report.trials[0].mean == pytest.approx((0.2 + 0.4 + 0.9) / 3, abs=1e-12)


def test_report_appends_population_seed_spread():
    def train_fn(config, seed):
        if config["x"] == "bad":
            raise RuntimeError("injected failure")
        return seed % 7 / 7

    report = run_search(
        {"x": "${x}"},
        SearchConfig(
            {"x": ListInterval(["a", "bad"])},
            trials=4,
            seeds_per_trial=3,
            master_seed=2,
            final_seeds=1,
        ),
        train_fn=train_fn,
    )
    rows = [line.split("\t") for line in report.to_tsv().splitlines()]
    assert rows[0] == ["trial", "status", "mean", "seed_scores", "assignment", "seed_std"]
    trials = {int(r[0]): r for r in rows[1:] if r[0].isdigit()}
    ok = [t for t in report.trials if t.error is None]
    failed = [t for t in report.trials if t.error is not None]
    assert ok and failed
    for trial in ok:
        mean = sum(trial.seed_scores) / 3
        spread = (sum((s - mean) ** 2 for s in trial.seed_scores) / 3) ** 0.5
        assert spread > 0
        assert trials[trial.index][5] == f"{spread:.6f}"
    for trial in failed:
        assert trials[trial.index][1:3] + trials[trial.index][5:] == ["failed", "-", "-"]
    # the winner and final rows keep their two and three columns
    assert [len(r) for r in rows if r[0] in ("winner", "final")] == [2, 3]


def test_single_trial_wins_trivially():
    report = run_search(
        {"x": "${x}"},
        SearchConfig({"x": DiscreteInterval(0, 5)}, trials=1, seeds_per_trial=2, master_seed=1),
        train_fn=lambda cfg, seed: 0.5,
    )
    assert report.winner == 0


def test_failed_trial_recorded_and_excluded():
    def train_fn(config, seed):
        if config["x"] == 3:
            raise RuntimeError("injected failure")
        return float(config["x"])

    search = SearchConfig({"x": DiscreteInterval(0, 5)}, 10, 2, master_seed=3)
    report = run_search({"x": "${x}"}, search, train_fn=train_fn)
    failed = [t for t in report.trials if t.error is not None]
    ok = [t for t in report.trials if t.error is None]
    assert any(t.assignment["x"] == 3 for t in report.trials)
    assert all(t.assignment["x"] == 3 for t in failed)
    assert report.winner in {t.index for t in ok}
    assert all(t.mean is not None for t in report.ranking())


def test_trial_records_the_seeds_it_ran():
    """``TrialRecord.seeds`` holds the seed of each score; a trial that
    fails, here on its second seed, keeps neither."""
    calls = []

    def train_fn(config, seed):
        calls.append(seed)
        if config["x"] == 3 and len(calls) % 2 == 0:  # every trial runs two seeds
            raise RuntimeError("injected failure")
        return float(config["x"])

    search = SearchConfig({"x": DiscreteInterval(0, 5)}, 10, 2, final_seeds=1, master_seed=3)
    report = run_search({"x": "${x}"}, search, train_fn=train_fn)
    failed = [t for t in report.trials if t.error is not None]
    assert failed and len(failed) < len(report.trials)
    assert len(calls) == 2 * len(report.trials) + 1
    for trial in report.trials:
        expected = [derive_seed(3, trial.index, j) for j in range(2)]
        assert calls[2 * trial.index : 2 * trial.index + 2] == expected
        assert trial.seeds == ([] if trial.error is not None else expected)
        assert len(trial.seeds) == len(trial.seed_scores)


def test_search_reproducible_from_master_seed():
    def train_fn(config, seed):
        return (config["x"] * 31 + seed) % 97 / 97.0

    search = SearchConfig({"x": DiscreteInterval(0, 50)}, 8, 3, master_seed=11)
    a = run_search({"x": "${x}"}, search, train_fn=train_fn)
    b = run_search({"x": "${x}"}, search, train_fn=train_fn)
    assert [t.assignment for t in a.trials] == [t.assignment for t in b.trials]
    assert [t.seed_scores for t in a.trials] == [t.seed_scores for t in b.trials]
    assert a.winner == b.winner
    assert a.to_tsv() == b.to_tsv()


def test_ranking_ties_break_to_lower_index():
    report = run_search(
        {"x": "${x}"},
        SearchConfig({"x": DiscreteInterval(0, 5)}, trials=4, seeds_per_trial=1, master_seed=5),
        train_fn=lambda cfg, seed: 1.0,
    )
    assert report.winner == 0


def test_final_seeds_reevaluate_winner():
    calls = []

    def train_fn(config, seed):
        calls.append(seed)
        return 1.0

    run_search(
        {"x": "${x}"},
        SearchConfig(
            {"x": DiscreteInterval(0, 1)}, trials=2, seeds_per_trial=2, final_seeds=3, master_seed=9
        ),
        train_fn=train_fn,
    )
    assert len(calls) == 2 * 2 + 3
    assert len(set(calls)) == len(calls)  # final seeds are fresh


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seeds = {derive_seed(1, t, s) for t in range(10) for s in range(3)}
    assert len(seeds) == 30


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SearchConfig({}), "empty search space"),
        (lambda: SearchConfig({"x": ListInterval([1])}, trials=0), "trials must be >= 1, got 0"),
        (
            lambda: SearchConfig({"x": ListInterval([1])}, seeds_per_trial=-2),
            "seeds_per_trial must be >= 1, got -2",
        ),
        (
            lambda: SearchConfig({"x": ListInterval([1])}, final_seeds=-2),
            "final_seeds must be >= 0, got -2",
        ),
        (
            lambda: SearchConfig({"x": ListInterval([1])}, master_seed=-1),
            "master_seed must be >= 0, got -1",
        ),
        (lambda: DiscreteInterval(0, 2**63), r"discrete interval \[0..9223372036854775808\]"),
        (lambda: DiscreteInterval(-(2**63) - 1, 0), "exceeds"),
        (lambda: ContinuousInterval(0.0, float("inf")), "has no finite width"),
        (lambda: ContinuousInterval(float("-inf"), 0.0), "has no finite width"),
        (lambda: ContinuousInterval(-1e308, 1e308), "has no finite width"),
    ],
)
def test_search_config_and_intervals_check_their_ranges_when_built(build, message):
    with pytest.raises(ConfigError, match=message):
        build()


def test_intervals_at_the_sampler_limits_draw_within_them():
    rng = np.random.default_rng(6)
    widest = DiscreteInterval(-(2**63), 2**63 - 1)
    assert all(-(2**63) <= widest.sample(rng) <= 2**63 - 1 for _ in range(100))
    far = ContinuousInterval(1e308, 1.7e308)
    assert all(1e308 <= far.sample(rng) < 1.7e308 for _ in range(100))


def test_split_search_section_reads_defaults_and_locates_errors():
    raw = {"search": {"variables": {"x": {"kind": "list", "values": [1]}}}, "training": {}}
    search, template = split_search_section(raw)
    defaults = (search.trials, search.seeds_per_trial, search.final_seeds, search.master_seed)
    assert defaults == (10, 3, 0, 0)
    assert template == {"training": {}} and "search" in raw
    x = {"x": {"kind": "list", "values": [1]}}
    for section, message in [
        ({"variables": x, "trails": 2}, "unknown key search.trails"),
        ({"trials": 1}, "missing required key search.variables"),
        ({"trials": "2", "variables": x}, "search.trials: expected int"),
        ({"variables": {"x": {"kind": "list", "values": []}}}, "search.variables.x: list interval"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}"):
            split_search_section({"search": section})
