"""Random hyper-parameter search.

A configuration template carries ``${name}`` placeholders and a
``search`` section, read and checked like every config section into a
``SearchConfig``. Each trial samples one value per variable from its
interval, renders a concrete configuration, and trains it once per
seed. Trials are ranked by the mean development score over their
seeds. A failed trial is recorded and excluded from the ranking
without aborting the experiment, and the search replays bit-for-bit
from the master seed.
"""

from __future__ import annotations

import math
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from seqtag.config import Checked, Reader, read, rule
from seqtag.exceptions import ConfigError

_PLACEHOLDER = re.compile(r"\$\{(\w+)\}")


@dataclass
class ListInterval(Checked):
    values: list

    def __post_init__(self):
        super().__post_init__()
        if not self.values:
            raise ConfigError("list interval needs at least one value")

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(0, len(self.values)))]


@dataclass
class DiscreteInterval(Checked):
    start: int
    end: int  # inclusive

    def __post_init__(self):
        super().__post_init__()
        if self.start > self.end:
            raise ConfigError(f"discrete interval [{self.start}..{self.end}] is empty")
        if self.start < -(2**63) or self.end > 2**63 - 1:  # the sampler draws int64
            raise ConfigError(f"discrete interval [{self.start}..{self.end}] exceeds int64")

    def sample(self, rng: np.random.Generator):
        return int(rng.integers(self.start, self.end + 1))


@dataclass
class ContinuousInterval(Checked):
    start: float
    end: float  # exclusive

    def __post_init__(self):
        super().__post_init__()
        if not self.start < self.end:
            raise ConfigError(f"continuous interval [{self.start}, {self.end}) is empty")
        if not math.isfinite(self.end - self.start):  # the sampler needs a finite width
            raise ConfigError(f"continuous interval [{self.start}, {self.end}) has no finite width")

    def sample(self, rng: np.random.Generator):
        return float(rng.uniform(self.start, self.end))


Interval = ListInterval | DiscreteInterval | ContinuousInterval


INTERVAL_KINDS = {
    "list": ListInterval,
    "discrete": DiscreteInterval,
    "continuous": ContinuousInterval,
}


@dataclass
class _IntervalKind(Checked):
    kind: str = field(metadata={"choices": tuple(INTERVAL_KINDS)})


def parse_interval(spec: Mapping, path: str = "interval") -> Interval:
    """Read one variable's interval like a config section; ``path``
    locates it in error messages."""
    reader = Reader(spec, path)
    kind = read(_IntervalKind, reader.split(_IntervalKind)).kind
    return read(INTERVAL_KINDS[kind], reader)


@dataclass
class SearchConfig(Checked):
    """The ``search`` section of a config template."""

    variables: dict[str, Interval]  # read by ``split_search_section``
    trials: int = rule(">= 1", default=10)
    seeds_per_trial: int = rule(">= 1", default=3)
    final_seeds: int = rule(">= 0", default=0)
    master_seed: int = rule(">= 0", default=0)

    def __post_init__(self):
        super().__post_init__()
        if not self.variables:
            raise ConfigError("empty search space")


def split_search_section(raw: Mapping) -> tuple[SearchConfig, dict]:
    """The ``search`` section of ``raw``, read and checked, and the config
    template: the rest of ``raw``, each of whose placeholders names a variable."""
    if "search" not in raw:
        raise ConfigError("config has no 'search' section")
    reader = Reader(raw["search"], "search")
    variables = {
        name: parse_interval(spec, f"search.variables.{name}")
        for name, spec in reader.take("variables", dict).items()
    }
    search = read(SearchConfig, reader, variables=variables)
    template = {key: value for key, value in raw.items() if key != "search"}
    render_template(template, dict.fromkeys(variables))  # raises on an unbound placeholder
    return search, template


def sample_trial(search: SearchConfig, rng: np.random.Generator) -> dict:
    """One value per variable, in declaration order."""
    return {name: interval.sample(rng) for name, interval in search.variables.items()}


# -- template rendering -------------------------------------------------------------


def render_template(node, assignment: Mapping):
    """Replace ``${name}`` placeholders with sampled values.

    A string that is exactly one placeholder takes the value's own type;
    placeholders embedded in longer strings are substituted textually.
    """
    if isinstance(node, dict):
        return {key: render_template(value, assignment) for key, value in node.items()}
    if isinstance(node, list):
        return [render_template(value, assignment) for value in node]
    if isinstance(node, str):

        def value(match):
            name = match.group(1)
            if name not in assignment:
                raise ConfigError(f"unbound template variable ${{{name}}}")
            return assignment[name]

        whole = _PLACEHOLDER.fullmatch(node)
        if whole:
            return value(whole)
        return _PLACEHOLDER.sub(lambda match: str(value(match)), node)
    return node


# -- the search ---------------------------------------------------------------------


def derive_seed(master_seed: int, trial_index: int, seed_index: int) -> int:
    """Deterministic per-run seed, reproducible in isolation."""
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), int(seed_index)])
    return int(seq.generate_state(1)[0])


@dataclass
class TrialRecord:
    index: int
    assignment: dict
    config: dict
    seed_scores: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)  # the seed of each score
    error: str | None = None

    @property
    def mean(self) -> float | None:
        if self.error is not None or not self.seed_scores:
            return None
        return sum(self.seed_scores) / len(self.seed_scores)


# free text in a report cell, kept to one line and one column: a backslash,
# tab, newline or carriage return becomes \\, \t, \n or \r
_CELL_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _tsv_cell(text: str) -> str:
    return text.translate(_CELL_ESCAPES)


@dataclass
class SearchReport:
    trials: list[TrialRecord]
    winner: int | None  # trial index
    final_scores: list[float] = field(default_factory=list)
    # (trial, seed index, seed, wall seconds) of every run, in run order
    run_seconds: list[tuple[int, int, int, float]] = field(default_factory=list)

    def ranking(self) -> list[TrialRecord]:
        scored = [t for t in self.trials if t.mean is not None]
        return sorted(scored, key=lambda t: (-t.mean, t.index))

    def to_tsv(self) -> str:
        lines = ["trial\tstatus\tmean\tseed_scores\tassignment\tseed_std"]
        for trial in self.trials:
            if trial.error is not None:
                status, mean, scores, spread = "failed", "-", _tsv_cell(trial.error), "-"
            else:
                status = "ok"
                mean = f"{trial.mean:.6f}"
                scores = ",".join(f"{s:.6f}" for s in trial.seed_scores)
                spread = f"{statistics.pstdev(trial.seed_scores):.6f}"
            assignment = _tsv_cell(",".join(f"{k}={v}" for k, v in trial.assignment.items()))
            lines.append(f"{trial.index}\t{status}\t{mean}\t{scores}\t{assignment}\t{spread}")
        if self.winner is not None:
            lines.append(f"winner\t{self.winner}")
            if self.final_scores:
                mean = sum(self.final_scores) / len(self.final_scores)
                scores = ",".join(f"{s:.6f}" for s in self.final_scores)
                lines.append(f"final\t{mean:.6f}\t{scores}")
        return "\n".join(lines) + "\n"

    def timing_tsv(self) -> str:
        lines = ["trial\tseed_index\tseed\tseconds"]
        lines += [f"{t}\t{j}\t{seed}\t{sec:.6f}" for t, j, seed, sec in self.run_seconds]
        return "\n".join(lines) + "\n"


def run_search(
    template: dict, search: SearchConfig, train_fn: Callable[[dict, int], float]
) -> SearchReport:
    """Sample, train, and rank trials.

    ``train_fn(config, seed)`` returns the development score of one
    run. An exception from a run marks the whole trial failed and the
    remaining trials still rank, but an ``OSError`` (an output that
    cannot be written) ends the search, as an unbound placeholder does
    on the first trial. When ``search.final_seeds`` > 0, the winning
    configuration is re-evaluated with that many fresh seeds.
    """
    report = SearchReport(trials=[], winner=None)

    def timed_run(config: dict, trial_index: int, seed_index: int) -> tuple[int, float]:
        seed = derive_seed(search.master_seed, trial_index, seed_index)
        start = time.perf_counter()
        try:
            return seed, float(train_fn(config, seed))
        finally:
            report.run_seconds.append(
                (trial_index, seed_index, seed, time.perf_counter() - start)
            )

    sampler = np.random.default_rng(search.master_seed)
    for index in range(search.trials):
        assignment = sample_trial(search, sampler)
        config = render_template(template, assignment)
        trial = TrialRecord(index=index, assignment=assignment, config=config)
        try:
            for seed_index in range(search.seeds_per_trial):
                seed, score = timed_run(config, index, seed_index)
                trial.seeds.append(seed)
                trial.seed_scores.append(score)
        except OSError:  # a run's output cannot be written: no later run can be either
            raise
        except Exception as err:  # deliberate: one trial must not sink the rest
            trial.error = f"{type(err).__name__}: {err}"
            trial.seed_scores, trial.seeds = [], []
        report.trials.append(trial)

    ranking = report.ranking()
    if ranking:
        winner = ranking[0]
        report.winner = winner.index
        for j in range(search.final_seeds):
            _, score = timed_run(winner.config, winner.index, search.seeds_per_trial + j)
            report.final_scores.append(score)
    return report
