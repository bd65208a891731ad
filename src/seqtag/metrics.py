"""Evaluation metrics.

Token-level accuracy/precision/recall/F1, component and relation F1 for
argumentation structures under exact (100%) and approximate (50%) span
matching, word accuracy and edit distance for converted strings, the
coefficient of variation across repeated runs, and the span-overlap
profile multiset. A task's results are a plain ``list[SentenceResult]``,
one per sentence (blank-line block); ``METRICS`` names each metric once.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from seqtag.exceptions import DataError
from seqtag.labels import (
    ComponentSpan,
    components_from_labels,
    parse_am_sequence,
    rel_to_abs_links,
    strip_alignment_symbols,
)


class MetricError(DataError):
    pass


@dataclass
class SentenceResult:
    """One sentence's gold and predicted labels, token by token."""

    gold: list[str]
    predicted: list[str]

    def __post_init__(self):
        if len(self.gold) != len(self.predicted):
            raise MetricError(
                f"misaligned result: {len(self.gold)} gold, {len(self.predicted)} predicted"
            )


@dataclass
class MatchCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        if denom == 0:
            return 0.0  # degenerate case: nothing to find, nothing predicted
        return 2 * self.tp / denom


# -- token-level metrics ----------------------------------------------------------


def token_prf(
    results: Sequence[SentenceResult], labels: Sequence[str] | None = None
) -> dict[str, float]:
    """Accuracy plus macro-averaged precision/recall/F1.

    The macro mean runs over the full label inventory including the
    outside label; labels absent from both gold and prediction
    contribute zero. Pass ``labels`` to fix the inventory, otherwise
    the labels observed in gold and prediction are used.
    """
    total = 0
    correct = 0
    per_label: dict[str, MatchCounts] = {}
    for sentence in results:
        for gold, pred in zip(sentence.gold, sentence.predicted):
            total += 1
            if gold == pred:
                correct += 1
                per_label.setdefault(gold, MatchCounts()).tp += 1
            else:
                per_label.setdefault(pred, MatchCounts()).fp += 1
                per_label.setdefault(gold, MatchCounts()).fn += 1
    if total == 0:
        raise MetricError("empty result list")

    inventory = list(labels) if labels is not None else sorted(per_label.keys())
    if not inventory:
        raise MetricError("empty label inventory")
    precisions, recalls, f1s = [], [], []
    for label in inventory:
        counts = per_label.get(label, MatchCounts())
        p_denom = counts.tp + counts.fp
        r_denom = counts.tp + counts.fn
        precisions.append(counts.tp / p_denom if p_denom else 0.0)
        recalls.append(counts.tp / r_denom if r_denom else 0.0)
        f1s.append(counts.f1())
    n = len(inventory)
    return {
        "accuracy": correct / total,
        "precision": sum(precisions) / n,
        "recall": sum(recalls) / n,
        "f1": sum(f1s) / n,
    }


# -- argumentation metrics -----------------------------------------------------------

LEVEL_APPROX = "approx"  # >= half of the gold tokens shared
LEVEL_EXACT = "exact"  # identical token sets


def am_match(gold: ComponentSpan, pred: ComponentSpan, level: str) -> bool:
    """Span-level match; label equality is the caller's concern."""
    gold_tokens = set(gold.token_range)
    pred_tokens = set(pred.token_range)
    if level == LEVEL_EXACT:
        return gold_tokens == pred_tokens
    if level == LEVEL_APPROX:
        shared = len(gold_tokens & pred_tokens)
        return 2 * shared >= len(gold_tokens)
    raise MetricError(f"unknown match level {level!r}")


def _document_components(labels: Sequence[str]) -> list[ComponentSpan]:
    seq = parse_am_sequence(labels)
    return rel_to_abs_links(components_from_labels(seq))


@dataclass
class _Relation:
    source: ComponentSpan
    target: ComponentSpan
    stance: str


def _relations(components: Sequence[ComponentSpan]) -> list[_Relation]:
    return [
        _Relation(source=c, target=components[c.target - 1], stance=c.stance)
        for c in components
        if c.target is not None
    ]


def am_f1(
    results: Sequence[SentenceResult], target: str = "component", level: str = LEVEL_APPROX
) -> float:
    """Component or relation F1 over post-processed predictions.

    Components are matched on type and span at the requested level;
    each gold item consumes at most one prediction, greedily in
    document order. A relation (a component with an outgoing link)
    matches when its source and target components both match and the
    source type and stance agree, so correct relations require correct
    arguments. Each blank-line block counts as one document.
    """
    if target not in ("component", "relation"):
        raise MetricError(f"unknown AM metric target {target!r}")

    def component_match(g: ComponentSpan, p: ComponentSpan) -> bool:
        return p.ctype == g.ctype and am_match(g, p, level)

    def relation_match(g: _Relation, p: _Relation) -> bool:
        return (
            p.source.ctype == g.source.ctype
            and p.stance == g.stance
            and p.target.ctype == g.target.ctype
            and am_match(g.source, p.source, level)
            and am_match(g.target, p.target, level)
        )

    counts = MatchCounts()
    for sentence in results:
        try:
            gold_comps = _document_components(sentence.gold)
            pred_comps = _document_components(sentence.predicted)
        except DataError as err:
            raise MetricError(
                f"invalid AM structure; run am_postprocess on predictions first ({err})"
            ) from err
        if target == "component":
            _greedy_match(gold_comps, pred_comps, component_match, counts)
        else:
            _greedy_match(_relations(gold_comps), _relations(pred_comps), relation_match, counts)
    return counts.f1()


def _greedy_match(gold, pred, matches, counts: MatchCounts) -> None:
    """Each gold item takes the first unused prediction that
    ``matches(g, p)``; unused predictions are false positives."""
    used = [False] * len(pred)
    for g in gold:
        for i, p in enumerate(pred):
            if not used[i] and matches(g, p):
                used[i] = True
                counts.tp += 1
                break
        else:
            counts.fn += 1
    counts.fp += used.count(False)


# -- sequence-to-sequence metrics -------------------------------------------------------


def word_accuracy(predicted: Sequence[str], gold: Sequence[str]) -> float:
    """Fraction of exactly matching converted strings."""
    if len(predicted) != len(gold):
        raise MetricError(f"{len(predicted)} predictions for {len(gold)} references")
    if not gold:
        raise MetricError("word accuracy of an empty list")
    return sum(1 for p, g in zip(predicted, gold) if p == g) / len(gold)


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance by dynamic programming."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def aggregate_edit_distance(distances: Iterable[float], how: str = "mean") -> float:
    values = list(distances)
    if not values:
        raise MetricError("no edit distances to aggregate")
    if how == "mean":
        return sum(values) / len(values)
    if how == "median":
        return float(statistics.median(values))
    raise MetricError(f"unknown aggregation {how!r}")


# -- dispersion ---------------------------------------------------------------------------


def coefficient_of_variation(samples: Sequence[float]) -> float:
    """Population standard deviation over the mean."""
    if len(samples) < 2:
        raise MetricError("coefficient of variation needs at least two samples")
    mean = sum(samples) / len(samples)
    if mean == 0.0:
        raise MetricError("coefficient of variation undefined for zero mean")
    var = sum((x - mean) ** 2 for x in samples) / len(samples)
    return (var ** 0.5) / mean


# -- span overlap profile --------------------------------------------------------------------

OverlapSpan = tuple[int, int, str]  # start a, end b with a < b, component label


def span_overlap_profile(
    gold: Sequence[OverlapSpan], pred: Sequence[OverlapSpan]
) -> list[tuple[int, int]]:
    """One (component length, best overlap length) pair per gold span.

    The overlap length is zero when the labels differ or when no
    prediction overlaps the gold span.
    """
    for a, b, _ in list(gold) + list(pred):
        if a >= b:
            raise MetricError(f"malformed span ({a}, {b}): start must precede end")
    profile = []
    for a, b, gold_label in gold:
        best = 0
        for c, d, pred_label in pred:
            if pred_label == gold_label:  # an overlap with another label counts zero
                best = max(best, min(b, d) - max(a, c))
        profile.append((b - a, best))
    return profile


# -- metric names ------------------------------------------------------------------------------


def _strings(results: Sequence[SentenceResult], evaluation) -> tuple[list[str], list[str]]:
    """Each sentence's predicted and gold strings, alignment symbols removed."""
    symbols = evaluation.empty_symbol, evaluation.join_symbol
    return (
        [strip_alignment_symbols(s.predicted, *symbols) for s in results],
        [strip_alignment_symbols(s.gold, *symbols) for s in results],
    )


def _edit_distance(results: Sequence[SentenceResult], evaluation, how: str) -> float:
    return aggregate_edit_distance(map(edit_distance, *_strings(results, evaluation)), how)


# name -> f(results, labels, evaluation): ``labels`` fixes the token-level
# label inventory (None: the labels observed), ``evaluation`` (an
# ``EvalConfig``) the alignment symbols that the string metrics strip
METRICS = {
    "accuracy": lambda r, labels, _: token_prf(r, labels)["accuracy"],
    "precision": lambda r, labels, _: token_prf(r, labels)["precision"],
    "recall": lambda r, labels, _: token_prf(r, labels)["recall"],
    "f1": lambda r, labels, _: token_prf(r, labels)["f1"],
    "c_f1_50": lambda r, *_: am_f1(r, "component", LEVEL_APPROX),
    "c_f1_100": lambda r, *_: am_f1(r, "component", LEVEL_EXACT),
    "r_f1_50": lambda r, *_: am_f1(r, "relation", LEVEL_APPROX),
    "r_f1_100": lambda r, *_: am_f1(r, "relation", LEVEL_EXACT),
    "wacc": lambda r, _, evaluation: word_accuracy(*_strings(r, evaluation)),
    "edit_distance_mean": lambda r, _, evaluation: _edit_distance(r, evaluation, "mean"),
    "edit_distance_median": lambda r, _, evaluation: _edit_distance(r, evaluation, "median"),
}
