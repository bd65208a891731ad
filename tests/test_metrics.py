import re
from pathlib import Path

import numpy as np
import pytest

from seqtag.config import EvalConfig
from seqtag.metrics import (
    LEVEL_APPROX,
    LEVEL_EXACT,
    METRICS,
    MetricError,
    SentenceResult,
    aggregate_edit_distance,
    am_f1,
    am_match,
    coefficient_of_variation,
    edit_distance,
    span_overlap_profile,
    token_prf,
    word_accuracy,
)
from seqtag.labels import ComponentSpan, strip_alignment_symbols

# ---------------------------------------------------------------------------
# document fixtures: component specs are (length, type, distance, stance);
# rendering inserts one O token between components and at both ends
# ---------------------------------------------------------------------------


def render_document(specs, gap=1):
    labels = []
    for length, ctype, d, s in specs:
        labels.extend(["O"] * gap)
        d_text = "⊥" if d is None else str(d)
        s_text = "⊥" if s is None else s
        for i in range(length):
            prefix = "B" if i == 0 else "I"
            labels.append(f"{prefix}:{ctype}:{d_text}:{s_text}")
    labels.extend(["O"] * gap)
    return labels


# the essay excerpt with all component types: a major claim, two
# supporting claims, premise chains, and an attacking claim with an
# attacked/attacking premise group
ESSAY_SPECS = [
    (4, "MC", None, None),  # 1 major claim
    (5, "C", None, "For"),  # 2 claim 1
    (6, "C", None, "For"),  # 3 claim 2
    (5, "P", -1, "Supp"),  # 4 premise 1 -> claim 2
    (4, "P", -1, "Supp"),  # 5 premise 2 -> premise 1
    (3, "P", -3, "Supp"),  # 6 premise 3 -> claim 2
    (4, "P", -1, "Supp"),  # 7 premise 4 -> premise 3
    (6, "P", -2, "Supp"),  # 8 premise 5 -> premise 3
    (4, "C", None, "Ag"),  # 9 claim 5 (attacks)
    (5, "P", -1, "Supp"),  # 10 premise 9 -> claim 5
    (3, "P", 1, "Supp"),  # 11 premise 10 -> premise 11
    (5, "P", -3, "Att"),  # 12 premise 11 attacks claim 5
]


def essay_results(pred_specs=None):
    gold = render_document(ESSAY_SPECS)
    pred = render_document(pred_specs if pred_specs is not None else ESSAY_SPECS)
    return [SentenceResult(gold, pred)]


# ---------------------------------------------------------------------------
# token-level metrics
# ---------------------------------------------------------------------------


def test_perfect_prediction_all_ones():
    results = [SentenceResult(["B-X", "O"], ["B-X", "O"])]
    scores = token_prf(results)
    assert scores == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_disjoint_label_sets_zero_f1():
    results = [SentenceResult(["A", "A"], ["B", "B"])]
    assert token_prf(results)["f1"] == 0.0


def test_majority_baseline_reproduces_published_value():
    # constant I-EG prediction over 7437 tokens of which 2636 are I-EG,
    # macro-averaged over the 17-label inventory -> 3.079% F1
    gold = ["I-EG"] * 2636
    others = 7437 - 2636
    other_labels = [f"L{i:02d}" for i in range(16)]
    for i in range(others):
        gold.append(other_labels[i % 16])
    pred = ["I-EG"] * 7437
    results = [SentenceResult(gold, pred)]
    inventory = ["I-EG"] + other_labels
    f1 = token_prf(results, labels=inventory)["f1"]
    assert f1 * 100 == pytest.approx(3.079, abs=1e-3)


def test_accuracy_one_iff_f1_one_fuzz():
    rng = np.random.default_rng(0)
    labels = ["A", "B", "O"]
    for _ in range(200):
        n = int(rng.integers(1, 20))
        gold = [labels[i] for i in rng.integers(0, 3, size=n)]
        if rng.random() < 0.4:
            pred = list(gold)
        else:
            pred = [labels[i] for i in rng.integers(0, 3, size=n)]
        scores = token_prf([SentenceResult(gold, pred)])
        assert (scores["accuracy"] == 1.0) == (scores["f1"] == 1.0)


def test_length_mismatch_is_error():
    with pytest.raises(MetricError):
        SentenceResult(["X", "Y"], ["X"])


# ---------------------------------------------------------------------------
# span matching
# ---------------------------------------------------------------------------


def span(start, end, ctype="P"):
    return ComponentSpan(start=start, end=end, ctype=ctype)


def test_identical_spans_match_both_levels():
    assert am_match(span(2, 6), span(2, 6), LEVEL_EXACT)
    assert am_match(span(2, 6), span(2, 6), LEVEL_APPROX)


def test_three_of_five_tokens_is_approx_only():
    gold = span(0, 4)  # 5 tokens
    pred = span(2, 6)  # shares 3
    assert am_match(gold, pred, LEVEL_APPROX)
    assert not am_match(gold, pred, LEVEL_EXACT)


def test_two_of_five_tokens_no_match():
    gold = span(0, 4)
    pred = span(3, 6)  # shares 2 < 2.5
    assert not am_match(gold, pred, LEVEL_APPROX)
    assert not am_match(gold, pred, LEVEL_EXACT)


@pytest.mark.parametrize(
    "gold, pred, approx",
    [
        (span(0, 3), span(6, 9), False),  # disjoint
        (span(6, 9), span(0, 3), False),  # disjoint, prediction first
        (span(0, 3), span(4, 7), False),  # adjacent
        (span(4, 7), span(0, 3), False),  # adjacent, prediction first
        (span(0, 3), span(2, 9), True),  # 2 of 4 gold tokens: 2 * shared == len(gold)
        (span(2, 5), span(0, 3), True),  # 2 of 4, from the other side
        (span(0, 0), span(0, 5), True),  # a one-token gold inside a longer prediction
        (span(2, 5), span(2, 6), True),  # same start, one token longer
    ],
)
def test_span_match_at_the_edges_of_overlap(gold, pred, approx):
    assert am_match(gold, pred, LEVEL_APPROX) == approx
    assert not am_match(gold, pred, LEVEL_EXACT)


# ---------------------------------------------------------------------------
# AM F1 on the essay fixture
# ---------------------------------------------------------------------------


def test_perfect_prediction_gives_one_everywhere():
    results = essay_results()
    for target in ("component", "relation"):
        for level in (LEVEL_APPROX, LEVEL_EXACT):
            assert am_f1(results, target, level) == 1.0


def test_shifted_premise_counts_at_half_overlap_only():
    gold_doc = render_document(ESSAY_SPECS)
    # shrink premise 1 (5 tokens) to its last 3 tokens: 3 of 5 covered
    pred_doc = list(gold_doc)
    starts = [i for i, l in enumerate(gold_doc) if l.startswith("B:")]
    p1_start = starts[3]
    pred_doc[p1_start] = "O"
    pred_doc[p1_start + 1] = "O"
    pred_doc[p1_start + 2] = gold_doc[p1_start]  # B at the new start
    results = [SentenceResult(gold_doc, pred_doc)]

    n = len(ESSAY_SPECS)
    assert am_f1(results, "component", LEVEL_APPROX) == pytest.approx(1.0)
    # exact: shifted premise is one FP and one FN
    assert am_f1(results, "component", LEVEL_EXACT) == pytest.approx(
        2 * (n - 1) / (2 * (n - 1) + 2)
    )


def test_retargeted_links_kill_relation_f1_only():
    retargeted = []
    for k, (length, ctype, d, s) in enumerate(ESSAY_SPECS, start=1):
        if d is not None:
            target = k + d
            new_target = target + 1 if target + 1 <= len(ESSAY_SPECS) else target - 2
            if new_target == k:
                new_target += 1
            retargeted.append((length, ctype, new_target - k, s))
        else:
            retargeted.append((length, ctype, d, s))
    results = essay_results(retargeted)
    for level in (LEVEL_APPROX, LEVEL_EXACT):
        assert am_f1(results, "component", level) == 1.0
        assert am_f1(results, "relation", level) == 0.0


def test_invalid_structure_directs_to_postprocess():
    results = [SentenceResult(["O", "O"], ["O", "I:P:1:Supp"])]
    with pytest.raises(MetricError, match="am_postprocess"):
        am_f1(results, "component", LEVEL_APPROX)


@pytest.mark.parametrize("target", ["component", "relation"])
@pytest.mark.parametrize("predicted", ["B:C:⊥:For", "B:MC:⊥:⊥"])
def test_am_f1_rejects_an_unknown_level_whatever_the_types(target, predicted):
    # when the types differ, no span comparison ever reads the level
    results = [SentenceResult(["B:C:⊥:For"], [predicted])]
    with pytest.raises(MetricError, match=r"^unknown match level 'bogus'$"):
        am_f1(results, target, "bogus")


# ---------------------------------------------------------------------------
# independent brute-force matcher oracle
# ---------------------------------------------------------------------------


def oracle_extract(labels):
    """Re-derive components from label strings without the labels module."""
    comps = []
    i = 0
    while i < len(labels):
        if labels[i].startswith("B:"):
            j = i + 1
            while j < len(labels) and labels[j].startswith("I:"):
                j += 1
            _, t, d, s = labels[i].split(":")
            comps.append(
                {
                    "tokens": frozenset(range(i, j)),
                    "t": t,
                    "d": None if d == "⊥" else int(d),
                    "s": None if s == "⊥" else s,
                }
            )
            i = j
        else:
            i += 1
    for k, comp in enumerate(comps, start=1):
        comp["target"] = None if comp["d"] is None else k + comp["d"]
    return comps


def oracle_span_match(gold, pred, level):
    if level == LEVEL_EXACT:
        return gold["tokens"] == pred["tokens"]
    return 2 * len(gold["tokens"] & pred["tokens"]) >= len(gold["tokens"])


def oracle_f1(gold_labels, pred_labels, target, level):
    gold = oracle_extract(gold_labels)
    pred = oracle_extract(pred_labels)
    if target == "relation":
        gold_items = [
            (g, gold[g["target"] - 1]) for g in gold if g["target"] is not None
        ]
        pred_items = [
            (p, pred[p["target"] - 1]) for p in pred if p["target"] is not None
        ]

        def matches(g, p):
            gs, gt = g
            ps, pt = p
            return (
                gs["t"] == ps["t"]
                and gs["s"] == ps["s"]
                and gt["t"] == pt["t"]
                and oracle_span_match(gs, ps, level)
                and oracle_span_match(gt, pt, level)
            )

    else:
        gold_items, pred_items = gold, pred

        def matches(g, p):
            return g["t"] == p["t"] and oracle_span_match(g, p, level)

    taken = [False] * len(pred_items)
    tp = 0
    for g in gold_items:
        for i, p in enumerate(pred_items):
            if not taken[i] and matches(g, p):
                taken[i] = True
                tp += 1
                break
    fp = taken.count(False)
    fn = len(gold_items) - tp
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def random_structure(rng, max_components=12):
    n = int(rng.integers(0, max_components + 1))
    specs = []
    for k in range(1, n + 1):
        length = int(rng.integers(1, 6))
        roll = rng.random()
        if n >= 2 and roll < 0.5:
            target = int(rng.integers(1, n + 1))
            while target == k:
                target = int(rng.integers(1, n + 1))
            specs.append((length, "P", target - k, ("Supp", "Att")[rng.integers(0, 2)]))
        elif roll < 0.8:
            specs.append((length, "C", None, ("For", "Ag")[rng.integers(0, 2)]))
        else:
            specs.append((length, "MC", None, None))
    return specs


def test_am_f1_agrees_with_oracle_on_random_documents():
    rng = np.random.default_rng(1)
    for _ in range(500):
        gold_specs = random_structure(rng)
        if rng.random() < 0.5:
            pred_specs = random_structure(rng)
        else:
            pred_specs = [
                (max(1, length + int(rng.integers(-1, 2))), t, d, s)
                for (length, t, d, s) in gold_specs
            ]
        gold_doc = render_document(gold_specs, gap=int(rng.integers(1, 3)))
        pred_doc = render_document(pred_specs, gap=int(rng.integers(1, 3)))
        if len(pred_doc) < len(gold_doc):
            pred_doc += ["O"] * (len(gold_doc) - len(pred_doc))
        else:
            gold_doc += ["O"] * (len(pred_doc) - len(gold_doc))
        results = [SentenceResult(gold_doc, pred_doc)]
        for target in ("component", "relation"):
            for level in (LEVEL_APPROX, LEVEL_EXACT):
                got = am_f1(results, target, level)
                want = oracle_f1(gold_doc, pred_doc, target, level)
                assert got == pytest.approx(want, abs=1e-12), (target, level)
        # exact matches are a subset of approximate matches
        assert am_f1(results, "component", LEVEL_EXACT) <= am_f1(
            results, "component", LEVEL_APPROX
        ) + 1e-12
        assert am_f1(results, "relation", LEVEL_EXACT) <= am_f1(
            results, "relation", LEVEL_APPROX
        ) + 1e-12


def test_no_matched_components_means_zero_relation_f1():
    pred_specs = [(length, "MC", None, None) for (length, _, _, _) in ESSAY_SPECS]
    results = essay_results(pred_specs)
    assert am_f1(results, "relation", LEVEL_APPROX) == 0.0


# ---------------------------------------------------------------------------
# S2S metrics
# ---------------------------------------------------------------------------


def test_word_accuracy():
    assert word_accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert word_accuracy(["a", "x"], ["a", "b"]) == 0.5
    with pytest.raises(MetricError):
        word_accuracy([], [])


def test_edit_distance_cases():
    assert edit_distance("same", "same") == 0
    assert edit_distance("", "abc") == 3
    assert edit_distance("kitten", "sitting") == 3


def brute_force_edit_distance(a, b, cache=None):
    if cache is None:
        cache = {}
    key = (a, b)
    if key in cache:
        return cache[key]
    if not a:
        result = len(b)
    elif not b:
        result = len(a)
    else:
        result = min(
            brute_force_edit_distance(a[1:], b, cache) + 1,
            brute_force_edit_distance(a, b[1:], cache) + 1,
            brute_force_edit_distance(a[1:], b[1:], cache) + (a[0] != b[0]),
        )
    cache[key] = result
    return result


def test_edit_distance_against_recursive_oracle():
    assert edit_distance("kitten", "sitting") == brute_force_edit_distance("kitten", "sitting")
    rng = np.random.default_rng(2)
    alphabet = "abc"
    for _ in range(100):
        a = "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
        b = "".join(alphabet[i] for i in rng.integers(0, 3, size=rng.integers(0, 7)))
        assert edit_distance(a, b) == brute_force_edit_distance(a, b)


def test_edit_distance_metric_axioms_fuzz():
    rng = np.random.default_rng(3)
    alphabet = "abcd"

    def random_string():
        return "".join(alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 8)))

    for _ in range(200):
        a, b, c = random_string(), random_string(), random_string()
        assert edit_distance(a, a) == 0
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
        if a != b:
            assert edit_distance(a, b) >= 1


def test_edit_distance_aggregation():
    assert aggregate_edit_distance([1, 2, 3], "mean") == pytest.approx(2.0)
    assert aggregate_edit_distance([1, 2, 100], "median") == pytest.approx(2.0)
    with pytest.raises(MetricError):
        aggregate_edit_distance([], "mean")


# ---------------------------------------------------------------------------
# coefficient of variation
# ---------------------------------------------------------------------------


def test_cv_constant_sample_is_zero():
    assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0


def test_cv_one_two_three():
    assert coefficient_of_variation([1.0, 2.0, 3.0]) == pytest.approx(0.40825, abs=1e-4)


def test_cv_zero_mean_is_error():
    with pytest.raises(MetricError):
        coefficient_of_variation([1.0, -1.0])


# ---------------------------------------------------------------------------
# span overlap profile
# ---------------------------------------------------------------------------


def test_overlap_identical_spans():
    assert span_overlap_profile([(2, 5, "P")], [(2, 5, "P")]) == [(3, 3)]


def test_overlap_partial_right():
    assert span_overlap_profile([(2, 5, "P")], [(4, 8, "P")]) == [(3, 1)]


def test_overlap_label_mismatch_counts_zero():
    assert span_overlap_profile([(2, 5, "P")], [(2, 5, "C")]) == [(3, 0)]


def test_overlap_all_five_conditions():
    # cond1 equal; cond2 pred extends left; cond3 pred extends right;
    # cond4 pred contains gold; cond5 gold contains pred
    assert span_overlap_profile([(2, 5, "X")], [(2, 5, "X")]) == [(3, 3)]
    assert span_overlap_profile([(4, 8, "X")], [(2, 5, "X")]) == [(4, 1)]
    assert span_overlap_profile([(2, 5, "X")], [(4, 8, "X")]) == [(3, 1)]
    assert span_overlap_profile([(3, 5, "X")], [(2, 8, "X")]) == [(2, 2)]
    assert span_overlap_profile([(2, 9, "X")], [(4, 6, "X")]) == [(7, 2)]


def test_overlap_no_overlap_and_empty_prediction_set():
    assert span_overlap_profile([(2, 5, "X")], [(5, 9, "X")]) == [(3, 0)]
    assert span_overlap_profile([(2, 5, "X")], []) == [(3, 0)]


def test_overlap_matches_a_point_set_oracle():
    spans = [(a, b) for a in range(-2, 9) for b in range(a + 1, 9)]
    for a, b in spans:
        for c, d in spans:
            oracle = len(set(range(a, b)) & set(range(c, d)))
            assert span_overlap_profile([(a, b, "X")], [(c, d, "X")]) == [(b - a, oracle)]


def test_overlap_malformed_span_is_error():
    with pytest.raises(MetricError):
        span_overlap_profile([(5, 5, "X")], [])


def test_overlap_profile_invariants_fuzz():
    rng = np.random.default_rng(4)
    for _ in range(200):
        def random_spans():
            spans = []
            cursor = 0
            for _ in range(rng.integers(0, 6)):
                start = cursor + int(rng.integers(0, 3))
                end = start + int(rng.integers(1, 5))
                spans.append((start, end, ("P", "C")[rng.integers(0, 2)]))
                cursor = end
            return spans

        gold = random_spans()
        pred = random_spans()
        profile = span_overlap_profile(gold, pred)
        assert len(profile) == len(gold)
        assert all(0 <= overlap <= length for length, overlap in profile)
        assert sum(o for _, o in profile) <= sum(l for l, _ in profile)
        mirror = span_overlap_profile(gold, gold)
        assert mirror == [(b - a, b - a) for a, b, _ in gold]


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------


def test_readme_lists_the_metric_names_in_table_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    command_line = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    listed = command_line.split("Metric names:", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([^`]+)`", listed) == list(METRICS)


def test_metric_table_maps_each_name_to_its_metric():
    gold = render_document(ESSAY_SPECS)
    starts = [i for i, label in enumerate(gold) if label.startswith("B:")]
    pred = list(gold)
    # premise 1 loses two of its five tokens: a match at 50% only
    pred[starts[3] : starts[3] + 3] = ["O", "O", gold[starts[3]]]
    # premise 2 links one component further back: its relation is lost
    premise_2 = slice(starts[4], starts[4] + 4)
    pred[premise_2] = [label.replace(":-1:", ":-2:") for label in gold[premise_2]]
    results = [SentenceResult(gold, gold)] * 4 + [
        SentenceResult(gold, pred),
        SentenceResult(["O", "O"], ["O", "B:C:⊥:For"]),  # one claim too many
    ]
    evaluation = EvalConfig()
    token = token_prf(results)
    strings = {
        side: [strip_alignment_symbols(getattr(s, side), "ε", "_") for s in results]
        for side in ("gold", "predicted")
    }
    distances = [edit_distance(p, g) for p, g in zip(strings["predicted"], strings["gold"])]
    want = {
        "accuracy": token["accuracy"],
        "precision": token["precision"],
        "recall": token["recall"],
        "f1": token["f1"],
        "c_f1_50": am_f1(results, "component", LEVEL_APPROX),
        "c_f1_100": am_f1(results, "component", LEVEL_EXACT),
        "r_f1_50": am_f1(results, "relation", LEVEL_APPROX),
        "r_f1_100": am_f1(results, "relation", LEVEL_EXACT),
        "wacc": word_accuracy(strings["predicted"], strings["gold"]),
        "edit_distance_mean": aggregate_edit_distance(distances, "mean"),
        "edit_distance_median": aggregate_edit_distance(distances, "median"),
    }
    assert {name: metric(results, None, evaluation) for name, metric in METRICS.items()} == want
    # every value differs, so a name bound to another metric shows
    assert len(set(want.values())) == len(want)
