"""The benchmark's own tests: input generation, metric names, span
arithmetic, and the command's behaviour without the program.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import gen, layers, workloads
from perfbench.hostclock import NOMINAL_S, HostClock
from perfbench.run import ROOT, end_to_end, item_latencies, median_seconds
from perfbench.trace import Span, Tracer, call_counts, inclusive_times, self_times

DEFINITIONS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _write_inputs(work: Path, name: str, seed: int) -> dict[str, bytes]:
    work.mkdir()
    spec = workloads.WORKLOADS[name].make().spec
    # predict and search wrap the TrainSpec that writes their files
    spec = getattr(spec, "model", None) or getattr(spec, "data", None) or spec
    workloads.write_train_inputs(work, seed, spec, work / "out")
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    first = _write_inputs(tmp_path / "first", name, 7)
    again = _write_inputs(tmp_path / "again", name, 7)
    other = _write_inputs(tmp_path / "other", name, 8)
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[f] != other[f] for f in first)


def test_labels_are_a_function_of_the_word_in_context():
    lexicon = gen.make_lexicon(np.random.default_rng(1), 200, (3, 8))
    for sentence in gen.make_sentences(np.random.default_rng(2), lexicon, 400, 20, (5, 60)):
        prev = "O"
        for word, tag, seg in sentence:
            cls = lexicon.classes[lexicon.words.index(word)]
            expected = "O" if cls == "O" else ("I-" if prev == cls else "B-") + cls
            assert tag == expected
            assert seg == (tag if tag == "O" else tag[0] + "-Arg")
            prev = cls


def test_workload_names_match_the_definitions():
    assert [w["name"] for w in DEFINITIONS["workloads"]] == list(workloads.WORKLOADS)


def _sample(pieces, latencies_ms):
    return workloads.Sample(
        units=1, failed=0, tokens=100, pieces=pieces, setup_s=0.1,
        accuracy=0.9, latencies_ms=latencies_ms, fingerprint=(), raw_seconds=2 * sum(pieces),
    )


def test_calls_and_predictions_count_at_their_median():
    samples = [
        _sample([1.0, 3.0], [5.0, 2.0]),
        _sample([2.0, 1.0], [4.0, 6.0]),
        _sample([9.0, 9.0], [1.0, 1.0]),
    ]
    assert median_seconds(samples) == 5.0  # pieces at medians 2.0 and 3.0
    assert item_latencies(samples) == [4.0, 2.0]
    with pytest.raises(workloads.CheckFailed):
        median_seconds([_sample([1.0], []), _sample([1.0, 1.0], [])])


def test_host_clock_scales_each_gap_by_its_local_chunk_time():
    clock = HostClock()
    c = NOMINAL_S
    # marks of 1 s whose timed chunks take c, c, 2c, 2c; program gaps of
    # 1.0 s, 0.5 s and 3.0 s between the marks
    clock.ticks = [(0.0, 1.0 - c, 1.0), (2.0, 3.0 - c, 3.0), (3.5, 4.5 - 2 * c, 4.5),
                   (7.5, 8.5 - 2 * c, 8.5)]
    assert clock.raw_s(0, 3) == pytest.approx(4.5)
    assert clock.local_chunk_s(0, 1) == pytest.approx(1.5 * c)  # median of all four
    assert clock.corrected_s(0, 3) == pytest.approx(4.5 / 1.5)
    clock.mark()
    begin, start, end = clock.ticks[-1]
    assert len(clock.ticks) == 5 and begin < start < end


def test_end_to_end_metric_names_match_the_definitions():
    sample = _sample([1.0, 1.0], [3.0, 4.0])
    metrics, _ = end_to_end([sample, sample])
    assert list(metrics) == [m["name"] for m in DEFINITIONS["end_to_end"]]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in DEFINITIONS["end_to_end"]
    }


def test_per_layer_metric_names_match_the_definitions():
    names = set(layers.layer_metrics(Tracer(), runs=1, tokens_trained=0)) | {"trace.overhead"}
    assert names == {m["name"] for m in DEFINITIONS["per_layer"]}


def test_self_time_is_duration_minus_covered_child_time():
    # root [0, 10] -> a [1, 5] -> b [2, 3]; root -> c [6, 9]; root -> a [9.5, 10]
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 5.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),
        Span("c", 6.0, 9.0, 0, 0),
        Span("a", 9.5, 10.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx({"root": 2.5, "a": 3.5, "b": 1.0, "c": 3.0})
    assert inclusive_times(spans) == pytest.approx({"root": 10.0, "a": 4.5, "b": 1.0, "c": 3.0})
    assert inclusive_times(spans, exclude="b") == pytest.approx(
        {"root": 9.0, "a": 3.5, "b": 1.0, "c": 3.0}
    )
    assert call_counts(spans) == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    first = tracer.begin("x")
    tracer.begin("y")
    with pytest.raises(RuntimeError):
        tracer.end(first)


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
