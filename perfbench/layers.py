"""Per-layer metrics: which public functions are wrapped, and how the
recorded spans and counters become the reported numbers.

Times are self times (span duration minus the time of the spans nested
in it) unless the metric is listed in ``INCLUSIVE``; every value is per
traced call of the workload's unit of work. Times are wall-clock
seconds, and the host clock's reference chunks are left out of all of
them.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from perfbench.trace import Patches, Tracer, call_counts, inclusive_times, self_times
from seqtag import autodiff, checkpoint, cli, corpus, crf, embeddings, experiment, network
from seqtag import training

ROOT = "bench.run"  # the benchmark's own span around each unit of work
HOST_CLOCK = "bench.host_clock"  # the probe's reference chunks; counted in no layer

# metric -> span name; self time unless inclusive
TIMES = {
    "autodiff.backward_s": "autodiff.backward",
    "network.shared_s": "network.shared",
    "network.char_s": "network.char",
    "network.head_s": "network.head",
    "crf.log_z_s": "crf.log_z",
    "crf.viterbi_s": "crf.viterbi",
    "training.loop_self_s": "training.train",
    "training.optimizer_s": "training.optimizer",
    "training.clip_s": "training.clip",
    "training.dev_eval_s": "training.dev_eval",
    "checkpoint.save_s": "checkpoint.save",
    "checkpoint.load_s": "checkpoint.load",
    "corpus.load_s": "corpus.load",
    "embeddings.load_s": "embeddings.load",
    "embeddings.prune_s": "embeddings.prune",
    "experiment.data_s": "experiment.data",
    "hyperopt.self_s": "hyperopt.search",
    "labels.postprocess_s": "labels.postprocess",
    "metrics.token_prf_s": "metrics.token_prf",
    "cli.self_s": "cli",
}
# phases whose parts are reported on their own as well
INCLUSIVE = {"training.dev_eval_s", "experiment.data_s", "embeddings.load_s"}
CALLS = {
    "network.shared_calls": "network.shared",
    "network.char_calls": "network.char",
    "training.batches": "training.optimizer",
    "experiment.data_builds": "experiment.data",
}


def tape_size(root) -> int:
    """Tape nodes reachable from ``root``, walked read-only over the
    parent links the autodiff tape keeps."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap each layer's public functions at their module attributes."""
    span = tracer.spanned

    def count_nodes(loss):
        tracer.count("autodiff.nodes", tape_size(loss))

    def count_clip(grads, threshold):
        norm = math.sqrt(sum(float(np.sum(g * g)) for _, g in grads.items()))
        tracer.count("training.clip_calls")
        tracer.count("training.clipped", norm > threshold)

    def count_saved(result, model, path):
        tracer.count("checkpoint.save_bytes", Path(path).stat().st_size)

    def count_load(*args, **kwargs):
        tracer.count("corpus.loads")

    def count_kept(result, emb, corpora):
        tracer.count("embeddings.offered", len(emb))
        tracer.count("embeddings.kept", len(result))

    def counter(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)

            return wrapper

        return make

    patches.wrap(autodiff.Tensor, "backward", span("autodiff.backward", count_nodes))
    patches.wrap(network, "bidirectional_layer", span("network.shared"))
    patches.wrap(network, "char_features", span("network.char"))
    patches.wrap(network, "task_head_forward", span("network.head"))
    patches.wrap(crf, "crf_log_z", span("crf.log_z"))
    patches.wrap(crf, "crf_viterbi", span("crf.viterbi"))
    patches.wrap(training.AdamOptimizer, "step", span("training.optimizer"))
    patches.wrap(training.SgdOptimizer, "step", span("training.optimizer"))
    patches.wrap(training, "clip_global_norm", span("training.clip", count_clip))
    patches.wrap(training, "dev_score", span("training.dev_eval"))
    patches.wrap(experiment, "train", span("training.train"))
    patches.wrap(checkpoint, "save_model", span("checkpoint.save", after=count_saved))
    patches.wrap(checkpoint, "load_model", span("checkpoint.load"))
    patches.wrap(corpus, "parse_conll_file", counter("corpus.parses"))
    patches.wrap(experiment, "load_corpus_cached", span("corpus.load", count_load))
    patches.wrap(embeddings, "load_embedding_file", counter("embeddings.loads"))
    patches.wrap(experiment, "build_embedding_set", span("embeddings.load"))
    patches.wrap(experiment, "prune_embeddings", span("embeddings.prune", after=count_kept))
    patches.wrap(experiment.ExperimentData, "__init__", span("experiment.data"))
    patches.wrap(experiment, "run_training", span("experiment.run_training"))
    patches.wrap(cli, "run_search", span("hyperopt.search"))
    patches.wrap(experiment, "postprocess_labels", span("labels.postprocess"))
    patches.wrap(training, "token_prf", span("metrics.token_prf"))
    patches.wrap(experiment, "token_prf", span("metrics.token_prf"))
    patches.wrap(cli, "main", span("cli"))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, runs: int, tokens_trained: int) -> dict[str, float]:
    """Per-layer values per traced unit of work (``runs`` of them)."""
    own, total = self_times(tracer.spans), inclusive_times(tracer.spans, exclude=HOST_CLOCK)
    calls, counters = call_counts(tracer.spans), tracer.counters
    metrics = {}
    for metric, name in TIMES.items():
        source = total if metric in INCLUSIVE else own
        metrics[metric] = source.get(name, 0.0) / runs
    for metric, name in CALLS.items():
        metrics[metric] = calls.get(name, 0) / runs
    metrics["autodiff.nodes_per_token"] = _share(counters["autodiff.nodes"], tokens_trained)
    metrics["training.clip_rate"] = _share(
        counters["training.clipped"], counters["training.clip_calls"]
    )
    metrics["checkpoint.save_bytes"] = counters["checkpoint.save_bytes"] / runs
    hits = counters["corpus.loads"] - counters["corpus.parses"]
    metrics["corpus.cache_hit_ratio"] = _share(hits, counters["corpus.loads"])
    metrics["embeddings.loads"] = counters["embeddings.loads"] / runs
    metrics["embeddings.kept_ratio"] = _share(
        counters["embeddings.kept"], counters["embeddings.offered"]
    )
    metrics["trace.uncovered_share"] = _share(own.get(ROOT, 0.0), total.get(ROOT, 0.0))
    return metrics
