"""Span tracer that measures granulex's layers from outside the package.

Each wrapper replaces one public function where its caller looks it up (a
module global, or a class attribute for methods), records one span per call
with the span that caused it, and can add to a work counter.  `restore()`
puts every original back and reports any attribute it could not restore.

Span names are `<module>.<function>[.<kind>]`; `layer_metrics` turns the
spans of one traced run into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Fixed here rather than read from granulex, so that the metric names stay
# the ones BENCHMARK.json lists whatever kinds the package grows.
LEARNER_KINDS = (
    "knn",
    "gaussian-naive-bayes",
    "lda",
    "fisher",
    "logistic-linear",
    "decision-tree",
    "decision-stump",
    "nearest-mean",
    "perceptron",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def patch(self, owner, attr: str, name, work=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        name is a span name or a function of the call's arguments returning
        one; work(args, result) returns (counter name, amount).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.enter(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(idx)
            if work is not None:
                key, amount = work(args, result)
                tracer.counts[key] += amount
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> list[str]:
        """Undo every patch, newest first; return the attributes that do not
        hold their original afterwards (empty when all were restored)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is not original
        ]
        self._patches.clear()
        return left


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the granulex package."""
    from granulex import cli, combiners, evaluation, learners, metadata, report, training

    def fit_name(spec, *args, **kwargs):
        return f"learners.fit.{spec.kind}"

    # fit is imported by name into both of its callers.
    tracer.patch(training, "fit", fit_name)
    tracer.patch(evaluation, "fit", fit_name)
    tracer.patch(
        learners.FittedClassifier, "predict_proba_batch",
        lambda self, x: f"learners.predict.{self.spec.kind}",
        work=lambda a, r: (f"learners.predict_rows.{a[0].spec.kind}", len(r)),
    )

    for fn in ("train", "generate_meta_cv", "select_alpha", "error_for_alpha",
               "ensemble_profiles", "predict_batch", "save_ensemble", "load_ensemble"):
        tracer.patch(training, fn, f"training.{fn}")
    # predict_batch looks granular_intervals up in training, granular_classify
    # in combiners.
    tracer.patch(training, "granular_intervals", "combiners.granular_intervals")
    tracer.patch(combiners, "granular_intervals", "combiners.granular_intervals")
    tracer.patch(
        combiners, "granular_decide_batch", "combiners.granular_decide_batch",
        work=lambda a, r: ("combiners.granular_columns", a[0].shape[0] * a[0].shape[2]),
    )
    for fn in ("dt_fit", "dt_decide_batch", "fixed_rule_scores_batch"):
        tracer.patch(combiners, fn, f"combiners.{fn}")

    tracer.patch(
        combiners, "construct_granules_batch", "granule.construct_granules_batch",
        work=lambda a, r: ("granule.batch_columns", len(r)),
    )
    tracer.patch(combiners, "construct_granule", "granule.construct_granule")

    tracer.patch(
        metadata, "read_meta_csv", "metadata.read_meta_csv",
        work=lambda a, r: ("metadata.rows", r[0].n_observations),
    )

    for fn in ("run_protocol", "wilcoxon_signed_rank", "average_ranks",
               "bias_variance", "error_rate", "macro_f1"):
        tracer.patch(evaluation, fn, f"evaluation.{fn}")

    tracer.patch(cli, "load_csv", "datasets.load_csv")
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(report, "report_json_bytes", "report.report_json_bytes")


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer totals of the spans below the root span `root`."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start

    def self_time(name: str) -> float:
        return sum(
            (s[2] - s[1]) - child_time[i] for i, s in enumerate(spans) if s[0] == name
        )

    def fits_under(parent_name: str) -> list[float]:
        return [
            s[2] - s[1] for s in spans
            if s[0].startswith("learners.fit.") and s[3] >= 0
            and spans[s[3]][0] == parent_name
        ]

    root_dur = spans[root][2] - spans[root][1]
    m: dict[str, float] = {}
    for kind in LEARNER_KINDS:
        m[f"learners.fit_s.{kind}"] = total[f"learners.fit.{kind}"]
        m[f"learners.fit_calls.{kind}"] = calls[f"learners.fit.{kind}"]
        m[f"learners.predict_s.{kind}"] = total[f"learners.predict.{kind}"]
        m[f"learners.predict_rows.{kind}"] = tracer.counts[f"learners.predict_rows.{kind}"]
    m["training.meta_cv_s"] = total["training.generate_meta_cv"]
    m["training.meta_cv_fits"] = len(fits_under("training.generate_meta_cv"))
    m["training.select_alpha_s"] = total["training.select_alpha"]
    m["training.alpha_evals"] = calls["training.error_for_alpha"]
    m["training.refit_s"] = sum(fits_under("training.train"))
    m["training.ensemble_profiles_s"] = total["training.ensemble_profiles"]
    m["training.predict_batch_s"] = total["training.predict_batch"]
    m["training.save_s"] = total["training.save_ensemble"]
    m["training.load_s"] = total["training.load_ensemble"]
    m["combiners.granular_decide_s"] = total["combiners.granular_decide_batch"]
    m["combiners.granular_columns"] = tracer.counts["combiners.granular_columns"]
    m["combiners.granular_intervals_s"] = total["combiners.granular_intervals"]
    m["combiners.granular_intervals_calls"] = calls["combiners.granular_intervals"]
    m["combiners.dt_s"] = total["combiners.dt_fit"] + total["combiners.dt_decide_batch"]
    m["combiners.fixed_rules_s"] = total["combiners.fixed_rule_scores_batch"]
    m["granule.batch_s"] = total["granule.construct_granules_batch"]
    m["granule.batch_columns"] = tracer.counts["granule.batch_columns"]
    m["granule.scalar_s"] = total["granule.construct_granule"]
    m["granule.scalar_calls"] = calls["granule.construct_granule"]
    m["metadata.read_meta_csv_s"] = total["metadata.read_meta_csv"]
    m["metadata.rows"] = tracer.counts["metadata.rows"]
    m["evaluation.wilcoxon_s"] = total["evaluation.wilcoxon_signed_rank"]
    m["evaluation.wilcoxon_calls"] = calls["evaluation.wilcoxon_signed_rank"]
    m["evaluation.ranks_s"] = total["evaluation.average_ranks"]
    m["evaluation.bias_variance_s"] = total["evaluation.bias_variance"]
    m["evaluation.scoring_s"] = total["evaluation.error_rate"] + total["evaluation.macro_f1"]
    m["evaluation.run_protocol_self_s"] = self_time("evaluation.run_protocol")
    m["datasets.load_csv_s"] = total["datasets.load_csv"]
    m["cli.self_s"] = self_time("cli.main")
    m["report.json_s"] = total["report.report_json_bytes"]
    # Share of the root span's wall time that layer spans cover; direct
    # children of the root never overlap, so their durations add up.
    m["trace.coverage"] = child_time[root] / root_dur if root_dur > 0 else 0.0
    m["trace.spans"] = len(spans) - 1
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric: seconds for `*_s` names, else a count."""
    if name == "trace.coverage":
        return "ratio"
    return "s" if any(part.endswith("_s") for part in name.split(".")) else "count"
