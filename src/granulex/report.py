"""Serialization of experiment reports: machine-readable JSON/CSV and a
human-readable summary table.  Output is a pure function of the report, so
identical runs produce byte-identical files."""

from __future__ import annotations

import csv
import json
import os

from .evaluation import GRANULAR_METHODS, ExperimentReport

__all__ = ["report_to_dict", "report_json_bytes", "write_report_files"]


def report_to_dict(report: ExperimentReport, config: dict | None = None) -> dict:
    return {
        "config": config if config is not None else report.config,
        "datasets": list(report.dataset_names),
        "results": {
            ds: {
                method: {
                    "mean_error": res.mean_error,
                    "var_error": res.var_error,
                    "mean_f1": res.mean_f1,
                    "var_f1": res.var_f1,
                    "errors": list(res.errors),
                    "f1s": list(res.f1s),
                }
                for method, res in methods.items()
            }
            for ds, methods in report.results.items()
        },
        "comparisons": [
            {
                "dataset": c.dataset,
                "method": c.method,
                "baseline": c.baseline,
                "metric": c.metric,
                "outcome": c.outcome,
                "p_value": c.p_value,
            }
            for c in report.comparisons
        ],
        "rankings": {
            "error": report.rankings_error,
            "f1": report.rankings_f1,
        },
        "bias_variance": {
            ds: {
                method: {"bias": r.bias, "variance": r.variance}
                for method, r in methods.items()
            }
            for ds, methods in report.bias_variance.items()
        },
    }


def report_json_bytes(report: ExperimentReport, config: dict | None = None) -> bytes:
    payload = report_to_dict(report, config)
    return json.dumps(payload, indent=1, sort_keys=True).encode()


def _method_order(report: ExperimentReport) -> list[str]:
    first = next(iter(report.results.values()))
    return list(first)


def _win_equal_loss(report: ExperimentReport, gmethod: str, metric: str) -> dict:
    tally: dict[str, list[int]] = {}
    for c in report.comparisons:
        if c.method != gmethod or c.metric != metric:
            continue
        counts = tally.setdefault(c.baseline, [0, 0, 0])
        counts[("win", "equal", "loss").index(c.outcome)] += 1
    return tally


def human_table(report: ExperimentReport) -> str:
    methods = _method_order(report)
    lines = []
    width = max(len(m) for m in methods) + 2
    for ds in report.dataset_names:
        lines.append(f"== {ds} ==")
        lines.append(
            f"{'method':<{width}}{'err mean':>10}{'err var':>10}"
            f"{'F1 mean':>10}{'F1 var':>10}"
        )
        for m in methods:
            res = report.results[ds][m]
            lines.append(
                f"{m:<{width}}{res.mean_error:>10.4f}{res.var_error:>10.5f}"
                f"{res.mean_f1:>10.4f}{res.var_f1:>10.5f}"
            )
        lines.append("")

    for gmethod in GRANULAR_METHODS:
        for metric in ("error", "f1"):
            tally = _win_equal_loss(report, gmethod, metric)
            if not tally:
                continue
            lines.append(f"-- {gmethod} vs baselines ({metric}): win/equal/loss --")
            for baseline, (w, e, l) in tally.items():
                lines.append(f"{baseline:<{width}}{w:>4}{e:>6}{l:>6}")
            lines.append("")

    lines.append("-- average rank (error | F1) --")
    for m in methods:
        lines.append(
            f"{m:<{width}}{report.rankings_error[m]:>7.2f}"
            f"{report.rankings_f1[m]:>8.2f}"
        )
    lines.append("")

    lines.append("-- bias/variance (0-1 loss, mean over runs) --")
    for ds in report.dataset_names:
        for m in methods:
            r = report.bias_variance[ds][m]
            lines.append(f"{ds}  {m:<{width}}bias={r.bias:.4f}  var={r.variance:.4f}")
    return "\n".join(lines) + "\n"


def write_report_files(
    report: ExperimentReport, outdir, config: dict | None = None
) -> dict[str, str]:
    """Write report.json, per_run.csv, and report.txt under outdir; returns
    the file paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "json": os.path.join(outdir, "report.json"),
        "csv": os.path.join(outdir, "per_run.csv"),
        "txt": os.path.join(outdir, "report.txt"),
    }
    with open(paths["json"], "wb") as fh:
        fh.write(report_json_bytes(report, config))
    with open(paths["csv"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "run", "error", "macro_f1"])
        for ds in report.dataset_names:
            for method, res in report.results[ds].items():
                for i, (e, f) in enumerate(zip(res.errors, res.f1s)):
                    writer.writerow([ds, method, i, f"{e:.17g}", f"{f:.17g}"])
    with open(paths["txt"], "w") as fh:
        fh.write(human_table(report))
    return paths
