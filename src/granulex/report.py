"""Serialization of experiment reports: machine-readable JSON/CSV and a
human-readable summary table.  Every file is written from the report's own
records alone (its config, one MethodResult per (dataset, method), its
comparisons and rankings), so identical runs produce byte-identical files.
`report.json`'s config is the report's own config field: `run_protocol`
stores config_echo(config), and a caller that echoes another config, as
`evaluate` does its resolved config, stores it with dataclasses.replace."""

from __future__ import annotations

import csv
import dataclasses
import json
import os

from .evaluation import ExperimentReport

__all__ = ["report_to_dict", "report_json_bytes", "write_report_files"]


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "config": report.config,
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
        "comparisons": [dataclasses.asdict(c) for c in report.comparisons],
        "rankings": report.rankings,
        # The 0-1-loss bias of the combined hypothesis is its error rate.
        "bias_variance": {
            ds: {
                method: {"bias": res.mean_error, "variance": res.mean_variance}
                for method, res in methods.items()
            }
            for ds, methods in report.results.items()
        },
    }


def report_json_bytes(report: ExperimentReport) -> bytes:
    return json.dumps(report_to_dict(report), indent=1, sort_keys=True).encode()


def human_table(report: ExperimentReport) -> str:
    methods = list(next(iter(report.results.values())))
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

    # (granular method, metric) -> baseline -> [win, equal, loss], in first-seen order
    tallies: dict[tuple[str, str], dict[str, list[int]]] = {}
    for c in report.comparisons:
        tally = tallies.setdefault((c.method, c.metric), {})
        counts = tally.setdefault(c.baseline, [0, 0, 0])
        counts[("win", "equal", "loss").index(c.outcome)] += 1
    for (gmethod, metric), tally in tallies.items():
        lines.append(f"-- {gmethod} vs baselines ({metric}): win/equal/loss --")
        for baseline, (w, e, l) in tally.items():
            lines.append(f"{baseline:<{width}}{w:>4}{e:>6}{l:>6}")
        lines.append("")

    lines.append("-- average rank (error | F1) --")
    for m in methods:
        lines.append(
            f"{m:<{width}}{report.rankings['error'][m]:>7.2f}"
            f"{report.rankings['f1'][m]:>8.2f}"
        )
    lines.append("")

    # The 0-1-loss bias of the combined hypothesis is its error rate.
    lines.append("-- bias/variance (0-1 loss, mean over runs) --")
    for ds in report.dataset_names:
        for m in methods:
            r = report.results[ds][m]
            lines.append(f"{ds}  {m:<{width}}bias={r.mean_error:.4f}  "
                         f"var={r.mean_variance:.4f}")
    return "\n".join(lines) + "\n"


def write_report_files(report: ExperimentReport, outdir) -> dict[str, str]:
    """Write report.json, per_run.csv, and report.txt under outdir; returns
    the file paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "json": os.path.join(outdir, "report.json"),
        "csv": os.path.join(outdir, "per_run.csv"),
        "txt": os.path.join(outdir, "report.txt"),
    }
    with open(paths["json"], "wb") as fh:
        fh.write(report_json_bytes(report))
    with open(paths["csv"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "method", "run", "error", "macro_f1"])
        for ds in report.dataset_names:
            for method, res in report.results[ds].items():
                for i, (e, f) in enumerate(zip(res.errors, res.f1s)):
                    writer.writerow([ds, method, i, f"{e:.17g}", f"{f:.17g}"])
    with open(paths["txt"], "w", encoding="utf-8") as fh:
        fh.write(human_table(report))
    return paths
