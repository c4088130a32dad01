"""Command-line interface: train, predict, evaluate, alpha-curve.

Configuration is strict JSON (unknown keys and ill-typed values rejected);
command-line flags override config values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

from . import combiners, evaluation, report, training
from .datasets import GeneratorSpec, generate, load_csv, load_features
from .learners import Dataset, LearnerSpec, default_roster, spec_from_name
from .training import AlphaGrid, default_alpha_grid


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(map(_is_str, value))


# Every key a config object may hold: (what its value must be, check).
CONFIG_TYPES = {
    "datasets": ("a non-empty list", lambda v: isinstance(v, list) and v != []),
    "learners": ("a list of names", _is_names),
    "methods": ("a list of names", _is_names),
    "alpha_grid": ('a "lo:step:hi" string or a list of numbers',
                   lambda v: _is_str(v)
                   or (isinstance(v, list) and all(map(_is_number, v)))),
    "fixed_alpha": ("a number", _is_number),
    "h": ("a string", _is_str),
    "folds": ("an integer", _is_int),
    "repeats": ("an integer", _is_int),
    "seed": ("an integer", _is_int),
    "significance": ("a number", _is_number),
    "inner_folds": ("an integer", _is_int),
}
DATASET_TYPES = {
    "path": ("a string", _is_str),
    "label_column": ("a column index or name",
                     lambda v: _is_int(v) or _is_str(v)),
    "header": ("true or false", lambda v: isinstance(v, bool)),
    "generator": ("an object", lambda v: isinstance(v, dict)),
    "name": ("a string", _is_str),
}
GENERATOR_KEYS = {"kind", "n", "d", "noise", "seed"}
# Largest alpha grid a "lo:step:hi" string may expand to; the default grid
# has 41 points, and each point costs one bound pick per meta-data column.
MAX_GRID_POINTS = 10_000


class CliError(Exception):
    pass


def _check_object(value, types: dict, what: str) -> None:
    """Reject a config value that is not a JSON object, or has a key
    outside types, or a key whose value fails its check."""
    if not isinstance(value, dict):
        raise CliError(f"{what} must be a JSON object, got {value!r}")
    unknown = set(value) - set(types)
    if unknown:
        raise CliError(f"unknown {what} keys: {sorted(unknown)}")
    for key, item in value.items():
        expected, ok = types[key]
        if not ok(item):
            raise CliError(f"{what} key {key!r} must be {expected}, got {item!r}")


def parse_grid(text: str) -> AlphaGrid:
    """Parse "lo:step:hi" into an inclusive alpha grid of at most
    MAX_GRID_POINTS values."""
    try:
        lo, step, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise CliError(f"grid must be lo:step:hi, got {text!r}")
    if not all(map(math.isfinite, (lo, step, hi))):
        raise CliError(f"grid bounds must be finite numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise CliError(f"invalid grid bounds {text!r}")
    # min() also caps a span that overflows to inf.
    count = int(round(min((hi - lo) / step, MAX_GRID_POINTS))) + 1
    if count > MAX_GRID_POINTS:
        raise CliError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    values = tuple(round(lo + i * step, 12) for i in range(count))
    return AlphaGrid(values)


def _parse_learners(text: str) -> list[LearnerSpec]:
    return [spec_from_name(name.strip()) for name in text.split(",") if name.strip()]


def _load_dataset_entry(entry: dict) -> Dataset:
    _check_object(entry, DATASET_TYPES, "dataset config")
    if "generator" in entry:
        gen = entry["generator"]
        bad = set(gen) - GENERATOR_KEYS
        if bad:
            raise CliError(f"unknown generator keys: {sorted(bad)}")
        if "kind" not in gen:
            raise CliError("generator needs a 'kind'")
        return generate(GeneratorSpec(**gen))
    if "path" not in entry:
        raise CliError("dataset entry needs 'path' or 'generator'")
    return load_csv(
        entry["path"],
        label_column=entry.get("label_column", -1),
        header=entry.get("header", True),
        name=entry.get("name", ""),
    )


def _resolve_config(path: str | None, args) -> dict:
    cfg: dict = {}
    if path:
        with open(path) as fh:
            raw = json.load(fh)
        if isinstance(raw, dict) and "config" in raw and "results" in raw:
            raw = raw["config"]  # accept a previously emitted report echo
        _check_object(raw, CONFIG_TYPES, "config")
        cfg.update(raw)

    # Flag overrides (CLI > config > defaults).
    if getattr(args, "data", None):
        cfg["datasets"] = [
            {"path": args.data, "label_column": args.label_column,
             "header": not args.no_header}
        ]
    for key in ("folds", "repeats", "seed", "h", "inner_folds"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "grid", None):
        cfg["alpha_grid"] = args.grid
    if getattr(args, "alpha", None) is not None:
        cfg["fixed_alpha"] = args.alpha
    if getattr(args, "learners", None):
        cfg["learners"] = [s.strip() for s in args.learners.split(",")]
    if getattr(args, "methods", None):
        cfg["methods"] = [s.strip() for s in args.methods.split(",")]

    # Defaults: the default roster, and ProtocolConfig's for the rest.
    defaults = evaluation.ProtocolConfig()
    cfg.setdefault("learners", [s.name for s in default_roster()])
    cfg.setdefault("methods", list(defaults.methods))
    cfg.setdefault("alpha_grid", list(defaults.alpha_grid.values))
    for key in ("fixed_alpha", "h", "folds", "repeats", "seed", "significance",
                "inner_folds"):
        cfg.setdefault(key, getattr(defaults, key))
    if "datasets" not in cfg:
        raise CliError("no datasets configured (use --data or a config file)")
    return cfg


def _grid_from_cfg(value) -> AlphaGrid:
    if isinstance(value, str):
        return parse_grid(value)
    return AlphaGrid(tuple(float(v) for v in value))


def cmd_train(args) -> int:
    specs = _parse_learners(args.learners) if args.learners else default_roster()
    data = load_csv(args.data, label_column=args.label_column,
                    header=not args.no_header)
    kwargs = dict(h=args.h or combiners.DEFAULT_H, n_folds=args.folds)
    if args.alpha is not None:
        ensemble = training.train(
            data, specs, args.seed or 0, fixed_alpha=args.alpha, **kwargs
        )
    else:
        grid = parse_grid(args.grid) if args.grid else default_alpha_grid()
        ensemble = training.train(data, specs, args.seed or 0, grid=grid, **kwargs)
    training.save_ensemble(args.output, ensemble)
    print(f"trained ensemble (alpha={ensemble.alpha:g}, h={ensemble.h}) "
          f"-> {args.output}")
    return 0


def cmd_predict(args) -> int:
    ensemble = training.load_ensemble(args.model)
    x = load_features(args.data, header=not args.no_header)
    details = training.predict_batch(ensemble, x)
    labels = ensemble.catalog.labels
    header = ["obs_id"]
    if args.emit_intervals:
        for lab in labels:
            header += [f"{lab}_lower", f"{lab}_upper"]
    for lab in labels:
        header.append(f"{lab}_ncm")
    header.append("decision")
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for i, det in enumerate(details):
            row: list = [i]
            if args.emit_intervals:
                for g in det.intervals:
                    row += [f"{g.lower:.17g}", f"{g.upper:.17g}"]
            row += [f"{v:.17g}" for v in det.memberships]
            row.append(labels[det.decision])
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args.config, args)
    datasets = [_load_dataset_entry(e) for e in cfg["datasets"]]
    proto = evaluation.ProtocolConfig(
        folds=int(cfg["folds"]),
        repeats=int(cfg["repeats"]),
        seed=int(cfg["seed"]),
        significance=float(cfg["significance"]),
        methods=tuple(cfg["methods"]),
        learners=tuple(spec_from_name(n) for n in cfg["learners"]),
        alpha_grid=_grid_from_cfg(cfg["alpha_grid"]),
        fixed_alpha=float(cfg["fixed_alpha"]),
        h=cfg["h"],
        inner_folds=int(cfg["inner_folds"]),
    )
    result = evaluation.run_protocol(datasets, proto)
    echo = dict(cfg)
    echo["alpha_grid"] = list(proto.alpha_grid.values)
    paths = report.write_report_files(result, args.output, echo)
    print(f"report written: {paths['json']}")
    return 0


def cmd_alpha_curve(args) -> int:
    specs = _parse_learners(args.learners) if args.learners else default_roster()
    data = load_csv(args.data, label_column=args.label_column,
                    header=not args.no_header)
    grid = parse_grid(args.grid) if args.grid else default_alpha_grid()
    h_kinds = [args.h] if args.h else list(combiners.H_KINDS)
    curves = evaluation.alpha_error_curves(
        data, specs, grid, h_kinds, args.folds, args.seed or 0
    )
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["alpha"] + [f"error_{h}" for h in h_kinds])
        for i, alpha in enumerate(grid.values):
            row = [f"{alpha:.17g}"]
            for h in h_kinds:
                row.append(f"{curves[h][i][1]:.17g}")
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granulex",
        description="Granular-interval classifier ensemble workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_label=True):
        if with_label:
            p.add_argument("--label-column", default=-1,
                           type=lambda s: int(s) if s.lstrip("-").isdigit() else s,
                           help="label column index or name (default: last)")
        p.add_argument("--no-header", action="store_true")
        p.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="fit and serialize an ensemble")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--learners")
    p_train.add_argument("--alpha", type=float, help="fixed alpha (skips CV)")
    p_train.add_argument("--grid", help="alpha grid lo:step:hi")
    p_train.add_argument("--h", choices=combiners.H_KINDS)
    p_train.add_argument("--folds", type=int, default=10)
    p_train.add_argument("--output", required=True)
    add_common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify a feature CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--output")
    p_pred.add_argument("--emit-intervals", action="store_true")
    add_common(p_pred, with_label=False)
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="run the comparison protocol")
    p_eval.add_argument("--config")
    p_eval.add_argument("--data")
    p_eval.add_argument("--folds", type=int)
    p_eval.add_argument("--repeats", type=int)
    p_eval.add_argument("--inner-folds", dest="inner_folds", type=int)
    p_eval.add_argument("--alpha", type=float)
    p_eval.add_argument("--grid")
    p_eval.add_argument("--h", choices=combiners.H_KINDS)
    p_eval.add_argument("--learners")
    p_eval.add_argument("--methods")
    p_eval.add_argument("--output", required=True)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_curve = sub.add_parser("alpha-curve",
                             help="emit meta-level error vs alpha as CSV")
    p_curve.add_argument("--data", required=True)
    p_curve.add_argument("--grid", help="alpha grid lo:step:hi")
    p_curve.add_argument("--h", choices=combiners.H_KINDS,
                         help="one h function (default: all three)")
    p_curve.add_argument("--learners")
    p_curve.add_argument("--folds", type=int, default=10)
    p_curve.add_argument("--output")
    add_common(p_curve)
    p_curve.set_defaults(func=cmd_alpha_curve)
    return parser


def _glue_grid_values(argv: list[str]) -> list[str]:
    """argparse reads a value that starts with "-" as an option; join such a
    --grid value (a negative bound) to its flag so parse_grid judges it."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and re.match(r"-[\d.]", arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _glue_grid_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
