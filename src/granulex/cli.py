"""Command-line interface: train, predict, evaluate, alpha-curve.

Configuration is strict JSON (unknown keys and ill-typed values rejected).
A flag writes the config key of its name (--alpha fixed_alpha, --grid
alpha_grid) over the config's value; _resolve_config is the one reader of
flags, config and defaults, for train and alpha-curve as for evaluate.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import math
import re
import sys

import numpy as np

from . import combiners, evaluation, report, training
from .datasets import GeneratorSpec, generate, load_csv, load_features
from .learners import (Dataset, LearnerSpec, check_roster, default_roster,
                       spec_from_name)
from .metadata import _check_object, _is_int, _is_number, _read_json
from .training import AlphaGrid


_STR = ("a string", lambda v: isinstance(v, str))
_NAMES = ("a list of names",
          lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v))
# A ProtocolConfig field with a scalar default takes a value of its type:
# (what the value must be, check); _protocol_config casts it to that type.
_SCALAR_TYPES = {
    int: ("an integer", _is_int),
    float: ("a number", _is_number),
    str: _STR,
}
# Every key a config object may hold: (what its value must be, check).
CONFIG_TYPES = {
    "datasets": ("a non-empty list", lambda v: isinstance(v, list) and v != []),
    "learners": _NAMES,
    "methods": _NAMES,
    "alpha_grid": ('a "lo:step:hi" string or a list of numbers',
                   lambda v: isinstance(v, str)
                   or (isinstance(v, list) and all(map(_is_number, v)))),
    **{f.name: _SCALAR_TYPES[type(f.default)]
       for f in dataclasses.fields(evaluation.ProtocolConfig)
       if type(f.default) in _SCALAR_TYPES},
}
DATASET_TYPES = {
    "path": _STR,
    "label_column": ("a column index or name",
                     lambda v: _is_int(v) or isinstance(v, str)),
    "header": ("true or false", lambda v: v is True or v is False),
    "generator": None,  # a generator object, checked on its own
    "name": _STR,
}
GENERATOR_KEYS = {f.name for f in dataclasses.fields(GeneratorSpec)}
# Largest alpha grid a "lo:step:hi" string may expand to; the default grid
# has 41 points, and each point costs one bound pick per meta-data column.
MAX_GRID_POINTS = 10_000


class CliError(Exception):
    pass


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


def _split_names(flag: str, text: str) -> list[str]:
    """The comma-separated entries of a --learners or --methods value."""
    names = [name.strip() for name in text.split(",")]
    if "" in names:
        raise CliError(f"{flag} {text!r} has an empty entry")
    return names


def _load_dataset_entry(entry: dict) -> Dataset:
    """The data set of a dataset entry: a generator object alone, or
    load_csv's keyword arguments."""
    _check_object(entry, DATASET_TYPES, "dataset config", CliError)
    if "generator" not in entry:
        if "path" not in entry:
            raise CliError("dataset entry needs 'path' or 'generator'")
        return load_csv(**entry)
    gen = entry["generator"]
    stray = set(entry) - {"generator"}
    if stray:
        raise CliError(f"a generator dataset entry takes no {sorted(stray)}")
    # GeneratorSpec types the values.
    _check_object(gen, dict.fromkeys(GENERATOR_KEYS), "generator", CliError,
                  required=("kind",))
    return generate(GeneratorSpec(**gen))


def _resolve_config(path: str | None, args) -> dict:
    cfg: dict = {}
    if path:
        raw = _read_json(path, "config", CliError)
        if isinstance(raw, dict) and "config" in raw and "results" in raw:
            raw = raw["config"]  # accept a previously emitted report echo
        _check_object(raw, CONFIG_TYPES, "config", CliError)
        cfg.update(raw)

    # Flag overrides (CLI > config > defaults): each flag's dest is its key.
    if args.data:
        cfg["datasets"] = [{"path": args.data, "label_column": args.label_column,
                            "header": not args.no_header}]
    elif args.label_column != -1 or args.no_header:
        raise CliError("--label-column and --no-header describe the --data "
                       "file: give --data, or set them in a datasets entry")
    for key, types in CONFIG_TYPES.items():
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = _split_names(f"--{key}", val) if types is _NAMES else val

    # Defaults: the default roster, and ProtocolConfig's for the rest.
    cfg.setdefault("learners", [s.name for s in default_roster()])
    for key, val in evaluation.config_echo(evaluation.ProtocolConfig()).items():
        cfg.setdefault(key, val)
    if "datasets" not in cfg:
        raise CliError("no datasets configured (use --data or a config file)")
    return cfg


# The reader of each config key whose ProtocolConfig field is not a scalar of
# _SCALAR_TYPES: a resolved config value -> the field's value.
_READERS = {
    "methods": tuple,
    "learners": lambda names: check_roster(map(spec_from_name, names)),
    "alpha_grid": lambda v: (parse_grid(v) if isinstance(v, str)
                             else AlphaGrid(tuple(float(x) for x in v))),
}


def _training_inputs(args) -> tuple[dict, tuple[LearnerSpec, ...], Dataset,
                                    AlphaGrid]:
    """The resolved config, roster, training data and alpha grid of train
    and alpha-curve, read as evaluate reads them."""
    cfg = _resolve_config(None, args)
    specs = _READERS["learners"](cfg["learners"])
    (data,) = map(_load_dataset_entry, cfg["datasets"])
    return cfg, specs, data, _READERS["alpha_grid"](cfg["alpha_grid"])


@contextlib.contextmanager
def _output(path: str | None):
    """The file at path for a CSV writer, closed on exit; stdout without one."""
    if not path:
        yield sys.stdout
    else:
        with open(path, "w", newline="", encoding="utf-8") as out:
            yield out


def cmd_train(args) -> int:
    fixed = args.fixed_alpha
    if fixed is not None and args.alpha_grid is not None:
        raise CliError("--alpha fixes alpha and --grid searches for it: "
                       "give one of them")
    if fixed is not None and args.folds is not None:
        raise CliError("--alpha skips the cross-validation that --folds "
                       "sets: give one of them")
    cfg, specs, data, grid = _training_inputs(args)
    ensemble = training.train(
        data, specs, cfg["seed"], grid=None if fixed is not None else grid,
        fixed_alpha=fixed, h=cfg["h"], n_folds=cfg["folds"],
    )
    training.save_ensemble(args.output, ensemble)
    print(f"trained ensemble (alpha={ensemble.alpha:g}, h={ensemble.h}) "
          f"-> {args.output}")
    return 0


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one of several fields in a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(["", text])
    return buf.getvalue()[1:]


def cmd_predict(args) -> int:
    ensemble = training.load_ensemble(args.model)
    x = load_features(args.data, header=not args.no_header)
    batch = training.predict_batch(ensemble, x)
    labels = ensemble.catalog.labels
    header = ["obs_id"]
    columns = [batch.memberships]
    if args.emit_intervals:
        for lab in labels:
            header += [f"{lab}_lower", f"{lab}_upper"]
        columns.insert(0, batch.bounds.reshape(len(batch), -1))
    for lab in labels:
        header.append(f"{lab}_ncm")
    header.append("decision")
    # Each row as csv.writer wrote it from "%.17g" texts: numbers never
    # need quoting, labels are quoted once, and rows end in \r\n.
    table = np.hstack(columns)
    line = "%d" + ",%.17g" * table.shape[1] + ",%s\r\n"
    quoted = [_csv_field(lab) for lab in labels]
    with _output(args.output) as out:
        csv.writer(out).writerow(header)
        out.writelines(
            line % (i, *row.tolist(), quoted[d])
            for i, (row, d) in enumerate(zip(table, batch.decisions.tolist()))
        )
    return 0


def _protocol_config(cfg: dict) -> evaluation.ProtocolConfig:
    """The ProtocolConfig of a resolved config, field by field: the inverse
    of evaluation.config_echo.  Every field without a reader in _READERS is
    a scalar of _SCALAR_TYPES and takes its value as the type of its
    default."""
    return evaluation.ProtocolConfig(**{
        f.name: _READERS.get(f.name, type(f.default))(cfg[f.name])
        for f in dataclasses.fields(evaluation.ProtocolConfig)
    })


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args.config, args)
    datasets = [_load_dataset_entry(e) for e in cfg["datasets"]]
    proto = _protocol_config(cfg)
    result = evaluation.run_protocol(datasets, proto)
    echo = dict(cfg, alpha_grid=list(proto.alpha_grid.values))
    paths = report.write_report_files(
        dataclasses.replace(result, config=echo), args.output)
    print(f"report written: {paths['json']}")
    return 0


def cmd_alpha_curve(args) -> int:
    cfg, specs, data, grid = _training_inputs(args)
    h_kinds = [args.h] if args.h else list(combiners.H_KINDS)
    meta = training.cross_validated_meta(data, specs, cfg["folds"], cfg["seed"])
    curves = training.error_curves(meta, data.labels, grid.values, h_kinds)
    with _output(args.output) as out:
        writer = csv.writer(out)
        writer.writerow(["alpha"] + [f"error_{h}" for h in h_kinds])
        for i, alpha in enumerate(grid.values):
            row = [f"{alpha:.17g}"]
            for h in h_kinds:
                row.append(f"{curves[h][i][1]:.17g}")
            writer.writerow(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="granulex",
        description="Granular-interval classifier ensemble workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--label-column", default=-1,
                       type=lambda s: int(s) if s.lstrip("-").isdigit() else s,
                       help="label column index or name (default: last)")
        p.add_argument("--no-header", action="store_true")
        p.add_argument("--seed", type=int)

    def add_training_inputs(p):  # the flags _training_inputs reads
        p.add_argument("--data", required=True)
        p.add_argument("--learners")
        p.add_argument("--grid", dest="alpha_grid", help="alpha grid lo:step:hi")
        p.add_argument("--folds", type=int)
        add_common(p)

    p_train = sub.add_parser("train", help="fit and serialize an ensemble")
    add_training_inputs(p_train)
    p_train.add_argument("--alpha", dest="fixed_alpha", type=float,
                         help="fixed alpha (skips CV)")
    p_train.add_argument("--h", choices=combiners.H_KINDS)
    p_train.add_argument("--output", required=True)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="classify a feature CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--output")
    p_pred.add_argument("--emit-intervals", action="store_true")
    p_pred.add_argument("--no-header", action="store_true")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="run the comparison protocol")
    p_eval.add_argument("--config")
    p_eval.add_argument("--data")
    p_eval.add_argument("--folds", type=int)
    p_eval.add_argument("--repeats", type=int)
    p_eval.add_argument("--inner-folds", dest="inner_folds", type=int)
    p_eval.add_argument("--alpha", dest="fixed_alpha", type=float)
    p_eval.add_argument("--grid", dest="alpha_grid")
    p_eval.add_argument("--h", choices=combiners.H_KINDS)
    p_eval.add_argument("--learners")
    p_eval.add_argument("--methods")
    p_eval.add_argument("--output", required=True)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_curve = sub.add_parser("alpha-curve",
                             help="emit meta-level error vs alpha as CSV")
    add_training_inputs(p_curve)
    p_curve.add_argument("--h", choices=combiners.H_KINDS,
                         help="one h function (default: all three)")
    p_curve.add_argument("--output")
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
