"""Experiment orchestration: config files, the runner, and the CLI.

A config file describes one experiment end to end: where the data comes
from (a built-in graph, a graph file, or a CSV), which model to fit or
load, the ridge of the Gaussian sampler that draws each feature given
G, and the list of (feature, conditioning set) jobs to evaluate.
Running it produces a results CSV in the engine's schema, a grouped bar
chart as a standalone SVG, and a small manifest. Outputs are
byte-identical across reruns with the same config and seed.

Command line verbs: ``run``, ``validate``, ``simulate``, ``fit``. Every
verb reads all of its inputs (config, data file or graph, model file)
before it writes anything, and checks every name it is given against the
data source's names before it reads any rows; ``run`` and ``validate``
share one input stage, ``read_inputs``, so ``validate`` reports exactly
what would stop ``run``. Exit codes: 0 on success, 2 for a problem with
any input, 3 for a failure while fitting or scoring (a rank-deficient
fit, a singular covariance, no test rows, test losses whose sum or sum
of squares is not finite).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import html
import json
import math
import os
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

import numpy as np
import yaml

from . import engine
from .core import (
    TEST,
    Dataset,
    InvalidPartitionError,
    SchemaError,
    SquaredError,
    canonical_names,
    check_partition,
    csv_header,
    empirical_risk,
    is_int,
    is_name,
    is_number,
    load_csv,
    load_yaml,
    save_csv,
)
from .inference import TEST_KINDS, _t_isf, get_test
from .models import LinearModel, fit_from_dataset, load_model, save_model, training_risk
# no cli code calls fit_sampler; it stays bound here because bench/test_bench.py reads it
from .samplers import fit_sampler, sampler_factory, training_joint, training_moments
from .scm import BUILTIN_GRAPHS, load_graph, sample_scm

BUNDLED_CONFIGS = ("experiment_a", "experiment_b")

_PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52",
    "#8172b3", "#937860", "#da8bc3", "#8c8c8c",
)


class ConfigError(ValueError):
    """Config file missing, unreadable, or schema-invalid."""


class RunError(RuntimeError):
    """A job failed during execution; partial results were flushed."""


@dataclass(frozen=True)
class Job:
    feature: str
    conditioning: tuple[str, ...]
    extension: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment deterministically."""

    target: str
    features: tuple[str, ...]
    jobs: tuple[Job, ...]
    output: str
    data_graph: str | None = None
    data_n: int | None = None
    data_csv: str | None = None
    split_column: str | None = None
    test_fraction: float = 0.10
    seed: int = 0
    model: str = "ols"
    ridge: float | None = None
    replications: int = 30
    test_kind: str = TEST_KINDS[0]


def _is_text(value) -> bool:
    return isinstance(value, str) and bool(value)


class _Key(NamedTuple):
    """One scalar config key: where it sits, the field it sets, what it accepts."""

    path: str
    field: str
    accepts: Callable[[object], bool]
    requirement: str
    cast: Callable | None = None  # float: YAML reads `ridge: 1` as an int


# The config schema, one row per scalar key; a key under a section is
# written "section.key". Defaults are the ExperimentConfig field defaults,
# and a field without one is a required key. ``features`` and ``jobs``
# are lists, parsed and written by hand below.
_KEYS = (
    _Key("data.graph", "data_graph", _is_text, "must be a built-in graph name or a graph file"),
    _Key("data.n", "data_n", lambda v: is_int(v, 2), "must be an integer >= 2"),
    _Key("data.csv", "data_csv", _is_text, "must be a CSV file path"),
    _Key("data.split_column", "split_column", _is_text, "must be a column name"),
    _Key("target", "target", _is_text, "must be a non-empty string"),
    _Key("test_fraction", "test_fraction", lambda v: is_number(v) and 0 < v < 1,
         "must be a number strictly between 0 and 1"),
    _Key("seed", "seed", lambda v: is_int(v, 0), "must be a non-negative integer"),
    _Key("model", "model", _is_text, "must be 'ols' or a model file path"),
    _Key("sampler.ridge", "ridge", lambda v: v is None or is_number(v) and v >= 0,
         "must be null or a finite number >= 0", float),
    _Key("replications", "replications", lambda v: is_int(v, 1), "must be an integer >= 1"),
    _Key("test.kind", "test_kind", TEST_KINDS.__contains__,
         f"must be one of {', '.join(TEST_KINDS)}"),
    _Key("output", "output", _is_text, "must be a non-empty directory path"),
)


def config_to_mapping(config: ExperimentConfig) -> dict:
    mapping: dict = {}
    for key in _KEYS:
        section, _, name = key.path.rpartition(".")
        value = getattr(config, key.field)
        if section == "data" and value is None:
            continue  # the keys of the other data source
        (mapping.setdefault(section, {}) if section else mapping)[name] = value
    mapping["features"] = list(config.features)
    mapping["jobs"] = [
        {
            "feature": job.feature,
            "conditioning": list(job.conditioning),
            **({"extension": list(job.extension)} if job.extension is not None else {}),
        }
        for job in config.jobs
    ]
    return mapping


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the semantically meaningful fields (the output path is not one)."""
    mapping = config_to_mapping(config)
    mapping.pop("output")
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _name_list(raw, where: str, problems: list[str]) -> tuple[str, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list) or not all(map(is_name, raw)):
        problems.append(f"{where}: expected a list of names")
        return ()
    return tuple(str(v) for v in raw)


def _parse_jobs(raw, problems: list[str]) -> tuple[Job, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        problems.append("jobs: expected a list")
        return ()
    jobs: list[Job] = []
    for k, item in enumerate(raw):
        where = f"jobs[{k}]"
        if not isinstance(item, dict) or "feature" not in item:
            problems.append(f"{where}: each job needs at least a 'feature'")
            continue
        unknown = set(item) - {"feature", "conditioning", "extension"}
        if unknown:
            problems.append(f"{where}: unknown keys {', '.join(sorted(unknown))}")
        conditioning = _name_list(item.get("conditioning"), f"{where}.conditioning", problems)
        extension = None
        if "extension" in item:
            extension = _name_list(item.get("extension"), f"{where}.extension", problems)
        jobs.append(Job(str(item["feature"]), conditioning, extension))
    return tuple(jobs)


def _feature_problems(target, features) -> list[str]:
    """The rules a feature list obeys whatever the data holds."""
    rules = [(not features, "required non-empty list"),
             (len(set(features)) != len(features), "names must be unique"),
             (target in features, "the target cannot be a feature")]
    return [f"features: {text}" for broken, text in rules if broken]


def config_from_mapping(mapping) -> tuple[ExperimentConfig | None, list[str]]:
    """Parse a raw mapping; returns (config, problems).

    A config object is returned only when no problems were found, so the
    two outcomes cannot be mixed up.
    """
    if not isinstance(mapping, dict):
        return None, ["config must be a YAML mapping"]
    problems: list[str] = []
    known: dict[str, list[str]] = {"": ["features", "jobs"]}
    for key in _KEYS:
        section, _, name = key.path.rpartition(".")
        known.setdefault(section, []).append(name)
        known[""].append(section or name)
    for name in sorted(set(mapping) - set(known[""]), key=str):
        problems.append(f"unknown top-level key {name!r}")
    sections = {"": mapping}
    for section in list(known)[1:]:
        raw = mapping.get(section)
        if raw is not None and not isinstance(raw, dict):
            problems.append(f"{section}: expected a mapping")
        sections[section] = raw if isinstance(raw, dict) else {}
        unknown = set(sections[section]) - set(known[section])
        if unknown:
            problems.append(f"{section}: unknown keys {', '.join(sorted(map(str, unknown)))}")

    required = {f.name for f in dataclasses.fields(ExperimentConfig)
                if f.default is dataclasses.MISSING}
    values: dict = {}
    for key in _KEYS:
        section, _, name = key.path.rpartition(".")
        if name not in sections[section] and key.field not in required:
            continue
        value = sections[section].get(name)
        if not key.accepts(value):
            problems.append(f"{key.path}: {key.requirement}")
        else:
            values[key.field] = key.cast(value) if key.cast and value is not None else value

    data = sections["data"]
    if ("graph" in data) == ("csv" in data):
        problems.append("data: give exactly one of 'graph' or 'csv'")
    elif "graph" in data:
        if "n" not in data:
            problems.append("data.n: required with 'graph'")
        if "split_column" in data:
            problems.append("data.split_column: only valid with 'csv'")
    elif "n" in data:
        problems.append("data.n: only valid with 'graph'")

    target = values.get("target")
    features = _name_list(mapping.get("features"), "features", problems)
    problems += _feature_problems(target, features)

    jobs = _parse_jobs(mapping.get("jobs"), problems)
    for k, job in enumerate(jobs):
        where = f"jobs[{k}] (feature={job.feature})"
        if job.feature not in features:
            problems.append(f"{where}: feature is not in the feature list")
        try:
            check_partition(target, job.feature, job.conditioning, job.extension or ())
        except InvalidPartitionError as exc:
            problems.append(f"{where}: {exc}")

    if problems:
        return None, problems
    return ExperimentConfig(features=features, jobs=jobs, **values), []


def load_config(ref: str, overrides=()) -> ExperimentConfig:
    """The config ``ref`` names, a file path or a bundled name, with (dotted
    key, value) ``overrides`` replacing its values."""
    if os.path.exists(ref):
        try:
            with open(ref) as fp:
                text = fp.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {ref!r}: {exc}") from None
    elif ref in BUNDLED_CONFIGS:
        text = resources.files(__package__).joinpath("configs", f"{ref}.yaml").read_text()
    else:
        raise ConfigError(f"no config file {ref!r}; bundled configs: {', '.join(BUNDLED_CONFIGS)}")
    try:
        mapping = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{ref}: not valid YAML ({exc})") from None
    for path, value in overrides if isinstance(mapping, dict) else ():
        section, _, name = path.rpartition(".")
        if section and mapping.get(section) is None:
            mapping[section] = {}
        target = mapping[section] if section else mapping
        if isinstance(target, dict):  # otherwise the parser reports the section
            target[name] = value
    config, problems = config_from_mapping(mapping)
    if problems:
        raise ConfigError("\n".join(problems))
    return config


def _read(key: str, read: Callable, *args):
    """``read(*args)``, with any failure to read the input as a ConfigError on ``key``."""
    try:
        return read(*args)
    except FileNotFoundError:
        raise ConfigError(f"{key}: no file {args[0]!r}") from None
    except (OSError, ValueError, TypeError) as exc:  # GraphError, SchemaError too
        raise ConfigError(f"{key}: {exc}") from None


def _unknown_names(names, target, features=(), jobs=()) -> list[str]:
    """A problem for the target, each feature and each job's G and extension
    name that is not one of the data source's ``names``."""
    used = [("target", target)] + [("features", n) for n in features]
    used += [(f"jobs[{k}] (feature={job.feature})", n) for k, job in enumerate(jobs)
             for n in job.conditioning + (job.extension or ())]
    return [f"{where}: {n!r} is not a data variable" for where, n in used if n not in names]


def _out_problems(path: str) -> list[str]:
    """A problem if the file ``--out`` names cannot be written: it is a
    directory, or its parent is missing or not a directory."""
    path = os.path.abspath(path)
    parent = os.path.dirname(path)
    if os.path.isdir(path):
        return [f"--out: {path!r} is a directory"]
    if not os.path.isdir(parent):
        return [f"--out: {parent!r} is not an existing directory"]
    return []


def _data_names(header, split_column, problems: list[str]) -> list[str]:
    """The CSV ``header`` without its split column, noting in ``problems``
    a split column the header does not have."""
    if split_column is not None and split_column not in header:
        problems.append(f"data.split_column: no column {split_column!r}")
    return [n for n in header if n != split_column]


def read_inputs(config: ExperimentConfig) -> tuple[Dataset, LinearModel | None]:
    """The config's dataset and its model file (None for 'ols').

    The data source's names (the graph's nodes, or the CSV header without
    the split column) are read first, and every target, feature and job
    name is checked against them in one batch with the model file and
    ``output``, whose nearest existing path must be a directory. Then
    every data row is read, or the graph simulated. Any problem is a
    ConfigError, so a run past this stage fails only in fitting or scoring.
    """
    problems: list[str] = []
    graph = names = model = None
    try:
        if config.data_graph is not None:
            graph = _read("data.graph", load_graph, config.data_graph)
            names = graph.nodes
        else:
            header = _read("data.csv", csv_header, config.data_csv)
            names = _data_names(header, config.split_column, problems)
    except ConfigError as exc:
        problems.append(str(exc))
    if names is not None:
        problems += _unknown_names(names, config.target, config.features, config.jobs)
    if config.model != "ols":
        try:
            model = _read("model", load_model, config.model)
        except ConfigError as exc:
            problems.append(str(exc))
        else:
            if set(model.feature_order) != set(config.features):
                problems.append(
                    f"model: {config.model!r} was fit on features "
                    f"{sorted(model.feature_order)}, config expects {sorted(config.features)}"
                )
    existing = os.path.abspath(config.output)
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        problems.append(f"output: {existing!r} exists and is not a directory")
    if problems:
        raise ConfigError("\n".join(problems))
    if graph is not None:
        return _read("data.graph", sample_scm, graph, config.data_n, config.seed,
                     config.target, config.test_fraction), model
    return _read("data.csv", load_csv, config.data_csv, config.target, config.split_column,
                 config.test_fraction, config.seed), model


def validate_config(ref: str) -> list[str]:
    """Every problem in the config and its inputs: ``read_inputs`` reads the
    data rows and the model file, but nothing is fitted or scored."""
    try:
        read_inputs(load_config(ref))
    except ConfigError as exc:
        return str(exc).split("\n")
    return []


def _expand_cells(jobs) -> list[tuple[str, tuple[str, ...]]]:
    """Job list -> deduplicated (feature, conditioning) cells, in order.

    A job carrying an extension contributes the base cell and the
    extended cell; the importance change is then the difference of the
    two corresponding CSV rows.
    """
    cells: dict = {}  # insertion-ordered set
    for job in jobs:
        cells[(job.feature, canonical_names(job.conditioning))] = None
        if job.extension is not None:
            cells[(job.feature, canonical_names(job.conditioning + job.extension))] = None
    return list(cells)


@dataclass(frozen=True)
class RunResult:
    csv_path: str
    svg_path: str
    manifest_path: str
    rows: int
    seconds: float


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunResult:
    """Execute every job and write results.csv, figure.svg, manifest.yaml.

    One training gather (``training_joint``) feeds the model fit and every
    sampler. The context's noise rows are drawn on the worker pool once that
    gather is reduced to its moments and freed, so the two blocks are never
    held at once. Cells run concurrently up to ``workers``; assembly order,
    and therefore every output byte, does not depend on scheduling. On a
    failing cell the rows completed before it are still written; a run
    that fails before its first cell creates no output directory.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    data, model = read_inputs(config)
    joint = training_joint(data)
    if model is None:
        model = fit_from_dataset(data, config.features, moments=joint)
    factory = sampler_factory(data, ridge=config.ridge, moments=joint)
    test = get_test(config.test_kind)
    cells = _expand_cells(config.jobs)
    csv_path = os.path.join(config.output, "results.csv")
    svg_path = os.path.join(config.output, "figure.svg")
    manifest_path = os.path.join(config.output, "manifest.yaml")
    estimates: list[engine.RfiEstimate] = []
    rows: list[list[str]] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        context = engine.EvaluationContext(
            model, SquaredError(), data, config.replications, config.seed, pool
        )
        os.makedirs(config.output, exist_ok=True)

        def evaluate(cell: tuple[str, tuple[str, ...]]):
            estimate = engine.score_cell(context, *cell, factory)
            row = engine.result_row(estimate, test(estimate.first_differences))
            # the figure reads no test row, so the cell's n_test differences go now
            return row, dataclasses.replace(estimate, first_differences=())

        try:  # map cancels the cells that have not started once one raises
            for row, estimate in pool.map(evaluate, cells):
                rows.append(row)
                estimates.append(estimate)
        except Exception as exc:
            feature, cond = cells[len(rows)]
            raise RunError(
                f"job {len(rows)} (feature={feature}, "
                f"G={engine.format_conditioning(cond) or '{}'}) failed: {exc}"
            ) from exc
        finally:  # rows finished before a failing cell are written too
            engine.write_results_csv(csv_path, rows)
    # titled after the data file's name, not its directory or the output
    # path, so moving either cannot change a single output byte
    title = os.path.basename(config.data_graph or config.data_csv)
    svg = render_figure(estimates, title=title)
    with open(svg_path, "w", newline="") as fp:
        fp.write(svg)
    seconds = time.perf_counter() - started
    manifest = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "replications": config.replications,
        "rows": len(rows),
        "wall_time_seconds": round(seconds, 3),
        "results_csv": "results.csv",
        "figure_svg": "figure.svg",
        "environment": _environment(),
    }
    with open(manifest_path, "w") as fp:
        yaml.safe_dump(manifest, fp, sort_keys=False)
    return RunResult(csv_path, svg_path, manifest_path, len(rows), seconds)


def _environment() -> dict:
    """The versions, BLAS kernel and machine behind a run's bytes, for ``manifest.yaml``."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    found, kernel = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")), None
    if found:
        corename = ctypes.CDLL(found[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_kernel": kernel,
        "cpu_count": os.cpu_count(),
    }


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    raw = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * magnitude
    for mult in (1.0, 2.0, 2.5, 5.0):
        if span / (mult * magnitude) <= target - 1:
            step = mult * magnitude
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(round(v, 12))
        v += step
    return ticks


def render_figure(estimates, title: str = "") -> str:
    """Grouped bar chart of the estimates with 95% CI whiskers, as SVG text.

    Groups are features, bars within a group are conditioning sets, both
    in first-appearance order. Rendering is fully deterministic: fixed
    geometry, fixed palette, fixed-precision coordinates.
    """
    features = list(dict.fromkeys(est.feature for est in estimates))
    cond_labels = list(dict.fromkeys(est.conditioning for est in estimates))
    values = {}
    for est in estimates:  # below two replications se and _t_isf(., 0) are NaN
        half = est.se * _t_isf(0.025, est.replications - 1)
        values[(est.feature, est.conditioning)] = (est.point, half)

    lo, hi = 0.0, 0.0
    for value, half in values.values():
        spread = half if math.isfinite(half) else 0.0
        lo = min(lo, value - spread)
        hi = max(hi, value + spread)
    if hi - lo <= 0:
        lo, hi = -1.0, 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    bar_w, bar_gap, group_pad = 22.0, 4.0, 18.0
    group_w = len(cond_labels) * (bar_w + bar_gap) - bar_gap + 2 * group_pad
    left, top, plot_h, bottom = 70.0, 46.0, 280.0, 52.0
    plot_w = max(group_w * len(features), 120.0)
    legends = ["G = {" + ", ".join(cond) + "}" for cond in cond_labels]
    legend_w = 14 + 8 * max([len(text) for text in legends] + [6])
    width, height = f"{left + plot_w + 24 + legend_w + 12:.0f}", f"{top + plot_h + bottom:.0f}"

    def y_of(v: float) -> float:
        return top + (hi - v) / (hi - lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        _rect(0, 0, width, height, "#ffffff"),
        _text(left, 24, 15, "Relative feature importance" + (f" ({title})" if title else "")),
    ]
    for tick in _nice_ticks(lo, hi):
        y = y_of(tick)
        out.append(_line(left, y, left + plot_w, y, "#dddddd", 1))
        out.append(_text(left - 8, y + 4, 11, f"{tick:g}", "#444444", ' text-anchor="end"'))
    y_ref = y_of(0.0)
    out.append(_line(left, y_ref, left + plot_w, y_ref, "#555555", 1.2))
    for fi, feature in enumerate(features):
        gx = left + fi * group_w + group_pad
        for ci, cond in enumerate(cond_labels):
            if (feature, cond) not in values:
                continue
            value, half = values[(feature, cond)]
            x = gx + ci * (bar_w + bar_gap)
            y0, y1 = sorted((y_of(value), y_ref))
            out.append(_rect(x, y0, bar_w, max(y1 - y0, 0.5), _PALETTE[ci % len(_PALETTE)]))
            if math.isfinite(half):
                cx = x + bar_w / 2
                y_lo, y_hi = y_of(value - half), y_of(value + half)
                out.append(_line(cx, y_hi, cx, y_lo, "#222222", 1.2))
                for yy in (y_lo, y_hi):
                    out.append(_line(cx - 5, yy, cx + 5, yy, "#222222", 1.2))
        out.append(_text(gx + (group_w - 2 * group_pad) / 2, top + plot_h + 20, 12, feature,
                         extra=' text-anchor="middle"'))
    out.append(_line(left, top, left, top + plot_h, "#222222", 1))
    y_mid = top + plot_h / 2
    out.append(_text(16, y_mid, 12, "risk difference",
                     extra=f' transform="rotate(-90 16 {y_mid:.2f})" text-anchor="middle"'))
    lx = left + plot_w + 24
    for ci, legend in enumerate(legends):
        ly = top + ci * 20
        out.append(_rect(lx, ly, 12, 12, _PALETTE[ci % len(_PALETTE)]))
        out.append(_text(lx + 18, ly + 10, 11, legend))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _num(value) -> str:
    """An SVG coordinate: a float to two decimals, an int or a preformatted string as is."""
    return f"{value:.2f}" if isinstance(value, float) else str(value)


def _line(x1, y1, x2, y2, stroke: str, width) -> str:
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _rect(x, y, width, height, fill: str) -> str:
    return (f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(width)}" '
            f'height="{_num(height)}" fill="{fill}"/>')


def _text(x, y, size: int, body: str, fill: str = "#222222", extra: str = "") -> str:
    """A text element; ``body`` is escaped, so any data name is well-formed XML."""
    return (f'<text x="{_num(x)}" y="{_num(y)}" font-family="sans-serif" font-size="{size}" '
            f'fill="{fill}"{extra}>{html.escape(body, quote=False)}</text>')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfi",
        description="Relative feature importance experiments on tabular data.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="config file path or bundled name "
                       f"({', '.join(BUNDLED_CONFIGS)})")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument("--seed", type=int, help="override the base seed")
    p_run.add_argument("--replications", type=int, help="override the replication count")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="max concurrent jobs (default 1)")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config")

    p_sim = sub.add_parser("simulate", help="sample a dataset from a graph")
    p_sim.add_argument("graph", help="graph file path or built-in name "
                       f"({', '.join(sorted(BUILTIN_GRAPHS))})")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--target", default=None)
    p_sim.add_argument("--test-fraction", type=float, default=0.10)
    p_sim.add_argument("--out", required=True, help="CSV path to write")

    p_fit = sub.add_parser("fit", help="fit the built-in least-squares model on a CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--target", required=True)
    p_fit.add_argument("--features", default=None,
                       help="comma-separated names (default: all non-target columns)")
    p_fit.add_argument("--split-column", default=None)
    p_fit.add_argument("--test-fraction", type=float, default=0.10)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", default=None, help="model file to write")
    return parser


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs: must be an integer >= 1")
    flags = {"output": args.output, "seed": args.seed, "replications": args.replications}
    config = load_config(args.config, [(k, v) for k, v in flags.items() if v is not None])
    result = run_experiment(config, workers=args.jobs)
    print(
        f"wrote {result.csv_path}, {result.svg_path}, {result.manifest_path} "
        f"({result.rows} rows, {result.seconds:.1f}s)"
    )
    return 0


def _cmd_validate(args) -> int:
    problems = validate_config(args.config)
    if problems:
        for line in problems:
            print(line)
        return 2
    print("ok")
    return 0


def _check_flags(values: dict) -> None:
    """Refuse flag values as the config keys at the same paths refuse them."""
    for key in _KEYS:
        if key.path in values and not key.accepts(values[key.path]):
            raise ConfigError(f"{key.path}: {key.requirement}")


def _cmd_simulate(args) -> int:
    _check_flags({"data.n": args.n, "seed": args.seed, "test_fraction": args.test_fraction})
    graph = _read("graph", load_graph, args.graph)
    problems = _out_problems(args.out)
    if args.target is not None:
        problems += _unknown_names(graph.nodes, args.target)
    if problems:
        raise ConfigError("\n".join(problems))
    data = _read("graph", sample_scm, graph, args.n, args.seed, args.target, args.test_fraction)
    try:
        save_csv(data, args.out)
    except SchemaError as exc:  # raised before the file is opened
        raise ConfigError(f"graph: {exc}") from None
    print(f"wrote {args.out} ({data.n} rows, {len(data.variable_names)} variables)")
    return 0


def _cmd_fit(args) -> int:
    _check_flags({"seed": args.seed, "test_fraction": args.test_fraction})
    features = None
    if args.features is not None:
        features = [f.strip() for f in args.features.split(",") if f.strip()]
    problems: list[str] = []
    names = _data_names(_read("csv", csv_header, args.csv), args.split_column, problems)
    problems += _unknown_names(names, args.target, features or ())
    if features is not None:
        problems += _feature_problems(args.target, features)
    if args.out is not None:
        problems += _out_problems(args.out)
    if problems:
        raise ConfigError("\n".join(problems))
    data = _read("csv", load_csv, args.csv, args.target, args.split_column,
                 args.test_fraction, args.seed)
    features = features or [n for n in data.variable_names if n != args.target]
    moments = training_joint(data) or training_moments(data, [*features, args.target])
    model = fit_from_dataset(data, features, moments=moments)
    train_risk = training_risk(model, data, moments)  # the fit's moments: no second gather
    test_risk = empirical_risk(model, data, SquaredError(), TEST)
    terms = " + ".join(
        f"{c:.4g}*{n}" for n, c in zip(model.feature_order, model.coefficients)
    )
    print(f"fit: {args.target} = {model.intercept:.4g} + {terms}")
    print(f"train risk {train_risk:.6g}, test risk {test_risk:.6g}")
    if args.out is not None:
        save_model(model, args.out)
        print(f"wrote {args.out}")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a bad argument (2) or --help (0)
        return exc.code
    try:
        return _HANDLERS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as exc:  # every library error class
        print(f"error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
