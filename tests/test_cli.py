import dataclasses
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

import relfi
from relfi.cli import (
    BUNDLED_CONFIGS,
    ConfigError,
    ExperimentConfig,
    Job,
    RunError,
    _KEYS,
    _environment,
    _expand_cells,
    _nice_ticks,
    config_from_mapping,
    config_hash,
    config_to_mapping,
    load_config,
    main,
    render_figure,
    run_experiment,
    validate_config,
)
from relfi.core import TEST, TRAIN, Dataset, SquaredError, empirical_risk, load_csv, load_yaml
from relfi.engine import CSV_HEADER, RfiEstimate
from relfi.models import LinearModel, fit_from_dataset, load_model, save_model
from relfi.scm import BUILTIN_GRAPHS, builtin_graph, sample_scm


def base_mapping(tmp_path, **overrides):
    mapping = {
        "data": {"graph": "experiment_a", "n": 2000},
        "target": "Y",
        "features": ["X1", "X2", "X3", "X4"],
        "seed": 1,
        "replications": 3,
        "jobs": [
            {"feature": "X3", "conditioning": []},
            {"feature": "X4", "conditioning": ["X2"]},
        ],
        "output": str(tmp_path / "out"),
    }
    mapping.update(overrides)
    return mapping


def make_config(tmp_path, **overrides):
    config, problems = config_from_mapping(base_mapping(tmp_path, **overrides))
    assert not problems, problems
    return config


class TestConfigParsing:
    def test_mapping_round_trip(self, tmp_path):
        config = make_config(tmp_path)
        again, problems = config_from_mapping(config_to_mapping(config))
        assert not problems
        assert again == config

    def test_defaults(self, tmp_path):
        config = make_config(tmp_path)
        assert config.test_fraction == 0.10
        assert config.model == "ols"
        assert config.test_kind == "paired-t"

    def test_problems_are_batched(self, tmp_path):
        mapping = base_mapping(
            tmp_path,
            test_fraction=1.5,
            replications=0,
            seed=-1,
            sampler={"ridge": -1},
            test={"kind": "wilcoxon"},
        )
        config, problems = config_from_mapping(mapping)
        assert config is None
        text = "\n".join(problems)
        for fragment in ("test_fraction", "replications", "seed", "sampler.ridge", "test.kind"):
            assert fragment in text

    def test_unknown_keys_flagged(self, tmp_path):
        _, problems = config_from_mapping(base_mapping(tmp_path, typo=1))
        assert any("unknown top-level key 'typo'" in p for p in problems)
        _, problems = config_from_mapping(
            base_mapping(tmp_path, data={"graph": "experiment_a", "n": 10, "m": 2})
        )
        assert any("data: unknown keys m" in p for p in problems)

    def test_exactly_one_data_source(self, tmp_path):
        _, problems = config_from_mapping(
            base_mapping(tmp_path, data={"graph": "g", "csv": "d.csv", "n": 10})
        )
        assert any("exactly one" in p for p in problems)
        _, problems = config_from_mapping(base_mapping(tmp_path, data={}))
        assert any("exactly one" in p for p in problems)
        _, problems = config_from_mapping(
            base_mapping(tmp_path, data={"csv": "d.csv", "n": 10})
        )
        assert any("only valid with 'graph'" in p for p in problems)
        _, problems = config_from_mapping(
            base_mapping(tmp_path, data={"graph": "g", "n": 10, "split_column": "s"})
        )
        assert any("only valid with 'csv'" in p for p in problems)

    def test_job_constraints(self, tmp_path):
        mapping = base_mapping(
            tmp_path,
            jobs=[
                {"feature": "X9", "conditioning": []},
                {"feature": "X1", "conditioning": ["Y"]},
                {"feature": "X1", "conditioning": ["X2"], "extension": ["X2"]},
                {"feature": "X1", "conditioning": [], "extension": ["X1"]},
                {"feature": "X1", "conditioning": [], "extension": ["Y"]},
            ],
        )
        _, problems = config_from_mapping(mapping)
        text = "\n".join(problems)
        assert "jobs[0] (feature=X9): feature is not in the feature list" in text
        assert "jobs[1]" in text and "target may not appear in the conditioning" in text
        assert "jobs[2]" in text and "overlaps" in text
        assert "jobs[3]" in text and "feature may not appear in the extension" in text
        assert "jobs[4]" in text and "target may not appear in the extension" in text

    @pytest.mark.parametrize("source", ["graph", "csv"])
    def test_data_source_must_be_a_string(self, tmp_path, source):
        data = {source: 5, **({"n": 10} if source == "graph" else {})}
        _, problems = config_from_mapping(base_mapping(tmp_path, data=data))
        assert any(p.startswith(f"data.{source}: must be") for p in problems)

    def test_target_not_a_feature(self, tmp_path):
        _, problems = config_from_mapping(
            base_mapping(tmp_path, features=["X1", "Y"])
        )
        assert any("target cannot be a feature" in p for p in problems)

    def test_not_a_mapping(self):
        config, problems = config_from_mapping([1, 2])
        assert config is None
        assert problems == ["config must be a YAML mapping"]

    def test_load_config_raises_with_problems(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("target: Y\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "data:" in str(err.value)

    def test_missing_config_named(self):
        with pytest.raises(ConfigError, match="bundled configs"):
            load_config("nonexistent.yaml")

    def test_readme_example_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("### Config files", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        config, problems = config_from_mapping(yaml.safe_load(block))
        assert problems == []
        assert config is not None

    def test_schema_rows_match_fields_and_readme(self):
        # a key half-removed from the table, the dataclass or the README fails here
        scalar = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"features", "jobs"}
        assert sorted(key.field for key in _KEYS) == sorted(scalar)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```yaml\n(.*?)```", readme.split("### Config files", 1)[1], re.S)
        paths, section = set(), ""
        for indent, name in re.findall(r"^( *)(?:# )?(\w+):", block.group(1), re.M):
            section = section if indent else name
            paths.add(f"{section}.{name}" if indent else name)
        assert {key.path for key in _KEYS} <= paths

    def test_bundled_configs_load(self):
        a = load_config("experiment_a")
        assert a.target == "Y"
        assert a.features == ("X1", "X2", "X3", "X4")
        assert len(a.jobs) == 16
        b = load_config("experiment_b")
        assert b.features == ("X1", "X2", "X3")
        assert len(b.jobs) == 6

    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    def test_libyaml_reads_what_the_python_loader_reads(self, tmp_path):
        configs = [resources.files("relfi").joinpath("configs", f"{name}.yaml").read_text()
                   for name in BUNDLED_CONFIGS]
        edges = "a: 1e3\nb: .inf\nc: 0x10\nd: 1_000\ne: [yes, ~, '007', 2001-01-01]\n"
        for text in configs + [*BUILTIN_GRAPHS.values(), edges, "\ufeff" + configs[0]]:
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.safe_load(text)
        assert load_yaml(configs[0]) == yaml.safe_load(configs[0])
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            with pytest.raises(yaml.YAMLError):
                yaml.load("target: [unclosed\n", Loader=loader)
        path = tmp_path / "bad.yaml"
        path.write_text("target: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(str(path))


class TestConfigHash:
    def test_output_is_not_semantic(self, tmp_path):
        c1 = make_config(tmp_path, output=str(tmp_path / "one"))
        c2 = make_config(tmp_path, output=str(tmp_path / "two"))
        assert config_hash(c1) == config_hash(c2)
        assert len(config_hash(c1)) == 64

    def test_seed_is_semantic(self, tmp_path):
        c1 = make_config(tmp_path, seed=1)
        c2 = make_config(tmp_path, seed=2)
        assert config_hash(c1) != config_hash(c2)

    def test_bundled_hashes_pinned(self):
        # plain JSON of the config: pins the writer's key layout, not numerics
        assert config_hash(load_config("experiment_a")) == (
            "4c5b8c5fab8282b1f5cd6ae286168779b96ed11da0b5ca349f9b8ab4a195341e"
        )
        assert config_hash(load_config("experiment_b")) == (
            "b3be7aba09129b01413115944dd74d0a2db46dd1c8451261984cad38d130bd68"
        )


class TestValidateConfig:
    def test_bundled_configs_clean(self):
        assert validate_config("experiment_a") == []
        assert validate_config("experiment_b") == []

    def test_unknown_data_variable_in_job(self, tmp_path):
        path = tmp_path / "c.yaml"
        mapping = base_mapping(
            tmp_path, jobs=[{"feature": "X1", "conditioning": ["Q"]}]
        )
        path.write_text(yaml.safe_dump(mapping))
        problems = validate_config(str(path))
        assert any("'Q' is not a data variable" in p for p in problems)

    def test_unknown_target_and_feature(self, tmp_path):
        path = tmp_path / "c.yaml"
        mapping = base_mapping(tmp_path, target="Z", features=["X1", "W"], jobs=[])
        path.write_text(yaml.safe_dump(mapping))
        problems = validate_config(str(path))
        text = "\n".join(problems)
        assert "'Z' is not a data variable" in text
        assert "'W' is not a data variable" in text

    def test_missing_csv_and_model(self, tmp_path):
        path = tmp_path / "c.yaml"
        mapping = base_mapping(
            tmp_path,
            data={"csv": str(tmp_path / "none.csv")},
            model=str(tmp_path / "none.yaml"),
            jobs=[],
        )
        path.write_text(yaml.safe_dump(mapping))
        problems = validate_config(str(path))
        text = "\n".join(problems)
        assert "data.csv: no file" in text
        assert "model: no file" in text

    def test_csv_split_column_checked(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("X1,Y\n1.0,2.0\n")
        path = tmp_path / "c.yaml"
        mapping = base_mapping(
            tmp_path,
            data={"csv": str(csv_path), "split_column": "part"},
            features=["X1"],
            jobs=[],
        )
        path.write_text(yaml.safe_dump(mapping))
        problems = validate_config(str(path))
        assert any("no column 'part'" in p for p in problems)


class TestExpandCells:
    def test_dedupe_and_order(self):
        jobs = (
            Job("X1", ()),
            Job("X1", ()),
            Job("X2", ("X1",)),
            Job("X1", ("X2", "X1")),
        )
        assert _expand_cells(jobs) == [
            ("X1", ()),
            ("X2", ("X1",)),
            ("X1", ("X1", "X2")),
        ]

    def test_extension_contributes_both_cells(self):
        jobs = (Job("X3", ("X2",), ("X1",)), Job("X3", ("X1", "X2")))
        assert _expand_cells(jobs) == [
            ("X3", ("X2",)),
            ("X3", ("X1", "X2")),
        ]


class TestRunExperiment:
    def test_outputs_and_manifest(self, tmp_path):
        config = make_config(tmp_path)
        result = run_experiment(config)
        assert result.rows == 2
        text = (tmp_path / "out" / "results.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        assert lines[1].startswith("X3,,")
        assert lines[2].startswith("X4,X2,")
        manifest = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
        assert manifest["config_hash"] == config_hash(config)
        assert manifest["seed"] == 1
        assert manifest["replications"] == 3
        assert manifest["rows"] == 2
        assert manifest["results_csv"] == "results.csv"
        assert manifest["wall_time_seconds"] >= 0
        environment = manifest["environment"]
        assert list(environment) == [
            "python", "numpy", "scipy", "blas", "blas_version", "blas_kernel", "cpu_count"
        ]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert environment["scipy"] == scipy.__version__
        assert environment["cpu_count"] == os.cpu_count()
        svg = (tmp_path / "out" / "figure.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    @pytest.mark.skipif(_environment()["blas_kernel"] is None,
                        reason="numpy without its bundled OpenBLAS")
    def test_environment_names_the_blas_kernel_in_use(self):
        # the kernel is picked when the library loads, so only a new process can switch it
        src = Path(relfi.__file__).resolve().parents[1]
        code = "from relfi.cli import _environment; print(_environment()['blas_kernel'])"
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "Haswell"

    def test_empty_job_list_gives_header_only_csv(self, tmp_path):
        config = make_config(tmp_path, jobs=[])
        result = run_experiment(config)
        assert result.rows == 0
        assert (tmp_path / "out" / "results.csv").read_text() == ",".join(CSV_HEADER) + "\n"

    def test_byte_identical_across_output_dirs_and_workers(self, tmp_path):
        c1 = make_config(tmp_path, output=str(tmp_path / "one"))
        c2 = make_config(tmp_path, output=str(tmp_path / "two"))
        run_experiment(c1, workers=1)
        run_experiment(c2, workers=4)
        for name in ("results.csv", "figure.svg"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b

    def test_figure_text_is_escaped(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = ["a&b,c<d,y"]
        for _ in range(200):
            a, c = rng.normal(size=2).tolist()
            rows.append(f"{a!r},{a + c!r},{a + c + rng.normal()!r}")
        csv_path = tmp_path / "p&q.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        config = make_config(
            tmp_path, data={"csv": str(csv_path)}, target="y", features=["a&b", "c<d"],
            jobs=[{"feature": "a&b", "conditioning": []},
                  {"feature": "c<d", "conditioning": ["a&b"]}],
        )
        texts = [el.text for el in ET.parse(run_experiment(config).svg_path).iter()]
        assert "a&b" in texts and "c<d" in texts and "G = {a&b}" in texts
        assert "Relative feature importance (p&q.csv)" in texts

    @pytest.mark.parametrize("name", ["experiment_a", "experiment_b"])
    def test_bundled_figures_parse(self, tmp_path, name):
        config = dataclasses.replace(load_config(name), data_n=2000, replications=3,
                                     output=str(tmp_path / "out"))
        root = ET.parse(run_experiment(config).svg_path).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"

    def test_graph_file_titled_by_basename(self, tmp_path):
        text = BUILTIN_GRAPHS["experiment_a"]
        outputs = []
        for name in ("ga", "gb"):
            graph_path = tmp_path / name / "g.yaml"
            graph_path.parent.mkdir()
            graph_path.write_text(text)
            config = make_config(tmp_path, data={"graph": str(graph_path), "n": 2000},
                                 output=str(tmp_path / name / "out"))
            result = run_experiment(config)
            outputs.append([Path(p).read_bytes() for p in (result.csv_path, result.svg_path)])
        assert outputs[0] == outputs[1]
        assert b"Relative feature importance (g.yaml)" in outputs[0][1]

    def test_failed_job_flushes_prefix(self, tmp_path):
        # K has no noise, so without a ridge the X1 | {K} covariance is singular
        graph = load_yaml(BUILTIN_GRAPHS["experiment_a"])
        graph["nodes"].append({"name": "K", "noise_scale": 0.0})
        graph_path = tmp_path / "g.yaml"
        graph_path.write_text(yaml.safe_dump(graph))
        config = make_config(
            tmp_path,
            data={"graph": str(graph_path), "n": 2000},
            sampler={"ridge": 0.0},
            jobs=[
                {"feature": "X3", "conditioning": []},
                {"feature": "X1", "conditioning": ["K"]},
            ],
        )
        with pytest.raises(RunError, match=r"job 1 \(feature=X1, G=K\).*not positive definite"):
            run_experiment(config)
        lines = (tmp_path / "out" / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("X3,,")

    def test_csv_source_with_model_file(self, tmp_path):
        # simulate -> fit -> run from the CSV with the saved model
        csv_path = tmp_path / "data.csv"
        model_path = tmp_path / "model.yaml"
        assert main(["simulate", "experiment_b", "--n", "400", "--seed", "3",
                     "--out", str(csv_path)]) == 0
        assert main(["fit", str(csv_path), "--target", "Y",
                     "--split-column", "split", "--out", str(model_path)]) == 0
        config = make_config(
            tmp_path,
            data={"csv": str(csv_path), "split_column": "split"},
            features=["C", "X1", "X2", "X3"],
            jobs=[{"feature": "X2", "conditioning": ["C"]}],
            model=str(model_path),
        )
        result = run_experiment(config)
        assert result.rows == 1

    def test_model_feature_mismatch(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        model_path = tmp_path / "model.yaml"
        main(["simulate", "experiment_b", "--n", "200", "--seed", "3",
              "--out", str(csv_path)])
        main(["fit", str(csv_path), "--target", "Y", "--features", "X1,X2",
              "--split-column", "split", "--out", str(model_path)])
        config = make_config(
            tmp_path,
            data={"csv": str(csv_path), "split_column": "split"},
            features=["C", "X1", "X2", "X3"],
            jobs=[],
            model=str(model_path),
        )
        with pytest.raises(ConfigError, match="was fit on features"):
            run_experiment(config)


class TestFigure:
    def _estimates(self):
        return [
            RfiEstimate("X1", (), 1.0, (1.5, 1.6, 1.7), np.zeros(3), 0),
            RfiEstimate("X1", ("X2",), 1.0, (1.1, 1.2, 1.3), np.zeros(3), 0),
            RfiEstimate("X2", (), 1.0, (2.0, 2.1, 2.2), np.zeros(3), 0),
        ]

    def test_renders_groups_and_legend(self):
        svg = render_figure(self._estimates())
        assert svg.startswith("<svg ")
        assert "G = {}" in svg
        assert "G = {X2}" in svg
        assert ">X1<" in svg and ">X2<" in svg
        assert "risk difference" in svg
        assert "nan" not in svg.lower()

    def test_zero_estimate_sits_on_the_reference_line(self):
        # an all-zero chart spans [-1, 1], so the reference line halves the plot
        est = RfiEstimate("X1", ("X1",), 1.0, (1.0, 1.0), np.zeros(3), 0)
        svg = render_figure([est])
        assert '<line x1="70.00" y1="186.00" x2="190.00" y2="186.00" stroke="#555555"' in svg

    def test_title_embedded(self):
        svg = render_figure(self._estimates(), title="experiment_a")
        assert "(experiment_a)" in svg

    def test_deterministic(self):
        assert render_figure(self._estimates()) == render_figure(self._estimates())

    def test_single_replication_omits_whisker(self):
        est = RfiEstimate("X1", (), 1.0, (1.5,), np.zeros(3), 0)
        svg = render_figure([est])
        assert "nan" not in svg.lower()

    def test_empty_estimates(self):
        svg = render_figure([])
        assert svg.startswith("<svg ")

    def test_nice_ticks_cover_range(self):
        for lo, hi in ((-1.0, 1.0), (0.0, 0.003), (-25.0, 140.0)):
            ticks = _nice_ticks(lo, hi)
            assert ticks == sorted(ticks)
            assert all(lo <= t <= hi + 1e-6 * (hi - lo) for t in ticks)
            assert 2 <= len(ticks) <= 8


class TestMainVerbs:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 rows" in out

    def test_run_overrides(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        other = tmp_path / "elsewhere"
        assert main(["run", str(path), "--output", str(other), "--seed", "7",
                     "--replications", "2"]) == 0
        manifest = yaml.safe_load((other / "manifest.yaml").read_text())
        assert manifest["seed"] == 7
        assert manifest["replications"] == 2

    def test_missing_config_is_exit_two(self, capsys):
        assert main(["run", "no-such-config.yaml"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_is_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("target: Y\n")
        assert main(["run", str(path)]) == 2
        assert main(["validate", str(path)]) == 2
        assert "data:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "case", ["job-name", "csv-row", "model-file", "graph", "output-file", "output-under-file"]
    )
    def test_bad_input_stops_run_like_validate(self, tmp_path, capsys, case):
        # every input is read before the output directory is made
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("X1,X2,X3,X4,Y\n" + "1,2,3,4,5\n" * 5 + "1,2,x,4,5\n")
        (tmp_path / "afile").write_text("kept\n")
        overrides = {
            "job-name": {"jobs": [{"feature": "X3", "conditioning": []},
                                  {"feature": "X4", "conditioning": ["Q"]}]},
            "csv-row": {"data": {"csv": str(csv_path)}},
            "model-file": {"model": str(tmp_path / "none.yaml")},
            "graph": {"data": {"graph": "mystery", "n": 100}},
            "output-file": {"output": str(tmp_path / "afile")},
            "output-under-file": {"output": str(tmp_path / "afile" / "sub")},
        }[case]
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path, **overrides)))
        assert main(["validate", str(path)]) == 2
        problems = capsys.readouterr().out
        assert problems.strip()
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {problems}"
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("key", ["data.graph", "model"])
    def test_file_values_follow_the_config_rules(self, tmp_path, capsys, key):
        path = tmp_path / "input.yaml"
        if key == "model":
            path.write_text("features: X1\ncoefficients: [1.0, 2.0]\nintercept: 0.5\n")
            override = {"model": str(path)}
        else:
            graph = load_yaml(BUILTIN_GRAPHS["experiment_a"])
            graph["nodes"][0]["noise_scale"] = "1.5"
            path.write_text(yaml.safe_dump(graph))
            override = {"data": {"graph": str(path), "n": 100}}
        config_path = tmp_path / "c.yaml"
        config_path.write_text(yaml.safe_dump(base_mapping(tmp_path, **override)))
        assert main(["validate", str(config_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{key}: ")
        assert ("features must be a list" if key == "model" else "noise_scale must be a") in out

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_rank_deficient_fit_is_exit_three(self, tmp_path, capsys):
        csv_path = tmp_path / "collinear.csv"
        rows = ["a,b,Y"]
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.normal()
            rows.append(f"{x},{2 * x},{rng.normal()}")
        csv_path.write_text("\n".join(rows) + "\n")
        path = tmp_path / "c.yaml"
        mapping = base_mapping(
            tmp_path, data={"csv": str(csv_path)}, features=["a", "b"], jobs=[]
        )
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 3
        assert "rank deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("column, values", [
        ("const", lambda a, noise: np.full(a.size, 0.1)),
        ("doubled", lambda a, noise: 2 * a),
        ("near", lambda a, noise: a + 1e-6 * noise),
    ])
    def test_collinear_column_is_named_with_exit_three(self, tmp_path, capsys, column, values):
        rng = np.random.default_rng(4)
        a, b, noise, y = rng.normal(size=(4, 200))
        rows = [f"a,b,{column},Y"]
        rows += [",".join(map(repr, r)) for r in np.column_stack([a, b, values(a, noise), y]).tolist()]
        csv_path = tmp_path / "collinear.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        path = tmp_path / "c.yaml"
        mapping = base_mapping(tmp_path, data={"csv": str(csv_path)},
                               features=["a", "b", column], jobs=[])
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 3
        assert f"rank deficient; collinear column(s): {column}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", BUNDLED_CONFIGS)
    def test_fit_saves_the_model_run_fits_bit_for_bit(self, tmp_path, monkeypatch, name):
        config = dataclasses.replace(load_config(name), data_n=3000, replications=2,
                                     output=str(tmp_path / "out"))
        csv_path, model_path = str(tmp_path / "data.csv"), str(tmp_path / "model.yaml")
        assert main(["simulate", name, "--n", "3000", "--seed", str(config.seed),
                     "--test-fraction", str(config.test_fraction), "--out", csv_path]) == 0
        assert main(["fit", csv_path, "--target", config.target, "--features",
                     ",".join(config.features), "--split-column", "split",
                     "--out", model_path]) == 0
        fitted, fit = [], relfi.cli.fit_from_dataset
        monkeypatch.setattr(relfi.cli, "fit_from_dataset",
                            lambda *args, **kwargs: fitted.append(fit(*args, **kwargs)) or fitted[-1])
        run_experiment(config)
        saved = load_model(model_path)
        assert saved.feature_order == fitted[0].feature_order
        assert saved.coefficients.tobytes() == fitted[0].coefficients.tobytes()
        assert repr(saved.intercept) == repr(fitted[0].intercept)

    @pytest.mark.parametrize(
        "key", ["data.n", "seed", "replications", "test_fraction", "sampler.ridge"]
    )
    def test_boolean_is_not_a_number(self, tmp_path, capsys, key):
        mapping = base_mapping(tmp_path)
        if "." in key:
            section, field = key.split(".")
            mapping[section] = {**mapping.get(section, {}), field: True}
        else:
            mapping[key] = True
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_ridge_must_be_finite(self, tmp_path, capsys, value):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path, sampler={"ridge": value})))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "sampler.ridge: must be null or a finite number >= 0\n"

    @pytest.mark.parametrize("override, message", [
        ({"features": "X1"}, "features: expected a list of names"),
        ({"features": ["X1", True]}, "features: expected a list of names"),
        ({"features": ["X1", None]}, "features: expected a list of names"),
        ({"jobs": {"feature": "X3"}}, "jobs: expected a list"),
        ({"jobs": [{"conditioning": []}]}, "jobs[0]: each job needs at least a 'feature'"),
        ({"jobs": [{"feature": "X3", "given": []}]}, "jobs[0]: unknown keys given"),
        ({"sampler": 3}, "sampler: expected a mapping"),
        ({"data": {"graph": "experiment_a"}}, "data.n: required with 'graph'"),
        ("a directory", "cannot read config"),
        ("target: [unclosed\n", "not valid YAML"),
    ])
    def test_config_refusals(self, tmp_path, override, message):
        path = tmp_path / "c.yaml"
        if override == "a directory":
            path.mkdir()
        elif isinstance(override, str):
            path.write_text(override)
        else:
            path.write_text(yaml.safe_dump(base_mapping(tmp_path, **override)))
        assert any(message in problem for problem in validate_config(str(path)))

    @pytest.mark.parametrize("retired, message", [
        ({"loss": "squared"}, "unknown top-level key 'loss'"),
        ({"test": {"alpha": 0.01}}, "test: unknown keys alpha"),
        ({"sampler": {"kind": "gaussian"}}, "sampler: unknown keys kind"),
        ({"form": "ratio"}, "unknown top-level key 'form'"),
    ])
    def test_retired_keys_refused(self, tmp_path, capsys, retired, message):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path, **retired)))
        assert main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_retired_sampler_flag_refused(self, tmp_path, capsys):
        # every run draws from the Gaussian law of the feature given G
        out = tmp_path / "out"
        assert main(["run", "experiment_a", "--sampler", "knockoff", "--output", str(out)]) == 2
        assert "unrecognized arguments: --sampler knockoff" in capsys.readouterr().err
        assert not out.exists()

    def test_retired_form_flag_refused(self, tmp_path, capsys):
        # every estimate is the risk difference
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        assert main(["run", str(path), "--form", "ratio"]) == 2
        assert "unrecognized arguments: --form ratio" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, tmp_path, capsys, jobs):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        assert main(["run", str(path), "--jobs", str(jobs)]) == 2
        assert "config error: --jobs: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # refused before the inputs are read: the missing CSV is never reached
        config = make_config(tmp_path, data={"csv": str(tmp_path / "missing.csv")})
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(config, workers=jobs)

    def test_no_training_rows_is_exit_three(self, tmp_path, capsys):
        # the model comes from a file, so only the sampler needs training rows
        csv_path = tmp_path / "data.csv"
        model_path = tmp_path / "model.yaml"
        assert main(["simulate", "experiment_b", "--n", "300", "--seed", "3",
                     "--out", str(csv_path)]) == 0
        assert main(["fit", str(csv_path), "--target", "Y",
                     "--split-column", "split", "--out", str(model_path)]) == 0
        csv_path.write_text(csv_path.read_text().replace(",train\n", ",test\n"))
        mapping = base_mapping(
            tmp_path, data={"csv": str(csv_path), "split_column": "split"},
            features=["C", "X1", "X2", "X3"], model=str(model_path),
            jobs=[{"feature": "X2", "conditioning": ["C"]}],
        )
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(mapping))
        threads = threading.active_count()
        capsys.readouterr()
        assert main(["run", str(path), "--jobs", "2"]) == 3
        assert "no training rows to fit a sampler on" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert threading.active_count() == threads

    def test_overflowing_model_is_exit_three(self, tmp_path, capsys):
        # at 1e150 the baseline risk is finite (about 1e300) but the losses' squares
        # are not, so no cell's test could sum its squared loss differences
        for coefficient, message in [
            (1e308, r"baseline risk inf: the test losses are not finite"),
            (1e150, r"baseline risk [0-9.]+e\+300: the squares of the test losses "
                    "do not sum to a finite number"),
        ]:
            model = LinearModel(("X1", "X2", "X3"), np.array([coefficient, 1.0, 1.0]), 0.0)
            save_model(model, tmp_path / "model.yaml")
            mapping = base_mapping(
                tmp_path, data={"graph": "experiment_b", "n": 2000},
                features=["X1", "X2", "X3"], model=str(tmp_path / "model.yaml"),
                jobs=[{"feature": "X1", "conditioning": []}],
            )
            path = tmp_path / "c.yaml"
            path.write_text(yaml.safe_dump(mapping))
            assert main(["run", str(path)]) == 3
            assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, flag, value",
        [
            ("replications", "--replications", 0),
            ("seed", "--seed", -1),
        ],
        ids=["replications", "seed"],
    )
    def test_bad_run_override(self, tmp_path, capsys, key, flag, value):
        # a bad flag fails like the same value in the file
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(base_mapping(tmp_path)))
        assert main(["run", str(path), flag, str(value)]) == 2
        from_flag = capsys.readouterr().err
        assert from_flag.startswith(f"config error: {key}: must be")
        mapping = base_mapping(tmp_path)
        section, _, field = key.rpartition(".")
        (mapping.setdefault(section, {}) if section else mapping)[field] = value
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == from_flag
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out.startswith(f"{key}: must be")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["simulate", "fit"])
    def test_negative_seed_is_exit_two(self, tmp_path, verb):
        csv_path = str(tmp_path / "d.csv")
        argv = {
            "simulate": ["simulate", "experiment_b", "--n", "50", "--out", csv_path],
            "fit": ["fit", csv_path, "--target", "Y"],
        }[verb]
        assert main(argv + ["--seed", "-1"]) == 2
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize(
        "verb, flag, key, value",
        [
            ("simulate", "--n", "data.n", 0),
            ("simulate", "--test-fraction", "test_fraction", 1.5),
            ("fit", "--test-fraction", "test_fraction", 1.5),
        ],
    )
    def test_bad_flag_fails_like_config_key(self, tmp_path, capsys, verb, flag, key, value):
        csv_path = str(tmp_path / "d.csv")
        argv = {
            "simulate": ["simulate", "experiment_b", "--n", "50", "--out", csv_path],
            "fit": ["fit", csv_path, "--target", "Y"],
        }[verb]
        assert main(argv + [flag, str(value)]) == 2
        from_flag = capsys.readouterr().err
        assert from_flag.startswith(f"config error: {key}: must be")
        assert not (tmp_path / "d.csv").exists()
        mapping = base_mapping(tmp_path)
        section, _, field = key.rpartition(".")
        (mapping.setdefault(section, {}) if section else mapping)[field] = value
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(mapping))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == from_flag

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["simulate", "experiment_b", "--n", "abc", "--out", "t.csv"], 2), ([], 2)],
        ids=["help", "bad-int", "no-verb"],
    )
    def test_argparse_exit_is_returned(self, argv, code, capsys):
        assert main(argv) == code

    @pytest.mark.parametrize(
        "case, key",
        [
            ("fit-unknown-feature", "features"),
            ("fit-target-as-feature", "features"),
            ("fit-repeated-feature", "features"),
            ("fit-unknown-target", "target"),
            ("simulate-unknown-target", "target"),
            ("simulate-one-row", "data.n"),
            ("config-one-row", "data.n"),
            ("simulate-out-no-parent", "--out"),
            ("simulate-out-directory", "--out"),
            ("fit-out-no-parent", "--out"),
            ("fit-out-directory", "--out"),
        ],
    )
    def test_bad_name_or_row_count_is_exit_two(self, tmp_path, capsys, case, key):
        csv_path, out = str(tmp_path / "d.csv"), str(tmp_path / "out")
        assert main(["simulate", "experiment_b", "--n", "100", "--out", csv_path]) == 0
        config_path = tmp_path / "c.yaml"
        one_row = base_mapping(tmp_path, data={"graph": "experiment_a", "n": 1})
        config_path.write_text(yaml.safe_dump(one_row))
        fit = ["fit", csv_path, "--split-column", "split", "--out", out, "--target"]
        # a missing parent, and an existing directory, are refused before any row is read
        no_parent, directory = str(tmp_path / "no-dir" / "x"), str(tmp_path)
        sim = ["simulate", "experiment_b", "--n", "100", "--out"]
        fit_to = ["fit", csv_path, "--split-column", "split", "--target", "Y", "--out"]
        argv = {
            "fit-unknown-feature": fit + ["Y", "--features", "X1,Q"],
            "fit-target-as-feature": fit + ["Y", "--features", "X1,Y"],
            "fit-repeated-feature": fit + ["Y", "--features", "X1,X1"],
            "fit-unknown-target": fit + ["Q"],
            "simulate-unknown-target": ["simulate", "experiment_b", "--n", "100", "--target", "Q",
                                        "--out", out],
            "simulate-one-row": ["simulate", "experiment_b", "--n", "1", "--out", out],
            "config-one-row": ["run", str(config_path)],
            "simulate-out-no-parent": sim + [no_parent],
            "simulate-out-directory": sim + [directory],
            "fit-out-no-parent": fit_to + [no_parent],
            "fit-out-directory": fit_to + [directory],
        }[case]
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {key}: ")
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before
        assert not Path(out).exists()

    def test_fit_split_column_is_checked_as_the_config_key(self, tmp_path, capsys):
        csv_path, out = str(tmp_path / "d.csv"), str(tmp_path / "m.yaml")
        assert main(["simulate", "experiment_b", "--n", "100", "--out", csv_path]) == 0
        capsys.readouterr()
        assert main(["fit", csv_path, "--target", "Y", "--split-column", "part",
                     "--out", out]) == 2
        assert capsys.readouterr().err == "config error: data.split_column: no column 'part'\n"
        assert not Path(out).exists()

    def test_simulate_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "experiment_b", "--n", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        data = load_csv(str(out), "Y", split_column="split")
        ref = sample_scm(builtin_graph("experiment_b"), 50, 1)
        assert data.variable_names == ref.variable_names
        assert np.array_equal(data.values, ref.values)
        assert np.array_equal(data.test_mask, ref.test_mask)

    def test_simulate_node_named_split_is_exit_two(self, tmp_path, capsys):
        # save_csv appends its own split column, so the file could not be read back
        graph = load_yaml(BUILTIN_GRAPHS["experiment_b"])
        graph["nodes"].append({"name": "split", "noise_scale": 1.0})
        graph_path, out = tmp_path / "g.yaml", tmp_path / "x.csv"
        graph_path.write_text(yaml.safe_dump(graph))
        assert main(["simulate", str(graph_path), "--n", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: graph: ")
        assert not out.exists()

    def test_simulate_graph_values_follow_the_config_rules(self, tmp_path, capsys):
        graph = load_yaml(BUILTIN_GRAPHS["experiment_b"])
        graph["edges"][0]["coefficient"] = True
        graph_path, out = tmp_path / "g.yaml", tmp_path / "x.csv"
        graph_path.write_text(yaml.safe_dump(graph))
        assert main(["simulate", str(graph_path), "--n", "10", "--out", str(out)]) == 2
        assert "coefficient must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_edges_not_a_list_is_exit_two(self, tmp_path, capsys):
        graph_path, out = tmp_path / "g.yaml", tmp_path / "x.csv"
        graph_path.write_text("nodes:\n  - {name: a}\n  - {name: b}\nedges: 5\n")
        assert main(["simulate", str(graph_path), "--n", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: graph: 'edges' must be a list\n"
        assert not out.exists()

    def test_simulate_unknown_graph_is_exit_two(self, tmp_path, capsys):
        assert main(["simulate", "mystery", "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "built-ins" in capsys.readouterr().err

    @pytest.mark.parametrize("name, digest", [
        ("experiment_a", "e415b4073c1808c1cd6d6c43bbadd65b800c841028dc318f8edd513ccab1761d"),
        ("experiment_b", "de9fdc83bb2ffcb56aaad2190808f2329ecc42fa97da7f3c0c5f18f7a6f4f36a"),
    ])
    def test_simulated_csv_bytes_are_pinned(self, tmp_path, name, digest):
        # no BLAS call touches these bytes, so one pin serves every kernel
        out = tmp_path / "d.csv"
        assert main(["simulate", name, "--n", "5000", "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fit_gathers_the_training_rows_once(self, tmp_path, monkeypatch, capsys):
        # the train risk comes from the moments of the fit, not from a second gather
        csv_path = tmp_path / "d.csv"
        assert main(["simulate", "experiment_b", "--n", "2000", "--seed", "4",
                     "--out", str(csv_path)]) == 0
        splits, matrix = [], Dataset.matrix
        monkeypatch.setattr(Dataset, "matrix", lambda self, names, split=None:
                            splits.append(split) or matrix(self, names, split))
        assert main(["fit", str(csv_path), "--target", "Y", "--split-column", "split"]) == 0
        assert splits == [TRAIN, TEST]
        data = load_csv(csv_path, "Y", split_column="split")
        want = empirical_risk(fit_from_dataset(data), data, SquaredError(), TRAIN)
        assert f"train risk {want:.6g}, test risk " in capsys.readouterr().out

    def test_fit_reports_and_saves(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        main(["simulate", "experiment_a", "--n", "500", "--seed", "2",
              "--out", str(csv_path)])
        model_path = tmp_path / "m.yaml"
        assert main(["fit", str(csv_path), "--target", "Y",
                     "--split-column", "split", "--out", str(model_path)]) == 0
        out = capsys.readouterr().out
        assert "fit: Y =" in out
        assert "test risk" in out
        model = load_model(model_path)
        assert set(model.feature_order) == {"X1", "X2", "X3", "X4"}

    def test_csv_with_byte_order_mark(self, tmp_path, capsys):
        # as Excel's "CSV UTF-8" saves a file
        csv_path = tmp_path / "d.csv"
        main(["simulate", "experiment_a", "--n", "300", "--seed", "2",
              "--out", str(csv_path)])
        csv_path.write_text(csv_path.read_text(), encoding="utf-8-sig")
        assert csv_path.read_bytes().startswith(b"\xef\xbb\xbfX1,")
        config_path = tmp_path / "c.yaml"
        mapping = base_mapping(tmp_path, data={"csv": str(csv_path), "split_column": "split"})
        config_path.write_text(yaml.safe_dump(mapping))
        capsys.readouterr()
        assert main(["validate", str(config_path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        model_path = tmp_path / "m.yaml"
        assert main(["fit", str(csv_path), "--target", "Y",
                     "--split-column", "split", "--out", str(model_path)]) == 0
        assert tuple(load_model(model_path).feature_order) == ("X1", "X2", "X3", "X4")

    def test_fit_empty_features_is_exit_two(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        main(["simulate", "experiment_a", "--n", "100", "--seed", "2",
              "--out", str(csv_path)])
        assert main(["fit", str(csv_path), "--target", "Y", "--features", " , "]) == 2

    def test_fit_missing_file_is_exit_two(self, tmp_path):
        assert main(["fit", str(tmp_path / "none.csv"), "--target", "Y"]) == 2
