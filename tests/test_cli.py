"""CLI: flag handling, file outputs, exit codes, reproducibility."""

import io
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxrec.cli import main
from ctxrec.core import (
    ContextDimension,
    ContextSchema,
    default_schema,
    load_ratings,
)
from ctxrec import jsonio


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


GEN_SMALL = ("--users", 12, "--items", 20, "--density", 0.01)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A generated tiny dataset plus a train/test split, shared per module."""
    root = tmp_path_factory.mktemp("cli_data")
    assert run_cli("gen", "--seed", 3, "--out", root / "data", *GEN_SMALL) == 0
    assert (
        run_cli(
            "split",
            "--ratings",
            root / "data" / "ratings.csv",
            "--out",
            root / "split",
            "--seed",
            3,
        )
        == 0
    )
    return root


@pytest.fixture(scope="module")
def pipeline_bundle(dataset):
    out = dataset / "pipeline_model"
    code = run_cli(
        "train",
        "--ratings",
        dataset / "split" / "train.csv",
        "--out",
        out,
        "--system",
        "pipeline",
        "--epochs",
        15,
        "--seed",
        3,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def baseline_bundle(dataset):
    out = dataset / "baseline_model"
    code = run_cli(
        "train",
        "--ratings",
        dataset / "split" / "train.csv",
        "--out",
        out,
        "--system",
        "baseline",
        "--neurons-baseline",
        5,
        "--epochs",
        15,
        "--seed",
        3,
    )
    assert code == 0
    return out


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path):
        for sub in ("a", "b"):
            assert (
                run_cli("gen", "--seed", 7, "--out", tmp_path / sub, *GEN_SMALL)
                == 0
            )
        assert (tmp_path / "a" / "ratings.csv").read_bytes() == (
            tmp_path / "b" / "ratings.csv"
        ).read_bytes()

    def test_outputs_and_embedded_config(self, dataset):
        out = dataset / "data"
        assert (out / "ratings.csv").exists()
        assert (out / "truth.json").exists()
        run = jsonio.read_json(out / "run_config.json")
        assert run["command"] == "gen"
        assert run["seed"] == 3
        assert run["gen"]["n_users"] == 12
        assert run["gen"]["density"] == 0.01

    def test_csv_is_loadable(self, dataset):
        cube = load_ratings(dataset / "data" / "ratings.csv", default_schema())
        assert cube.n_ratings > 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--gamma", 1.5),
            ("--seed", -1),
            ("--noise-sd", "nan"),
            ("--noise-sd", "inf"),
            ("--exposure-sharpness", "nan"),
            ("--exposure-sharpness", "inf"),
            ("--exposure-sharpness", 143),
        ],
    )
    def test_invalid_value_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run_cli("gen", flag, value, "--out", out, *GEN_SMALL) == 1
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--users", "abc", "argument --users: invalid int value: 'abc'"),
            # a negative value in scientific notation reaches GenConfig's check
            ("--gamma", "-1e-3", "gamma must be in [0, 1], got -0.001"),
        ],
    )
    def test_flag_error_is_one_line(self, tmp_path, flag, value, message):
        out = tmp_path / "x"
        code, err = run_captured("gen", "--out", out, *GEN_SMALL, flag, value)
        assert (code, err) == (1, f"ctxrec: error: {message}\n")
        assert not out.exists()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        floats=st.fixed_dictionaries(
            {
                flag: st.floats(0.0, 1.0)
                | st.floats(0.0, allow_infinity=False)
                | st.floats(allow_nan=False, allow_infinity=False)
                for flag in ("--gamma", "--density", "--noise-sd", "--exposure-sharpness")
            }
        ),
        counts=st.fixed_dictionaries(
            {flag: st.integers(0, 6) for flag in ("--users", "--items", "--archetypes")}
        ),
    )
    def test_any_finite_values_exit_cleanly(self, floats, counts):
        with tempfile.TemporaryDirectory() as tmp:
            flags = [arg for item in {**floats, **counts}.items() for arg in item]
            code, err = run_captured("gen", "--out", Path(tmp) / "x", *flags)
        assert code == 0 and not err or (
            code == 1 and err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        ), err


class TestSplit:
    def test_partition_counts(self, dataset):
        total = load_ratings(
            dataset / "data" / "ratings.csv", default_schema()
        ).n_ratings
        info = jsonio.read_json(dataset / "split" / "split.json")
        assert info["n_train"] + info["n_test"] == total
        assert info["run_config"]["split"]["train_fraction"] == 0.8
        train = load_ratings(dataset / "split" / "train.csv", default_schema())
        test = load_ratings(dataset / "split" / "test.csv", default_schema())
        assert train.n_ratings == info["n_train"]
        assert test.n_ratings == info["n_test"]

    def test_missing_ratings_file_is_data_error(self, tmp_path):
        code = run_cli(
            "split", "--ratings", tmp_path / "nope.csv", "--out", tmp_path / "s"
        )
        assert code == 2


# a schema whose first dimension lists its values as one string
STRING_VALUES_SCHEMA = default_schema().to_json_dict()
STRING_VALUES_SCHEMA["dimensions"][0]["values"] = "abc"
# a schema whose integer rating bound is Infinity (the json module writes it)
INFINITE_BOUND_SCHEMA = {**default_schema().to_json_dict(), "rating_min": float("inf")}


class TestTrain:
    def test_pipeline_bundle_files(self, pipeline_bundle):
        names = {p.name for p in pipeline_bundle.iterdir()}
        assert {
            "schema.json",
            "clusterings.json",
            "virtual_space.json",
            "user_som.json",
            "run_config.json",
        } <= names

    def test_baseline_bundle_files(self, baseline_bundle):
        names = {p.name for p in baseline_bundle.iterdir()}
        assert {"schema.json", "flat_space.json", "user_som.json"} <= names

    @pytest.mark.parametrize("command", ["gen", "train"])
    @pytest.mark.parametrize(
        "schema, message",
        [
            (STRING_VALUES_SCHEMA, "values must be a list"),
            ({}, "KeyError('dimensions')"),
            ([], "TypeError"),
            ({"rating_min": 1, "rating_max": 5}, "KeyError('dimensions')"),
            (INFINITE_BOUND_SCHEMA, "OverflowError"),
        ],
        ids=["string-values", "empty-object", "empty-list", "missing-key", "infinite-bound"],
    )
    def test_schema_of_wrong_shape_is_data_error(
        self, dataset, tmp_path, capsys, command, schema, message
    ):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(schema))
        inputs = GEN_SMALL if command == "gen" else ("--ratings", dataset / "split" / "train.csv")
        code = run_cli(command, *inputs, "--out", tmp_path / "model", "--schema", path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ctxrec: error: {path} ") and len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"not,a,ratings,header\n1,2,3,4\n", "bad header"),
            (
                b"user_id,item_id,day,time,companion,weather,rating\n"
                b"u\xff,i1,Weekday,Morning,Alone,Others,3\n",
                "bad.csv is not UTF-8 text",
            ),
        ],
        ids=["bad-header", "not-utf8"],
    )
    def test_malformed_csv_is_data_error(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        assert run_cli("train", "--ratings", bad, "--out", tmp_path / "m") == 2
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        assert message in err
        assert not (tmp_path / "m").exists()


class TestEval:
    def test_report_files(self, dataset, pipeline_bundle, tmp_path):
        out = tmp_path / "eval"
        code = run_cli(
            "eval",
            "--model",
            pipeline_bundle,
            "--ratings",
            dataset / "split" / "test.csv",
            "--out",
            out,
            "--sample-users",
            12,
        )
        assert code == 0
        report = jsonio.read_json(out / "eval_report.json")
        assert report["system"] == "pipeline"
        assert report["run_config"]["command"] == "eval"
        assert "per_cluster" in report
        csv_lines = (out / "eval_report.csv").read_text().splitlines()
        assert csv_lines[0] == "n,mean_f1,mean_precision,mean_recall"
        assert (
            (out / "cluster_f1.csv").read_text().splitlines()[0]
            == "cluster,mean_f1"
        )

    def test_baseline_bundle_detected(self, dataset, baseline_bundle, tmp_path):
        out = tmp_path / "eval_flat"
        code = run_cli(
            "eval",
            "--model",
            baseline_bundle,
            "--ratings",
            dataset / "split" / "test.csv",
            "--out",
            out,
            "--sample-users",
            12,
        )
        assert code == 0
        assert jsonio.read_json(out / "eval_report.json")["system"] == "baseline"

    def test_non_bundle_directory_is_data_error(self, dataset, tmp_path):
        empty = tmp_path / "not_a_model"
        empty.mkdir()
        code = run_cli(
            "eval",
            "--model",
            empty,
            "--ratings",
            dataset / "split" / "test.csv",
            "--out",
            tmp_path / "r",
        )
        assert code == 2

    def test_bad_topn_is_usage_error(self, dataset, pipeline_bundle, tmp_path):
        code = run_cli(
            "eval",
            "--model",
            pipeline_bundle,
            "--ratings",
            dataset / "split" / "test.csv",
            "--out",
            tmp_path / "r",
            "--topn",
            "ten,five",
        )
        assert code == 1


class TestRecommend:
    CONTEXT = (
        "--day", "Weekday", "--time", "Noon",
        "--companion", "Friends", "--weather", "Moderate/Sunny",
    )

    def test_pipeline_prints_ranked_items(self, pipeline_bundle, capsys):
        code = run_cli(
            "recommend",
            "--model",
            pipeline_bundle,
            "--user",
            "u001",
            "-n",
            5,
            *self.CONTEXT,
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 0 < len(lines) <= 5
        assert lines[0].lstrip().startswith("1.")

    def test_unknown_user_is_data_error_naming_the_id(
        self, pipeline_bundle, capsys
    ):
        code = run_cli(
            "recommend",
            "--model",
            pipeline_bundle,
            "--user",
            "u999",
            *self.CONTEXT,
        )
        assert code == 2
        assert "u999" in capsys.readouterr().err

    def test_user_without_virtual_users_is_data_error(
        self, pipeline_bundle, tmp_path, capsys
    ):
        bundle = tmp_path / "model"
        shutil.copytree(pipeline_bundle, bundle)
        clusterings = jsonio.read_json(bundle / "clusterings.json")
        clusterings["users"]["u001"] = {"m": 0, "labels": {}}
        jsonio.write_json(bundle / "clusterings.json", clusterings)
        space = jsonio.read_json(bundle / "virtual_space.json")
        space["rows"] = [row for row in space["rows"] if row["user"] != "u001"]
        jsonio.write_json(bundle / "virtual_space.json", space)
        code = run_cli("recommend", "--model", bundle, "--user", "u001", *self.CONTEXT)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ")
        assert err.rstrip().endswith("has no virtual users")
        assert "'u001'" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_missing_context_flag_is_usage_error(self, pipeline_bundle):
        code = run_cli(
            "recommend", "--model", pipeline_bundle, "--user", "u001",
            "--day", "Weekday",
        )
        assert code == 1

    def test_unknown_context_value_is_data_error(self, pipeline_bundle, capsys):
        code = run_cli(
            "recommend",
            "--model",
            pipeline_bundle,
            "--user",
            "u001",
            "--day", "Weekday", "--time", "Noon",
            "--companion", "Robot", "--weather", "Others",
        )
        assert code == 2
        assert "Robot" in capsys.readouterr().err

    def test_baseline_rejects_context_flags(self, baseline_bundle):
        code = run_cli(
            "recommend",
            "--model",
            baseline_bundle,
            "--user",
            "u001",
            *self.CONTEXT,
        )
        assert code == 1

    def test_baseline_recommends_without_context(self, baseline_bundle, capsys):
        code = run_cli(
            "recommend", "--model", baseline_bundle, "--user", "u001", "-n", 3
        )
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_out_flag_writes_json(self, pipeline_bundle, tmp_path):
        out = tmp_path / "recs"
        code = run_cli(
            "recommend",
            "--model",
            pipeline_bundle,
            "--user",
            "u001",
            "--out",
            out,
            *self.CONTEXT,
        )
        assert code == 0
        data = jsonio.read_json(out / "recommendations.json")
        assert data["user"] == "u001"
        assert data["system"] == "pipeline"
        assert data["items"]

    def test_context_flags_follow_the_model_schema(self, tmp_path, capsys):
        schema = ContextSchema(
            (
                ContextDimension("mood", ("calm", "tense")),
                ContextDimension("place", ("home", "out")),
            )
        )
        jsonio.write_json(tmp_path / "schema.json", schema.to_json_dict())
        flags = ("--schema", tmp_path / "schema.json", "--seed", 1)
        assert run_cli("gen", "--out", tmp_path / "data", *flags, *GEN_SMALL) == 0
        ratings = tmp_path / "data" / "ratings.csv"
        for system in ("pipeline", "baseline"):
            out = tmp_path / system
            assert run_cli(
                "train", "--ratings", ratings, "--out", out, "--system", system,
                "--epochs", 5, *flags,
            ) == 0
        clusterings = jsonio.read_json(tmp_path / "pipeline" / "clusterings.json")
        user = sorted(clusterings["users"])[0]
        query = ("recommend", "--user", user, "--model")
        context = ("--mood", "calm", "--place", "home")
        assert run_cli(*query, tmp_path / "pipeline", *context) == 0
        assert capsys.readouterr().out.strip()
        with pytest.raises(SystemExit) as err:
            run_cli(*query, tmp_path / "pipeline", *context, "--day", "Weekday")
        assert err.value.code == 1
        assert run_cli(*query, tmp_path / "baseline", "--mood", "calm") == 1
        assert run_cli(*query, tmp_path / "baseline") == 0

    @pytest.mark.parametrize("command", ["train", "recommend"])
    @pytest.mark.parametrize("name", ["model", "user", "num", "out", "help"])
    def test_dimension_named_like_a_flag_is_rejected(
        self, pipeline_bundle, tmp_path, capsys, command, name
    ):
        dims = (ContextDimension(name, ("a", "b")), ContextDimension("place", ("home",)))
        schema = ContextSchema(dims)
        if command == "train":
            flags = ("--schema", tmp_path / "schema.json", "--seed", 1)
            jsonio.write_json(tmp_path / "schema.json", schema.to_json_dict())
            assert run_cli("gen", "--out", tmp_path / "data", *flags, *GEN_SMALL) == 0
            capsys.readouterr()
            ratings = tmp_path / "data" / "ratings.csv"
            out = tmp_path / "model"
            code = run_cli("train", "--ratings", ratings, "--out", out, *flags)
            assert not (out / "user_som.json").exists()
        else:
            bundle = tmp_path / "model"
            shutil.copytree(pipeline_bundle, bundle)
            data = jsonio.read_json(bundle / "schema.json")
            data["dimensions"][0]["name"] = name
            jsonio.write_json(bundle / "schema.json", data)
            code = run_cli("recommend", "--model", bundle, "--user", "u001")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        assert repr(name) in err


class TestCorruptBundle:
    """A bundle file cut short is a data error (exit 2, one message line)."""

    @pytest.fixture
    def truncated(self, pipeline_bundle, tmp_path):
        bundle = tmp_path / "truncated_model"
        shutil.copytree(pipeline_bundle, bundle)
        space = bundle / "virtual_space.json"
        space.write_bytes(space.read_bytes()[: space.stat().st_size // 2])
        return bundle

    def run_on(self, command, bundle, dataset, tmp_path, system="pipeline"):
        if command == "recommend":
            context = TestRecommend.CONTEXT if system == "pipeline" else ()
            return run_cli("recommend", "--model", bundle, "--user", "u001", *context)
        test = dataset / "split" / "test.csv"
        return run_cli(
            "eval", "--model", bundle, "--ratings", test, "--out", tmp_path / "r"
        )

    def assert_one_error_line(self, capsys, code, name="virtual_space.json"):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ")
        assert name in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_recommend(self, truncated, capsys):
        code = run_cli(
            "recommend", "--model", truncated, "--user", "u001", *TestRecommend.CONTEXT
        )
        self.assert_one_error_line(capsys, code)

    def test_eval(self, dataset, truncated, tmp_path, capsys):
        code = run_cli(
            "eval",
            "--model",
            truncated,
            "--ratings",
            dataset / "split" / "test.csv",
            "--out",
            tmp_path / "r",
        )
        self.assert_one_error_line(capsys, code)

    def test_non_utf8_file(self, truncated, capsys):
        (truncated / "virtual_space.json").write_bytes(b"\xff\xfe{")
        code = run_cli(
            "recommend", "--model", truncated, "--user", "u001", *TestRecommend.CONTEXT
        )
        self.assert_one_error_line(capsys, code)

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    @pytest.mark.parametrize("content", ["{}", "[]"])
    @pytest.mark.parametrize(
        "system, name",
        [
            ("pipeline", "schema.json"),
            ("pipeline", "clusterings.json"),
            ("pipeline", "virtual_space.json"),
            ("pipeline", "user_som.json"),
            ("baseline", "schema.json"),
            ("baseline", "flat_space.json"),
            ("baseline", "user_som.json"),
        ],
    )
    def test_wrong_shape(
        self, request, dataset, tmp_path, capsys, system, name, content, command
    ):
        bundle = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(f"{system}_bundle"), bundle)
        (bundle / name).write_text(content)
        code = self.run_on(command, bundle, dataset, tmp_path, system)
        self.assert_one_error_line(capsys, code, name)

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    @pytest.mark.parametrize("system", ["pipeline", "baseline"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_som_weight(
        self, request, dataset, tmp_path, capsys, system, value, command
    ):
        bundle = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(f"{system}_bundle"), bundle)
        data = jsonio.read_json(bundle / "user_som.json")
        data["weights"][-1][0] = value
        # the json module writes NaN, Infinity and -Infinity, and reads them back
        (bundle / "user_som.json").write_text(json.dumps(data))
        code = self.run_on(command, bundle, dataset, tmp_path, system)
        self.assert_one_error_line(capsys, code, "user_som.json")

    @pytest.mark.parametrize("system", ["pipeline", "baseline"])
    def test_som_config_disagrees_with_weights(
        self, request, dataset, tmp_path, capsys, system
    ):
        bundle = tmp_path / "model"
        shutil.copytree(request.getfixturevalue(f"{system}_bundle"), bundle)
        data = jsonio.read_json(bundle / "user_som.json")
        data["config"]["neuron_count"] += 1
        jsonio.write_json(bundle / "user_som.json", data)
        code = self.run_on("recommend", bundle, dataset, tmp_path, system)
        self.assert_one_error_line(capsys, code, "user_som.json")

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    def test_flat_index_outside_the_schema(
        self, dataset, pipeline_bundle, tmp_path, capsys, command
    ):
        bundle = tmp_path / "model"
        shutil.copytree(pipeline_bundle, bundle)
        data = jsonio.read_json(bundle / "clusterings.json")
        labels = next(iter(data["users"].values()))["labels"]
        labels["9999"] = labels.pop(next(iter(labels)))
        jsonio.write_json(bundle / "clusterings.json", data)
        code = self.run_on(command, bundle, dataset, tmp_path)
        self.assert_one_error_line(capsys, code, "clusterings.json")

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    @pytest.mark.parametrize(
        "name, path",
        [
            ("user_som.json", ("config", "neuron_count")),
            ("schema.json", ("rating_min",)),
            ("clusterings.json", ("users", "u001", "m")),
        ],
        ids=["neuron-count", "rating-min", "label-count"],
    )
    def test_infinity_where_an_integer_belongs(
        self, dataset, pipeline_bundle, tmp_path, capsys, name, path, command
    ):
        bundle = tmp_path / "model"
        shutil.copytree(pipeline_bundle, bundle)
        data = replaced(jsonio.read_json(bundle / name), path, float("inf"))
        (bundle / name).write_text(json.dumps(data))
        code = self.run_on(command, bundle, dataset, tmp_path)
        self.assert_one_error_line(capsys, code, name)

    @pytest.mark.parametrize("command", ["recommend", "eval"])
    def test_negative_label_count(self, dataset, pipeline_bundle, tmp_path, capsys, command):
        bundle = tmp_path / "model"
        shutil.copytree(pipeline_bundle, bundle)
        data = jsonio.read_json(bundle / "clusterings.json")
        data["users"]["u999"] = {"m": -1, "labels": {}}
        jsonio.write_json(bundle / "clusterings.json", data)
        if command == "recommend":
            context = TestRecommend.CONTEXT
            code = run_cli("recommend", "--model", bundle, "--user", "u999", *context)
        else:
            code = self.run_on(command, bundle, dataset, tmp_path)
        self.assert_one_error_line(capsys, code, "clusterings.json")


class TestSweep:
    def test_explicit_counts(self, dataset, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            out,
            "--role",
            "baseline",
            "--counts",
            "2,3",
            "--epochs",
            10,
            "--sample-users",
            12,
            "--seed",
            3,
        )
        assert code == 0
        data = jsonio.read_json(out / "sweep.json")
        assert [row["neuron_count"] for row in data["results"]] == [2, 3]
        assert data["best_neuron_count"] in (2, 3)
        assert (
            (out / "sweep.csv").read_text().splitlines()[0]
            == "neuron_count,mean_f1"
        )

    def test_range_counts(self, dataset, tmp_path):
        out = tmp_path / "sweep_range"
        code = run_cli(
            "sweep",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            out,
            "--role",
            "phase1",
            "--counts",
            "3-5",
            "--epochs",
            10,
            "--sample-users",
            12,
            "--seed",
            3,
        )
        assert code == 0
        data = jsonio.read_json(out / "sweep.json")
        assert [row["neuron_count"] for row in data["results"]] == [3, 4, 5]

    def test_bad_counts_is_usage_error(self, dataset, tmp_path):
        code = run_cli(
            "sweep",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            tmp_path / "x",
            "--role",
            "phase1",
            "--counts",
            "many",
        )
        assert code == 1

    @pytest.mark.parametrize("counts", ["0", "9,5", "5,5", "0-3", "5-3"])
    def test_invalid_counts_is_usage_error(self, dataset, tmp_path, capsys, counts):
        code = run_cli(
            "sweep",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            tmp_path / "x",
            "--role",
            "phase1",
            "--counts",
            counts,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        assert repr(counts) in err
        assert not (tmp_path / "x").exists()

    def test_metric_n_must_be_in_topn(self, dataset, tmp_path):
        code = run_cli(
            "sweep",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            tmp_path / "x",
            "--role",
            "phase1",
            "--counts",
            "2,3",
            "--metric-n",
            7,
        )
        assert code == 1


class TestCompare:
    def compare_args(self, dataset, out):
        return (
            "compare",
            "--ratings",
            dataset / "data" / "ratings.csv",
            "--out",
            out,
            "--neurons-phase3",
            6,
            "--neurons-baseline",
            6,
            "--epochs",
            10,
            "--sample-users",
            12,
            "--seed",
            3,
        )

    def test_report_structure(self, dataset, tmp_path):
        out = tmp_path / "cmp"
        assert run_cli(*self.compare_args(dataset, out)) == 0
        data = jsonio.read_json(out / "compare.json")
        assert set(data) == {"run_config", "pipeline", "baseline", "difference"}
        for n, d in data["difference"].items():
            got = (
                data["pipeline"]["per_n"][n]["mean_f1"]
                - data["baseline"]["per_n"][n]["mean_f1"]
            )
            assert d == got
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "n,pipeline_f1,baseline_f1,difference"
        assert len(lines) == 7

    def test_byte_identical_reruns(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self.compare_args(dataset, out_a)) == 0
        assert run_cli(*self.compare_args(dataset, out_b)) == 0
        compare_a = (out_a / "compare.json").read_text()
        compare_b = (out_b / "compare.json").read_text()
        # the out path itself is embedded in run_config; mask it out
        assert compare_a.replace(str(out_a), "OUT") == compare_b.replace(
            str(out_b), "OUT"
        )
        assert (out_a / "compare.csv").read_bytes() == (
            out_b / "compare.csv"
        ).read_bytes()


class TestCountFlags:
    """A worker or result count below 1 is a usage error, not a silent default."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("train", "--parallel", 0),
            ("train", "--parallel", -3),
            ("compare", "--parallel", 0),
            ("compare", "--parallel", -2),
            ("recommend", "--num", 0),
            ("recommend", "-n", -5),
        ],
    )
    def test_count_below_one_is_usage_error(
        self, dataset, pipeline_bundle, tmp_path, capsys, command, flag, value
    ):
        out = tmp_path / "out"
        if command == "recommend":
            argv = ("--model", pipeline_bundle, "--user", "u001", *TestRecommend.CONTEXT)
        elif command == "train":
            argv = ("--ratings", dataset / "split" / "train.csv", "--out", out)
        else:
            argv = ("--ratings", dataset / "data" / "ratings.csv", "--out", out)
        code = run_cli(command, *argv, flag, value)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ")
        assert "--parallel" in err if flag == "--parallel" else "--num" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestUnallocatableSom:
    """A neuron count whose weights numpy cannot create is found while
    fitting: a data error, not a traceback."""

    COUNT = 10**18

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("train", ("--neurons-phase1", COUNT)),
            ("train", ("--neurons-phase3", COUNT)),
            ("train", ("--system", "baseline", "--neurons-baseline", COUNT)),
            ("compare", ("--neurons-phase3", COUNT)),
            ("sweep", ("--role", "phase3", "--counts", f"3,{COUNT}")),
        ],
    )
    def test_is_data_error(self, dataset, tmp_path, command, argv):
        ratings = dataset / ("split/train.csv" if command == "train" else "data/ratings.csv")
        code, err = run_captured(
            command, "--ratings", ratings, "--out", tmp_path / "out", "--epochs", 5, *argv
        )
        assert code == 2
        assert err.startswith(f"ctxrec: error: cannot allocate SOM weights for {self.COUNT} ")
        assert len(err.splitlines()) == 1


class TestFlagsBeforeFiles:
    """A bad flag is a usage error even when an input file is missing too:
    every config a flag builds is checked before any file is read."""

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("train", ("--ratings", "MISSING", "--epochs", 0)),
            ("eval", ("--model", "MISSING", "--ratings", "MISSING", "--topn", "x")),
            ("sweep", ("--ratings", "MISSING", "--role", "phase3", "--counts", 3, "--topn", "x")),
            ("compare", ("--ratings", "MISSING", "--topn", "x")),
            ("split", ("--ratings", "MISSING", "--seed", -1)),
            ("eval", ("--model", "MISSING", "--ratings", "MISSING", "--seed", -1)),
        ],
    )
    def test_bad_flag_with_missing_input_is_usage_error(
        self, tmp_path, capsys, command, argv
    ):
        out = tmp_path / "out"
        argv = [tmp_path / "missing" if arg == "MISSING" else arg for arg in argv]
        assert run_cli(command, *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("ctxrec: error: ") and len(err.splitlines()) == 1
        assert not out.exists()


# what the fuzz test writes over one CSV field or one bundle JSON value
FIELD_SWAPS = ("", "x", "NaN", "-1")
VALUE_SWAPS = ({}, [], None, float("nan"), float("inf"))


def run_captured(*argv) -> tuple[object, str]:
    """Run the CLI in this process; returns the exit code and everything a
    separate process would have printed on stderr: messages, warnings and
    the traceback of an exception that escaped ``main``."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = None
                err.write(traceback.format_exc())
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, err.getvalue()


def json_paths(data, path=()):
    """The path of every value in a parsed JSON document, the root first."""
    yield path
    if isinstance(data, (dict, list)):
        for key, value in data.items() if isinstance(data, dict) else enumerate(data):
            yield from json_paths(value, path + (key,))


def replaced(data, path, value):
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def csv_mutations(draw, text: str) -> bytes:
    """The CSV with one line cut short, one field swapped or one byte
    overwritten."""
    kind = draw(st.sampled_from(["cut", "field", "byte"]))
    if kind == "byte":
        data = bytearray(text.encode())
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return bytes(data)
    lines = text.splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "cut":
        lines[k] = lines[k][: draw(st.integers(0, len(lines[k]) - 1))]
    else:
        fields = lines[k].split(",")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELD_SWAPS))
        lines[k] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def json_mutation(data, doc) -> str:
    """The JSON document with one value, or the whole document, swapped."""
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    return json.dumps(replaced(doc, path, data.draw(st.sampled_from(VALUE_SWAPS))))


class TestFuzz:
    """Mutated CSVs, schema files and bundles: the exit code stays 0, 1 or 2,
    and stderr never shows a traceback or a warning."""

    def assert_clean(self, *argv):
        code, err = run_captured(*argv)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and "Warning" not in err, err
        return code

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutated_inputs(self, dataset, pipeline_bundle, baseline_bundle, data):
        system = data.draw(st.sampled_from(["pipeline", "baseline"]))
        bundle = {"pipeline": pipeline_bundle, "baseline": baseline_bundle}[system]
        context = TestRecommend.CONTEXT if system == "pipeline" else ()
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            test_csv = dataset / "split" / "test.csv"
            train = (
                "--out", tmp / "m", "--system", system, "--epochs", 2, "--neurons-baseline", 5,
            )
            mutated = data.draw(st.sampled_from(["csv", "schema", "bundle"]), label="mutate")
            if mutated == "csv":
                text = (dataset / "split" / "train.csv").read_text()
                test_csv = tmp / "ratings.csv"
                test_csv.write_bytes(data.draw(csv_mutations(text)))
                self.assert_clean("train", "--ratings", test_csv, *train)
            elif mutated == "schema":
                schema = tmp / "schema.json"
                schema.write_text(json_mutation(data, default_schema().to_json_dict()))
                self.assert_clean(
                    "train", "--ratings", dataset / "split" / "train.csv", "--schema", schema,
                    *train,
                )
            else:
                model = tmp / "model"
                shutil.copytree(bundle, model)
                name = data.draw(st.sampled_from(sorted(p.name for p in bundle.iterdir())))
                doc = json.loads((model / name).read_text())
                (model / name).write_text(json_mutation(data, doc))
                bundle = model
                self.assert_clean("recommend", "--model", bundle, "--user", "u001", *context)
            self.assert_clean(
                "eval", "--model", bundle, "--ratings", test_csv, "--out", tmp / "r",
                "--sample-users", 4,
            )


class TestParser:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 1

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--out", "x", "--frobnicate"])
        assert err.value.code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ctxrec", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "compare" in proc.stdout
