"""CLI: flag handling, file outputs, exit codes, reproducibility."""

import shutil
import subprocess
import sys

import pytest

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

    def test_invalid_gamma_is_usage_error(self, tmp_path):
        assert (
            run_cli("gen", "--gamma", 1.5, "--out", tmp_path / "x", *GEN_SMALL)
            == 1
        )


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

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,ratings,header\n1,2,3,4\n")
        assert (
            run_cli("train", "--ratings", bad, "--out", tmp_path / "m") == 2
        )


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
