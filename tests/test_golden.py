"""Golden output fingerprints of the criterion-8 dataset.

``ctxrec compare --seed 0`` on the 60 x 50 users x items dataset of
``GenConfig(seed=0)`` must produce exactly these bytes, serially and with
``--parallel 2``.  ``ctxrec sweep --seed 0`` over two phase-1 and two
phase-3 neuron counts must write exactly these reports.  ``ctxrec train
--seed 0`` on the same dataset must write bundles with these canonical
contents, and the loaded models must rank exactly these items.  ``ctxrec
split --seed 0``, ``train`` on its train half and ``eval`` on its test half
must write exactly these reports and run configs, and so must ``ctxrec gen``.
A change that moves them changes behaviour; it has to say why in CHANGES.md
and update the digests here.  The same bytes must come out under OpenBLAS's
Haswell kernel, which has no AVX-512, and the pins outside the pipeline's
SOMs under its Prescott kernel too.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctxrec.baseline import load_baseline
from ctxrec.cli import main as cli_main
from ctxrec.datagen import GenConfig, scaled_config, write_dataset
from ctxrec.pipeline import load_pipeline

COMPARE_CSV_SHA256 = "b8f191482071156a48de29175bfdef10b99574421aa500be52fda6b3c87b6a6f"
# compare.json embeds the output directory; it is replaced by ``OUT`` first
COMPARE_JSON_SHA256 = "e09ae39abe3ccbd89cbe90d55c5adc7900acd6d757ae309be03ae3019d7fe7b9"

# sha256 of each bundle file re-serialised with sorted keys and no spaces, so
# the digests pin the contents and not key order or layout
PIPELINE_BUNDLE_SHA256 = {
    "clusterings.json": "965aae43da7ba4a383fce383168dbcdff96fe7c4c3b2e83f3eebae6f644153ba",
    "schema.json": "669da160e1b19e9a826ff7e3f9002d7c2c39fe84c17942b849b8e34b4a0ee6d1",
    "user_som.json": "d3549538b403e2b2837f12857b292a82f94943babee729bc858566137ad1b107",
    "virtual_space.json": "09d2d5b6ce443d91e13f8d0bd207685a589f1cc25794d3c2cb9f39b407dff292",
}
BASELINE_BUNDLE_SHA256 = {
    "schema.json": "669da160e1b19e9a826ff7e3f9002d7c2c39fe84c17942b849b8e34b4a0ee6d1",
    "flat_space.json": "4969539efc464f96dae8557f4fbe369e16af4fea254e01d8535b9a4050400cea",
    "user_som.json": "37d8a539a9e65a0827eb2fdd5ee4258cd31f7f61ccfeab9aac7e014b0df799a1",
}
# top-10 of every user in the smallest and largest labelled situation and in
# the first and last situation of the schema (227 queries, 107 labelled)
PIPELINE_RANKINGS_SHA256 = "f4bd469447d824815dffbda3e72c627b3e0ceeef01d59caf480e1b87ad1b1daa"
BASELINE_RANKINGS_SHA256 = "a7fe64c91046c39f26477466c6256b1c7422c81e35e82b7d54885cd5557882b9"
# (sweep.csv, sweep.json with the output directory replaced by ``OUT``)
SWEEP_SHA256 = {
    ("phase1", "2,4"): (
        "9473361e9308c78b750661d044fba6fca17dc455d38e44c68fa05bc2bdd19217",
        "fc924c1e31f634bf6268f1c77e7cfd90f8ec72b5c0d386545f947935f7728d2c",
    ),
    ("phase3", "3,5"): (
        "87e8b8693e2f5533d211223dbc91cabc76d0c852fceb6e0ccd2aa241c23f82c2",
        "0d50758b2ff0c2df5aa8e5dadaafbcc8840412c9ce4d8471ef285bbd435c7eb4",
    ),
}
# (eval_report.csv, cluster_f1.csv, eval_report.json with the output
# directory replaced by ``OUT``) of each system trained on the seed-0 split
EVAL_SHA256 = {
    "pipeline": (
        "73c093aa5541cbe644548a42593dff2cee542a47d9c517b0b5a75bf14c66ab78",
        "26afe4c2d28f79f906d9f206a3c9b295886e4a7fa98583bdaac9c0c6fa992faa",
        "19d56acc7dfa6cd78700e6fa9330d0e8285314f20129eb31cf316a7da26cd99d",
    ),
    "baseline": (
        "d4ce8aced96a5525163b471579bfacec20e5cce532308287a5e1cc4f4fda7524",
        "7652c7440bbeacba4fd69ec1c19f68db004f4a7465131086c9af47451d532348",
        "f6e1cfcfa51ca19b5eb4f5acc9740a76ab491c616e7a14ac8b3ea8b43d308f0b",
    ),
}
# run_config.json, or split.json, with the output directory replaced by ``OUT``
RUN_CONFIG_SHA256 = {
    "gen": "705e41a18288c7c2cc26346eca8d123486d674898078a675b5071038e3f4723d",
    "split": "d705d6ebf024be22307d9627f70377a6cebf5adb8cd6919eb4747dc2a98b728a",
    "pipeline": "46e56cfe0a1aea27ae187040a12dd4663514484bb433b1b2d9c2f473aebfa882",
    "baseline": "f8a22bcace9114b7cb086c739e2dae92555e1f58c5ef525757743805601a6c40",
}


@pytest.fixture(scope="module")
def ratings(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_dataset(scaled_config(GenConfig(seed=0), n_users=60, n_items=50), root)
    return root / "ratings.csv"


@pytest.fixture(scope="module")
def bundles(ratings, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_bundles")
    for system in ("pipeline", "baseline"):
        argv = ["train", "--ratings", str(ratings), "--out", str(root / system)]
        assert cli_main(argv + ["--seed", "0", "--system", system]) == 0
    return root


@pytest.fixture(scope="module")
def held_out(ratings, tmp_path_factory):
    """The seed-0 split of the dataset and both systems trained on its train half."""
    root = tmp_path_factory.mktemp("golden_split")
    argv = ["split", "--ratings", str(ratings), "--out", str(root), "--seed", "0"]
    assert cli_main(argv) == 0
    for system in ("pipeline", "baseline"):
        argv = ["train", "--ratings", str(root / "train.csv"), "--out", str(root / system)]
        assert cli_main(argv + ["--seed", "0", "--system", system]) == 0
    return root


def canonical_sha256(path) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def masked_sha256(path, out) -> str:
    return hashlib.sha256(path.read_bytes().replace(str(out).encode(), b"OUT")).hexdigest()


def digest(lists) -> str:
    return hashlib.sha256(json.dumps(lists, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("parallel", [1, 2])
def test_compare_fingerprint(ratings, tmp_path, parallel):
    out = tmp_path / "out"
    argv = ["compare", "--ratings", str(ratings), "--out", str(out), "--seed", "0"]
    assert cli_main(argv + ["--parallel", str(parallel)]) == 0
    csv_bytes = (out / "compare.csv").read_bytes()
    json_bytes = (out / "compare.json").read_bytes().replace(str(out).encode(), b"OUT")
    assert hashlib.sha256(csv_bytes).hexdigest() == COMPARE_CSV_SHA256
    assert hashlib.sha256(json_bytes).hexdigest() == COMPARE_JSON_SHA256


@pytest.mark.parametrize("role, counts", sorted(SWEEP_SHA256))
def test_sweep_fingerprint(ratings, tmp_path, role, counts):
    out = tmp_path / "out"
    argv = ["sweep", "--ratings", str(ratings), "--out", str(out), "--seed", "0"]
    assert cli_main(argv + ["--role", role, "--counts", counts]) == 0
    csv_bytes = (out / "sweep.csv").read_bytes()
    json_bytes = (out / "sweep.json").read_bytes().replace(str(out).encode(), b"OUT")
    expected_csv, expected_json = SWEEP_SHA256[(role, counts)]
    assert hashlib.sha256(csv_bytes).hexdigest() == expected_csv
    assert hashlib.sha256(json_bytes).hexdigest() == expected_json


@pytest.mark.parametrize(
    "system, expected",
    [("pipeline", PIPELINE_BUNDLE_SHA256), ("baseline", BASELINE_BUNDLE_SHA256)],
)
def test_bundle_fingerprint(bundles, system, expected):
    files = {path.name for path in (bundles / system).iterdir()} - {"run_config.json"}
    assert files == set(expected)
    for name, sha in expected.items():
        assert canonical_sha256(bundles / system / name) == sha, name


def test_pipeline_rankings_fingerprint(bundles):
    model = load_pipeline(bundles / "pipeline")
    lists = []
    for user in sorted(model.clusterings):
        labels = model.clusterings[user].labels
        for flat in sorted({min(labels), max(labels), 0, 335}):
            situation = model.schema.situation_from_flat(flat)
            lists.append([user, flat, model.recommend(user, situation, 10)])
    assert len(lists) == 227
    assert digest(lists) == PIPELINE_RANKINGS_SHA256


def test_baseline_rankings_fingerprint(bundles):
    model = load_baseline(bundles / "baseline")
    lists = [[user, model.recommend(user, 10)] for user in model.space.keys]
    assert digest(lists) == BASELINE_RANKINGS_SHA256


@pytest.mark.parametrize("system", sorted(EVAL_SHA256))
def test_eval_fingerprint(held_out, tmp_path, system):
    out = tmp_path / "out"
    argv = ["eval", "--model", str(held_out / system), "--ratings", str(held_out / "test.csv")]
    assert cli_main(argv + ["--out", str(out), "--seed", "0"]) == 0
    expected_csv, expected_clusters, expected_json = EVAL_SHA256[system]
    assert hashlib.sha256((out / "eval_report.csv").read_bytes()).hexdigest() == expected_csv
    assert hashlib.sha256((out / "cluster_f1.csv").read_bytes()).hexdigest() == expected_clusters
    assert masked_sha256(out / "eval_report.json", out) == expected_json


def test_split_fingerprint(held_out):
    assert masked_sha256(held_out / "split.json", held_out) == RUN_CONFIG_SHA256["split"]


@pytest.mark.parametrize("system", ["pipeline", "baseline"])
def test_train_run_config_fingerprint(held_out, system):
    out = held_out / system
    assert masked_sha256(out / "run_config.json", out) == RUN_CONFIG_SHA256[system]


def test_gen_run_config_fingerprint(tmp_path):
    out = tmp_path / "out"
    argv = ["gen", "--out", str(out), "--users", "60", "--items", "50", "--seed", "0"]
    assert cli_main(argv) == 0
    assert masked_sha256(out / "run_config.json", out) == RUN_CONFIG_SHA256["gen"]


# the pins that hold under Prescott; the other six (both compare runs, the
# phase-1 sweep, the pipeline's bundle, rankings and eval) depend on the
# pipeline SOMs' BLAS products, which round differently there
PRESCOTT_PINS = (
    "test_split_fingerprint",
    "test_gen_run_config_fingerprint",
    "test_train_run_config_fingerprint",  # pipeline and baseline
    "test_sweep_fingerprint[phase3-3,5]",
    "test_bundle_fingerprint[baseline-expected1]",
    "test_baseline_rankings_fingerprint",
    "test_eval_fingerprint[baseline]",
)


@pytest.mark.parametrize(
    "kernel, passed", [("Haswell", 14), ("Prescott", 8)], ids=["Haswell", "Prescott"]
)
def test_fingerprints_hold_on_the_kernel(tmp_path, kernel, passed):
    """The fingerprints above, in a child process whose OpenBLAS runs the
    given kernels: all 14 under Haswell, the ``PRESCOTT_PINS`` under
    Prescott.  ``OPENBLAS_CORETYPE`` is set on the child only."""
    here = Path(__file__).resolve()
    paths = [str(here.parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=kernel,
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
    )
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if kernel == "Prescott":
        argv += [f"{here}::{pin}" for pin in PRESCOTT_PINS]
    else:
        argv += [str(here), "-k", "fingerprint and not kernel"]
    argv += ["--basetemp", str(tmp_path / "child")]
    proc = subprocess.run(
        argv, cwd=here.parent.parent, env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert proc.stdout.strip().splitlines()[-1].startswith(f"{passed} passed")
