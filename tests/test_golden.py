"""Golden output fingerprints of the criterion-8 dataset.

``ctxrec compare --seed 0`` on the 60 x 50 users x items dataset of
``GenConfig(seed=0)`` must produce exactly these bytes, serially and with
``--parallel 2``.  ``ctxrec train --seed 0`` on the same dataset must write
bundles with these canonical contents, and the loaded models must rank
exactly these items.  A change that moves them changes behaviour; it has to
say why in CHANGES.md and update the digests here.
"""

import hashlib
import json

import pytest

from ctxrec.baseline import load_baseline
from ctxrec.cli import main as cli_main
from ctxrec.datagen import GenConfig, scaled_config, write_dataset
from ctxrec.pipeline import load_pipeline

COMPARE_CSV_SHA256 = "f50b5365bda86481aba347813143990d30f134ed711c1a476017c679c3296552"
# compare.json embeds the output directory; it is replaced by ``OUT`` first
COMPARE_JSON_SHA256 = "0b57fe8630cf311847d6e7e963125a70b521fcb44b0fbaeb45a6dc88a8d27c61"

# sha256 of each bundle file re-serialised with sorted keys and no spaces, so
# the digests pin the contents and not key order or layout
PIPELINE_BUNDLE_SHA256 = {
    "clusterings.json": "08f85e60119e98f47280a4fe548b9b32f46e8e6fd81b759ee5884dea533ac228",
    "schema.json": "669da160e1b19e9a826ff7e3f9002d7c2c39fe84c17942b849b8e34b4a0ee6d1",
    "user_som.json": "1abc420517c1d82245334a54fb82624cf751bf08333f8d2fc21ffd5c4804f248",
    "virtual_space.json": "22f3db516b3e0332fc857e3b2d6372101ecc99d4ee6002cfd5c2a3a701107813",
}
BASELINE_BUNDLE_SHA256 = {
    "schema.json": "669da160e1b19e9a826ff7e3f9002d7c2c39fe84c17942b849b8e34b4a0ee6d1",
    "flat_space.json": "4969539efc464f96dae8557f4fbe369e16af4fea254e01d8535b9a4050400cea",
    "user_som.json": "eea907a05ea336e6dc800c7d386563897fb91db84a423f97f5f9b34dec3fae90",
}
# top-10 of every user in the smallest and largest labelled situation and in
# the first and last situation of the schema (227 queries, 107 labelled)
PIPELINE_RANKINGS_SHA256 = "b4a0b319abed14abc678324e40d1961d677a28ce31412e03608a2a79fe6a4ce6"
BASELINE_RANKINGS_SHA256 = "6d19227e3d5cde3f054420938e606c8e93147e1a57ba2d75f389aca88911313e"


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


def canonical_sha256(path) -> str:
    data = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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
