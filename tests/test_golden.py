"""Golden output fingerprint of the criterion-8 compare run.

``ctxrec compare --seed 0`` on the 60 x 50 users x items dataset of
``GenConfig(seed=0)`` must produce exactly these bytes, serially and with
``--parallel 2``.  A change that moves them changes behaviour; it has to say
why in CHANGES.md and update the digests here.
"""

import hashlib

import pytest

from ctxrec.cli import main as cli_main
from ctxrec.datagen import GenConfig, scaled_config, write_dataset

COMPARE_CSV_SHA256 = "f50b5365bda86481aba347813143990d30f134ed711c1a476017c679c3296552"
# compare.json embeds the output directory; it is replaced by ``OUT`` first
COMPARE_JSON_SHA256 = "0b57fe8630cf311847d6e7e963125a70b521fcb44b0fbaeb45a6dc88a8d27c61"


@pytest.fixture(scope="module")
def ratings(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_dataset(scaled_config(GenConfig(seed=0), n_users=60, n_items=50), root)
    return root / "ratings.csv"


@pytest.mark.parametrize("parallel", [1, 2])
def test_compare_fingerprint(ratings, tmp_path, parallel):
    out = tmp_path / "out"
    argv = ["compare", "--ratings", str(ratings), "--out", str(out), "--seed", "0"]
    assert cli_main(argv + ["--parallel", str(parallel)]) == 0
    csv_bytes = (out / "compare.csv").read_bytes()
    json_bytes = (out / "compare.json").read_bytes().replace(str(out).encode(), b"OUT")
    assert hashlib.sha256(csv_bytes).hexdigest() == COMPARE_CSV_SHA256
    assert hashlib.sha256(json_bytes).hexdigest() == COMPARE_JSON_SHA256
