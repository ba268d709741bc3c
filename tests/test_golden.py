"""Byte-identity of every promised-stable output on one fixed small case.

The digests were recorded from the frozenset-based data layer that preceded
the index-array storage (numpy 2.4 with OpenBLAS on x86-64).  Any change to
how cells are stored, parsed, split, written or scored must leave these
files bit for bit as they were.
"""

import hashlib

from nbmf import planted_dataset, save_coordinate_file
from nbmf.cli import main

CONFIG = """\
[run]
dataset = data.txt

[split]
seed = 3

[fit]
rank = 3
alpha = 1.5
beta = 2
max_iter = 30
seed = 11
log_every = 0

[tune]
rank_values = 1 2
alpha_values = 1 2
beta_values = 1 3
n_restarts = 2
base_seed = 5
max_iter = 40
"""

GOLDEN = {
    "data.txt":
        "45e58eb1d371004c1ded691529ecf2a7961b475602f15318a373bb1a5f7c803b",
    "fit/train_mask.txt":
        "ce3284ae51b81366f26f3d383e8ab50b7831b1e95e3899372dd368da02a6293e",
    "fit/val_mask.txt":
        "59be45bcfdae1a5c06749ab6aa07cf4db779b1b026428c89f28798db7d0be3dc",
    "fit/test_mask.txt":
        "abface6fe338e12e202df17229a480277b8490c47c051e4a1f12998b9d5354f7",
    "fit/W.txt":
        "6161a194cad5f76559035435f8d9277bf0682611c705b2a61320b84d6b066576",
    "fit/H.txt":
        "1c77e76e3016205732edc914c61cde8bb0df9a52960795849f37a96f9b724f35",
    "fit/meta.txt":
        "0536521f7f45061b3f8b70c18ce8d86bb9bb79729042eef9fa254864dd44e0fb",
    "fit/completion_report.json":
        "f29008140b0f6ab98e0069a7923df37c5cc2374b290ce7c0d29cd72beb0888ba",
    "fit/completion_report.csv":
        "606515bcc549f3c70d1309784efcf313f36791adf3a40ae6dff81de63358958d",
    "tune/grid_result.csv":
        "8cf57c1325591db0a4c810facb2a173b545d9f9c26d443bfeba6b7a951543240",
    "tune/heatmap.csv":
        "d7c0cd277f4c39978a56d9fb2fb2c7de13d5f54ab56b6e1405d263a84ae5e35d",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_match_recorded_digests(tmp_path):
    Y, _, _ = planted_dataset(24, 17, 3, seed=13)
    save_coordinate_file(Y, tmp_path / "data.txt")
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    fit_dir, tune_dir = tmp_path / "fit", tmp_path / "tune"
    assert main(["fit", "--config", str(config), "--out", str(fit_dir)]) == 0
    assert main(["eval", "--config", str(config), "--out", str(fit_dir)]) == 0
    assert main(["tune", "--config", str(config), "--out", str(tune_dir),
                 "--jobs", "2"]) == 0
    digests = {name: _digest(tmp_path / name) for name in GOLDEN}
    assert digests == GOLDEN
