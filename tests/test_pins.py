"""SHA-256 pins of every experiment's artifacts.

Each run below writes its artifacts through ``run_experiment``; the test
compares the SHA-256 of every file the run writes (``summary.json``, the
trace and rates CSVs, the exported cp instance) with the digest pinned
here. A change that moves a single bit of any artifact fails; such a change
re-pins only with a note that states the worst relative difference per
artifact.
"""

import hashlib
import math
import os
import pathlib

import pytest

from bsumkit import app_wmmse
from bsumkit.cli import rates_csv_text, run_experiment, trace_csv_text
from bsumkit.core import RngStream
from bsumkit.engine import SolveOptions
from bsumkit.problems import TOY_SOLVERS

# A fixed sample for the data_file run: a spread cluster around -2 and a
# spike of 20 copies of 3.0, whose component's variance clamps at the floor.
DATA_FILE_VALUES = [-2.0 + ((i * 37) % 11 - 5) / 7.0 for i in range(40)] + [3.0] * 20

RUNS = {
    "cp_swamp_pi4": ("cp", {"instance": "swamp", "theta": math.pi / 4, "max_iters": 300}),
    "cp_swamp_pi36": ("cp", {"instance": "swamp", "theta": math.pi / 36, "max_iters": 300}),
    "cp_random": ("cp", {"instance": "random", "dims": [3, 4, 2], "rank": 2,
                         "max_iters": 300}),
    "em_j2": ("em", {"n_components": 2, "n_per_cluster": 150, "centers": [-1.5, 1.5],
                     "max_iters": 80}),
    "em_j3": ("em", {"n_components": 3, "n_per_cluster": 150, "centers": [-1.5, 1.5],
                     "max_iters": 80}),
    "em_data_file": ("em", {"data_file": "data.txt", "n_components": 2, "max_iters": 80}),
    **{f"toy_{solver}": ("toy", {"solver": solver}) for solver in TOY_SOLVERS},
    "wmmse_default": ("wmmse", {}),
    "wmmse_dense": ("wmmse", {"n_cells": 8, "users_per_cell": 4, "n_antennas": 4,
                              "max_iters": 32}),
}

PINS = {
    'cp_random': {'cp_als_seed0.csv': 'dab344f152edc27cd741d116a20fa12551eaa8a69c27d8f4ee778e7bc77b346e',
                  'cp_const_prox_seed0.csv': 'c4b02112fc0f3045fe0fc557663348dc3479b80c70d4a37cf74e7dbd7495c131',
                  'cp_dim_prox_seed0.csv': '5282035b0ae684fbbc83f80507c15b18b5988e5b454718bedd57ea81ace67762',
                  'cp_instance.txt': '39a73eb18a5844d41a14d4eef1b837a1e32775d731f75e5f49c358946c45f410',
                  'cp_mbi_seed0.csv': '4c55448ebde3bea161866aac560b61e55113bc54ccc607022e51c57e498cf717',
                  'cp_misum_seed0.csv': '5596911511dab6a4d48d71a9f64e86d956ad53664ac87db0c266af4928222fad',
                  'summary.json': '73e5cf0df57b44142d1216ec9432d5b264c4e0d6e7079aaaf943ab0f132f274f'},
    'cp_swamp_pi36': {'cp_als_seed0.csv': '4bf4bc2195aa3dca166e721610a5ab901dfa1db111dbfbb9d73a9e02e2fbe920',
                      'cp_const_prox_seed0.csv': '719f3d96e455f327f47525067e1322f875e4ce8cb001ba4cc900853b2051dbd1',
                      'cp_dim_prox_seed0.csv': '2b1b43a706b37335647e698bb9163aaee6f70cf46a10833de7472eb471cc10b9',
                      'cp_instance.txt': 'ea9e0c5e7a3585ec37c344089f0d8dfe7f2c185355a6f2e4ce71037e0c979099',
                      'cp_mbi_seed0.csv': '1d2152eea59a24e05dd1ff03df70c7f4d9b2dc987316b439120b0ee475a8f940',
                      'cp_misum_seed0.csv': '7441f24a6f4dcc9e6e33e5322250f4a91f27c8cd5d07345b0c804c41d0b5d17c',
                      'summary.json': 'a7d8ad446b8e90de45f1f28e0392e7a02e1c6b825fc30d10e99ee2419f64b8e4'},
    'cp_swamp_pi4': {'cp_als_seed0.csv': '71557f3498dd0bc90807508e2b9b70cfbf8fe636621b1efb07ca78bfa76630fc',
                     'cp_const_prox_seed0.csv': '08c3574204a0917a14b76ee43438c189a32bfdef5f942b7befc73966472f4562',
                     'cp_dim_prox_seed0.csv': '95b49679ae3fe10fec3d3af7d1bc323639813b61104168041bfa2b52cb79a181',
                     'cp_instance.txt': '133a505434f590c2ffd757f5fb585f26c45a14980e2cebe080f841f5b011c331',
                     'cp_mbi_seed0.csv': '5a1160f050444df5b1acdec6dd26ea9eabfda521a661048a9f68cbd98705240a',
                     'cp_misum_seed0.csv': '2d7dcf40b777a10c174924fc613b8aa88be065c6ef750b1ecd0a9449af174ca2',
                     'summary.json': 'dc34a3bbec7c910ccfd8e1f70c7638507f0db856f3e0321a66618b88d9a128c2'},
    'em_data_file': {'em_block_seed0.csv': '5d1983ad1560f841188b09107009799eae9b37c0a6c8d35638ba203ce67f65f3',
                     'em_full_seed0.csv': 'ffa94b977d47b1268a01b875382af9140bb311029d7e537ea66de8ec535b461e',
                     'summary.json': 'afcf08b870123f2620535272c186c5096992ac25600521153e33f6d90ced41a6'},
    'em_j2': {'em_block_seed0.csv': '7c29e2dced8c8e823d68cc5398729b574f78f0fbf2f3545fbe16aac71859c876',
              'em_full_seed0.csv': '589126d7655840fcc3e881d498a49e8510c478b811d52f67af27a4a446879d67',
              'summary.json': '153a5ee96393081bc26f6834a7012ca77a4bf1f209af4cbb42b6c6bd651e829f'},
    'em_j3': {'em_block_seed0.csv': '8eb1d0297217dc789b183b37b698e05db7a92e0125c448b22bb30f535405a7e6',
              'em_full_seed0.csv': '21e94315c380d5d86bba923da7c00e0789ae978d2bb688355f1c9301c9300e43',
              'summary.json': '8bfe694e910cf6edb9818faa7e702d04dac73f411d066effbd32cf73b45b82d2'},
    'toy_alternating_prox': {'summary.json': '923cba8d25dd000c976d04fcab563d78a9a6f0d47ae91e52170e186a8fde44ea',
                             'toy_alternating_prox_seed0.csv': '10e042562fe0aa2045ddb9919dfd3d8c63d5630c0f6dfe9607c125a271fa6d60'},
    'toy_bsca': {'summary.json': '40b213c3765ea394af3de700e88d902a25e1fedf3755c409c98e4010d1392533',
                 'toy_bsca_seed0.csv': '2421452d41f709f4a3a5833b25b9163a29707b471e3c9a3d40b61c764f314231'},
    'toy_cccp': {'summary.json': '55024f01ddb2b3c9e1b48f18b013ca1437fd800fd75da99db51900b7394caf10',
                 'toy_cccp_seed0.csv': '7efd530e4d295dd4b10944b396cb0144e4e8b3980eeaf09119470a2cd05e14e9'},
    'toy_prox': {'summary.json': '8d7e7f93a0432b9bfdee75f937573fb3fddad9b41cf54b3c988803e75c7ea1b5',
                 'toy_prox_seed0.csv': '49914ba73b86adb0484c6b4203c0a7aa90ac37403c43a4a3538c296d5d7938f3'},
    'toy_splitting': {'summary.json': '5e352d897a1e06da42522db3078f2d8a33347fc2ef2478ec5762dcc8d2e84fbd',
                      'toy_splitting_seed0.csv': 'e176dde1fa14bcfb5f8f4fad27758215ee91b46587d86c6d9c803315bad22e73'},
    'wmmse_default': {'summary.json': '69b539829d18a3d965cb4aece796c01085c550db4c5e80c42117483359769c6e',
                      'wmmse_rates_seed0.csv': '9b6256dd33aa13980548c7b01bc178d6b6b29f15a2c633a72b3e66f0293f8eaf',
                      'wmmse_seed0.csv': 'da19d59e2d9d100e0afb2e80ff827940dc0d536b17e9ec10da39eda6624ccbac'},
    'wmmse_dense': {'summary.json': 'a6619d2d0ed7ce3350bd4a7c371a077f65e817b9524a8f68a4c0d40efec2e2ae',
                    'wmmse_rates_seed0.csv': '40251cd57197c45d7003d949da9210ea1711993e5dd29ce5d4c94b48f0d7f231',
                    'wmmse_seed0.csv': 'cbbe2e3cfd7ce601b4324b1be6efad140e7a1263a3b306593580ba3fca4a8021'}}

# The config file takes one stream count for every user, so the mixed-stream
# network (unequal cells, 1 to 3 streams per user, per-user noise and
# per-cell budgets) runs through the library and pins the CSVs the CLI would
# write for it. The network is spelled out here, not imported from
# test_wmmse, so that the pinned input cannot move with that module.
MIXED_STREAM_PINS = {
    'trace': 'd057fe3607c5b47571c0d28087859b820ca0822fa82a00d56cd91e948d1cc743',
    'rates': '87ab03fa423270c7f2231f4b38539fec356ffc17c2b48ee29e39668a1fd8213c'}


def artifact_digests(name: str, work_dir) -> dict[str, str]:
    """SHA-256 of each artifact of run ``name``, written under ``work_dir``
    (which must be the working directory: the data file path is relative, so
    ``summary.json`` does not depend on where the run happens)."""
    experiment, params = RUNS[name]
    if "data_file" in params:
        with open(params["data_file"], "w", encoding="ascii") as fh:
            fh.write("\n".join(repr(v) for v in DATA_FILE_VALUES) + "\n")
    out_dir = os.path.join(str(work_dir), "out")
    config = {"experiment": experiment, "params": dict(params), "seeds": [0],
              "output_dir": out_dir}
    assert run_experiment(config) == 0
    return {f: hashlib.sha256(pathlib.Path(out_dir, f).read_bytes()).hexdigest()
            for f in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifact_bits_are_pinned(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    assert artifact_digests(name, tmp_path) == PINS[name]


def test_mixed_stream_wmmse_bits_are_pinned():
    spec = app_wmmse.NetworkSpec.build(
        n_cells=3, users_per_cell=(1, 3, 2), n_antennas=3, streams=(1, 2, 3, 1, 2, 2),
        noise_power=(1.0, 0.5, 2.0, 1.0, 0.8, 1.5), power=(1.0, 2.0, 0.5))
    H = app_wmmse.gen_channels(spec, RngStream(0))
    V0 = app_wmmse.init_transmitters(spec, RngStream(0).substream(1))
    _, trace = app_wmmse.run_wmmse(spec, H, V0, SolveOptions(max_iters=64, tol=1e-9))
    assert trace.n_iterations == 64
    digests = {name: hashlib.sha256(text(trace).encode("ascii")).hexdigest()
               for name, text in (("trace", trace_csv_text), ("rates", rates_csv_text))}
    assert digests == MIXED_STREAM_PINS
