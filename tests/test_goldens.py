"""Byte pins of the CLI's output files.

Every digest below was taken from a build known to be correct.  A changed
digest means a changed output byte: a behaviour change, never noise.  The
pinned fleet is small and comes from the synthesizer, with vessel ids that
need CSV quoting (``,`` and ``"``) and XML escaping (``&<>``), plus one
isolated report that cbtr must leave as a single-report cluster.
"""

import csv
import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from trackstitch.cli import main
from trackstitch.ingest import write_ais_csv
from trackstitch.synth import SynthConfig, generate_fleet, scenario_s1

OUT_FILES = ("assignment.csv", "tracks.geojson", "timeline.svg", "manifest.txt")
RENAMED = {"V00": "a,b", "V01": 'say "hi"', "V02": "<&> tug", "V03": "plain"}
LONE_REPORT = '"lone, ""one"" & <x>",9000,37.5,-75.5,0.0,0.0\n'

FLEET_SHA256 = "54404268b6c9375fe318581f582b1aae7f654f1d745f25afe3c2d35a1ed25e59"
CLUSTER_SHA256 = {
    "cbtr": {
        "assignment.csv": "efcc93e16ac8b20c88b4bb3e7d0c5ac7fd1977895ab028dccbf0721c8ffb0ea7",
        "tracks.geojson": "9fb9783f505b1feb9cd9c7a552e11fa410f9a0237bd191cfe37f9b53b4b3af70",
        "timeline.svg": "08563e9af34c4a92de7c3e1a17518bb6d7382152e19f52569aad186f701435af",
        "manifest.txt": "fe0b96c19d57e04d297d7bb6db3e9e9e2b84118e1856f00986308c4f3dfc205d",
    },
    "npc": {
        "assignment.csv": "220bbd64ab0f76f2f7c25677ed45eae96dfe25e247e8c65688e7f87ee7a9486f",
        "tracks.geojson": "48f0126990b9f3859451a984b6a258f260c7950c0b1c3faba14c47867d75fee8",
        "timeline.svg": "0e39158a25000ac68640cbc25ec1b265857286dea0297b3136d0bed5c287ce3b",
        "manifest.txt": "e350f40d4b4e9148774df533be11b90ffe49324b36d0ddc9a74784fcd246ad88",
    },
}
SYNTH_S1_SEED7_SHA256 = "107e49a01a08948cb32f0971f3a61278ede9e819942cf7aeef5f5b5a15a87679"
# the gap filter, and the noise-free branch of the sample realization
SYNTH_MORE_SHA256 = {
    "s1-gaps-seed7": (["--scenario", "s1-gaps", "--seed", "7"],
                      "407cc2bbcc951e490bc7457610dc3c94a26719ddc204189b7f117ebad0a372f5"),
    "clean-9-seed7": (["--n-vessels", "9", "--seed", "7"],
                      "d5b8dc98f27799df7430914ee52794c0988775eb14cca43c72d83b4482046404"),
}
# write_ais_csv bytes of fleets beyond the 4 h ones above: the benchmark's
# long-sparse and dense-harbor fleets, and a gapped, noisy fleet whose
# interval range is narrower than the transit and steady bands, so those
# vessels draw from the whole range
FLEET_CSV_SHA256 = {
    "long-sparse-seed7": (replace(scenario_s1(7), duration_s=132_000),
                          "cc89d161099dd8f17e3bb8502ec1ae0228ce325d5f2db6028a20d49d6a47feb9"),
    "dense-harbor-seed7": (SynthConfig(n_vessels=200, duration_s=3600, noise_sigma_m=10.0,
                                       seed=7),
                           "34d740ea82b879cb24d25f03dda86857b5466a555e807f1e6328071c215cf9c6"),
    "narrow-band-gapped-seed11": (
        SynthConfig(n_vessels=7, duration_s=3600, sample_interval_s=(2, 20),
                    noise_sigma_m=30.0, gaps_per_vessel=2, gap_duration_s=(300, 600),
                    seed=11),
        "92e5ca770f0cb30f31f406c9c01d30c1df58b648eac2e07eb1f1f99222cba0e2"),
}
DOWNSAMPLE_SHA256 = {
    "every-5th": "f07e127edb53c0d7dcb708bf6d5dfa43b3689ad40bd44b913c83919663898f01",
    "every-2nd": "1117273a25407cb6bbf86fba304ef57baf77b590b8d7a87cfe38ef591bd3e2ee",
}
CLASSIFY_SHA256 = "54404268b6c9375fe318581f582b1aae7f654f1d745f25afe3c2d35a1ed25e59"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def pinned_fleet(tmp_path):
    ds = generate_fleet(SynthConfig(n_vessels=4, duration_s=1800, noise_sigma_m=8.0, seed=3))
    path = tmp_path / "fleet.csv"
    write_ais_csv(replace(ds, vids=tuple(RENAMED[v] for v in ds.vids)), path)
    with open(path, "a", encoding="utf-8", newline="") as handle:
        handle.write(LONE_REPORT)
    assert _sha256(path) == FLEET_SHA256
    return path


@pytest.mark.parametrize("algo", ["cbtr", "npc"])
def test_cluster_outputs_are_pinned(pinned_fleet, tmp_path, algo):
    out = tmp_path / algo
    assert main(["cluster", str(pinned_fleet), "--algo", algo, "--out", str(out)]) == 0
    assert {name: _sha256(out / name) for name in OUT_FILES} == CLUSTER_SHA256[algo]


def test_pinned_fleet_has_a_single_report_cluster(pinned_fleet, tmp_path):
    out = tmp_path / "run"
    assert main(["cluster", str(pinned_fleet), "--out", str(out)]) == 0
    with open(out / "assignment.csv", newline="") as handle:
        sizes = Counter(row["cluster"] for row in csv.DictReader(handle))
    assert 1 in sizes.values()


def _synth_sha256(tmp_path, args) -> str:
    out = tmp_path / "fleet.csv"
    assert main(["synth", *args, "--out", str(out)]) == 0
    return _sha256(out)


def test_synth_s1_seed7_is_pinned(tmp_path):
    assert _synth_sha256(tmp_path, ["--scenario", "s1", "--seed", "7"]) == SYNTH_S1_SEED7_SHA256


@pytest.mark.parametrize("fleet", sorted(SYNTH_MORE_SHA256))
def test_synth_fleet_is_pinned(tmp_path, fleet):
    args, digest = SYNTH_MORE_SHA256[fleet]
    assert _synth_sha256(tmp_path, args) == digest


@pytest.mark.parametrize("fleet", sorted(FLEET_CSV_SHA256))
def test_generated_fleet_csv_is_pinned(tmp_path, fleet):
    cfg, digest = FLEET_CSV_SHA256[fleet]
    path = tmp_path / "fleet.csv"
    write_ais_csv(generate_fleet(cfg), path)
    assert _sha256(path) == digest


@pytest.mark.parametrize("pattern", ["every-5th", "every-2nd"])
def test_downsample_is_pinned(pinned_fleet, tmp_path, pattern):
    out = tmp_path / "thin.csv"
    assert main(["downsample", str(pinned_fleet), "--pattern", pattern,
                 "--out", str(out)]) == 0
    assert _sha256(out) == DOWNSAMPLE_SHA256[pattern]
    # thinning keeps whole input rows, times included
    assert set(out.read_text().splitlines()) < set(pinned_fleet.read_text().splitlines())


def test_classify_is_pinned(pinned_fleet, tmp_path):
    thin = tmp_path / "thin.csv"
    assert main(["downsample", str(pinned_fleet), "--pattern", "every-2nd",
                 "--out", str(thin)]) == 0
    out = tmp_path / "labeled.csv"
    assert main(["classify", str(thin), str(pinned_fleet), "--out", str(out)]) == 0
    assert _sha256(out) == CLASSIFY_SHA256
