"""Gates on what the CLI emits: the preset CSVs' bytes and the seeded kappa report.

The CSV digests were taken before the W-operator form of K was routed through
``linalg.trace_pairing``, at ``--resolution 21``.  A change that is meant to
leave the emitted files alone must keep them; one that moves them on purpose
updates the table and says why.  Only CSVs are pinned by digest: their columns
are ``%.9g`` values and integer labels, while the JSON files print
full-precision floats.

At ``--resolution 21`` no section reaches the 512 probes at which
``domains.compatibility`` screens a batch by its seed rows' duals, so the
``fig1`` and ``fig2`` CSVs are pinned at ``--resolution 101`` too (7845
probes per section), with digests taken before fully fixed probes joined
that screen.

``kappa --trials 200 --seed 0`` is pinned per family by value, with the values
printed before ``linalg.combine`` formed the search's sums: the sweep's counts
exactly, |kappa| and the margin to rel 1e-9, and the witness parameters to rel
1e-6.  The tolerances let a BLAS that differs in the last bit, or a
golden-section comparison that flips near the flat optimum, pass, as ``%.9g``
does for the CSVs; a change to the seeded draws or to the search does not.
"""

import hashlib
import json

import numpy as np
import pytest

from affinemaps.cli import main

CSV_SHA256 = {
    "fig1": {
        "fig1_full_p1p2.csv": "e063cb973ed8ba26716bd62301f75c4341a5169224a28e6f835dcc64ae8c1418",
        "fig1_full_p1p3.csv": "c2fd7d8a744b76206d3a2c5674c410d0de4f48ababa6ca1ce164ff60632b10e0",
        "fig1_full_p2p3.csv": "646148451354fb446c8cc9770fc59081ea5b1c3fb6fced8f892e57dd23f5b620",
        "fig1_partial_p1p2.csv": "f10b4ece1f6f4b00273383792b854fc011ab17bd04699bf37021e825a3bba170",
        "fig1_partial_p1p3.csv": "bed8d28a94d1d19fb306226918122dadff35d302e06eb773e056fbd56e93bad4",
        "fig1_partial_p2p3.csv": "482e867b1c0f2b57f5c349b25579addd0929b046d0ecd0214595488138ba19d1",
    },
    "fig1a": {
        "fig1a_circle_p1p2.csv": "040d884ac47c9e4b7b16793d97539c1e0829f436485990c702faf0288a65bc9e",
        "fig1a_full_p1p2.csv": "82c743a2d170ac9e8d00f714052892ff0f63dce47057deb3e4af2aadbffd42d9",
        "fig1a_mapped_p1p2.csv": "7512e59be0a1f154d9ead56b8f7557ce8408fea9e9977c40bdbde6b5bc6379ce",
        "fig1a_partial_p1p2.csv": "215efa2abad76c87983bd497db77186a72dcc79b8ba04ddc374a2683bad53fab",
    },
    "fig2": {
        "fig2_p1p2.csv": "e063cb973ed8ba26716bd62301f75c4341a5169224a28e6f835dcc64ae8c1418",
        "fig2_p1p3.csv": "e05c34bef9e84a2994cacc767f51718d76e952f8c0f3c41ba0766ba32422c1c5",
        "fig2_p2p3.csv": "beceff11a9d665adc8d44e5ec2850661dc694f7ba85ac67f9db9b83321d04e5f",
    },
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_preset_csvs_keep_their_bytes(tmp_path, name):
    assert main(["preset", name, "--resolution", "21", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == CSV_SHA256[name]


CSV_SHA256_101 = {
    "fig1": {
        "fig1_full_p1p2.csv": "e2a4d0ba22ea03d768646d3c33d7581c448cb39df3c3a9747452fd0d06048da6",
        "fig1_full_p1p3.csv": "8462ff012a4a030b4cd07affa419a250d21da46d2d91f146f926a54ef6dd1fc6",
        "fig1_full_p2p3.csv": "c6e8357b1e99a69bbffd872fd17290a7f2abf3503aee96e8be0aa838ffdf2ab1",
        "fig1_partial_p1p2.csv": "35e8fdbade37605dbad97cf98e57052a17c7e3dd0953956c530069aaf854e09a",
        "fig1_partial_p1p3.csv": "46e2567c33e07342cfaccbae3a4e4e9fc2e0eab821ee57951c6819613111c753",
        "fig1_partial_p2p3.csv": "7cba3003a7ee02908652ab6b715c96da1f9f5b65f3ec39ecbd8ab1e09ef520c3",
    },
    "fig2": {
        "fig2_p1p2.csv": "e2a4d0ba22ea03d768646d3c33d7581c448cb39df3c3a9747452fd0d06048da6",
        "fig2_p1p3.csv": "5558913a610665c7010986fe38b5ed60dd4f4caf78d4a226b2546a00e331776d",
        "fig2_p2p3.csv": "1ba763020d53ffdaa6c1969ae2e7d863db510c6e7162005095d79e53d82c49c3",
    },
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256_101))
def test_preset_csvs_keep_their_bytes_where_the_screens_run(tmp_path, name):
    assert main(["preset", name, "--resolution", "101", "--out", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert written == CSV_SHA256_101[name]


# family: (best_kappa_norm, bounds.max_kappa_norm, bounds.min_margin, witness parameters)
KAPPA_PINS = {
    "int_ham": (1.1535466443706208, 0.6457719776860558, 0.5695347092181857, [3.1415927982566823, 1.5707963331570698, 0.9561356345730376]),
    "lorentz": (
        1.0000000000000007,
        0.6996437891720518,
        0.5483425037442174,
        [0.16838223254089604, -0.5361697626448609, -0.827145337525333, 3.560544680616493]
        + [-0.851026067670252, 0.11907544034088904, -0.5114446907079309, 1.5553841263589292],
    ),
    "random_unitary": (  # the witness U row by row, each entry as (re, im)
        1.1546847156500686,
        0.7606505254916256,
        0.5500441728387856,
        [-0.2408538687256434, -0.05605055320405213, 0.2253566128791849, -0.036079609115608674]
        + [0.28741139134576915, -0.2519389161377571, 0.7682158448474303, -0.38797718828362315]
        + [-0.7523836060641665, -0.2200066333472402, 0.3852421634488674, 0.12575793127780063]
        + [-0.35767937036538117, -0.15425875121641, -0.17713123233455097, 0.1954063485429259]
        + [0.19228284478176322, -0.3362880864751196, 0.06288780364571428, 0.026404493155322985]
        + [-0.6398866155587924, 0.5264459515961526, 0.2958941372484473, -0.2667058233524263]
        + [-0.3855424749413402, -0.16018230404181702, -0.8454380590246702, -0.25351231194179985]
        + [-0.11549084625424443, -0.04746392373596198, 0.1639232176326405, 0.06482935007008434],
    ),
}


def _witness_params(witness: dict) -> list:
    if "gamma" in witness:
        return witness["gamma"]
    if "r1" in witness:
        return [x for r in (witness["r1"], witness["r2"]) for x in (*r["axis"], r["angle"])]
    return np.ravel(witness["unitary"]).tolist()


@pytest.mark.parametrize("family", sorted(KAPPA_PINS))
def test_seeded_kappa_report_keeps_its_values(tmp_path, family):
    out = tmp_path / "kappa.json"
    assert main(["kappa", "--family", family, "--trials", "200", "--seed", "0", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    best, max_norm, min_margin, params = KAPPA_PINS[family]
    bounds = report["bounds"]
    assert (bounds["checked"], bounds["ok"], bounds["violations"]) == (200, 200, 0)
    assert report["best_kappa_norm"] == pytest.approx(best, rel=1e-9)
    assert bounds["max_kappa_norm"] == pytest.approx(max_norm, rel=1e-9)
    assert bounds["min_margin"] == pytest.approx(min_margin, rel=1e-9)
    assert _witness_params(report["witness"]) == pytest.approx(params, rel=1e-6)
