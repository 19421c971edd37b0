"""Byte gate on the figure presets: every CSV keeps its sha256.

The digests were taken before the W-operator form of K was routed through
``linalg.trace_pairing``, at ``--resolution 21``.  A change that is meant to
leave the emitted files alone must keep them; one that moves them on purpose
updates the table and says why.  Only CSVs are pinned: their columns are
``%.9g`` values and integer labels, while the JSON files print full-precision
floats.
"""

import hashlib

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
