"""The benchmark's workloads still run on the package and pass their own checks.

``perfbench/workloads.py`` calls the package by name (``sample_domain``,
``int_ham_map``, ``map_to_json``, ``cli.main``, ``design_probes``,
``evaluate_probes``, ``map_oracle``, ``reconstruct_map``,
``validate_reconstruction``, ``kappa_search``, ``bounds_sweep``) and replays
the bound sweep by wrapping ``qubit2.kappa_bounds_check``, which must see
one call per trial.  One round of each of the four workloads at seed 0
guards those names and that hook.
"""

import importlib
import os
import types

import pytest

from affinemaps import basis, cli, domains, linalg, maps, qubit2, tomography

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", ["domain-partial", "domain-fixed", "map-tomography", "kappa"])
def test_workload_round_passes_its_checks(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    am = types.SimpleNamespace(
        basis=basis, cli=cli, domains=domains, linalg=linalg, maps=maps, qubit2=qubit2, tomography=tomography
    )
    workload = workloads.WORKLOADS[name](am, 0, str(tmp_path))
    for index, (label, thunk, items) in enumerate(workload.calls):
        out = thunk()
        assert workload.failed_items(index, out) == 0, label
        workload.record(index, out)
    assert workload.check() == []
