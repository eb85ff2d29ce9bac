"""Workload selection of the end-to-end A/B script (benchmarks/e2e_ab.py)."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def e2e_ab():
    spec = importlib.util.spec_from_file_location("e2e_ab", ROOT / "benchmarks" / "e2e_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_default_is_every_declared_workload(e2e_ab):
    assert e2e_ab.select_workloads(DECLARED, "") == DECLARED


def test_named_workloads_in_the_order_given(e2e_ab):
    assert e2e_ab.select_workloads(DECLARED, DECLARED[0]) == DECLARED[:1]
    both = ",".join(reversed(DECLARED))
    assert e2e_ab.select_workloads(DECLARED, both) == list(reversed(DECLARED))
    assert e2e_ab.select_workloads(DECLARED, f" {DECLARED[0]} ") == DECLARED[:1]


def test_unknown_or_repeated_names_are_rejected(e2e_ab):
    with pytest.raises(ValueError, match="unknown workload.*no-such-workload"):
        e2e_ab.select_workloads(DECLARED, f"{DECLARED[0]},no-such-workload")
    with pytest.raises(ValueError, match="named twice"):
        e2e_ab.select_workloads(DECLARED, f"{DECLARED[0]},{DECLARED[0]}")


def test_command_line_rejects_an_unknown_name_before_running(e2e_ab, monkeypatch, capsys):
    def no_export(ref, destination):
        raise AssertionError("an unknown workload must be rejected before the export")

    monkeypatch.setattr(e2e_ab, "export", no_export)
    with pytest.raises(SystemExit) as info:
        e2e_ab.main(["HEAD", "--workloads", "no-such-workload"])
    assert info.value.code == 2
    assert "unknown workload(s) no-such-workload" in capsys.readouterr().err
