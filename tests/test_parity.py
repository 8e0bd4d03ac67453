"""tools/parity.py's comparison of two run directories."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", TOOL)
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def run_dir(root: Path, name: str, seconds="0.25", output_dir="runs", hv="4.5",
            policy=(0.5, -1.0)) -> Path:
    """A tiny run directory holding every file the tool compares."""
    path = root / name
    (path / "checkpoints").mkdir(parents=True)
    np.save(path / "checkpoints" / "policy.npy", np.array([policy]))
    np.save(path / "checkpoints" / "critic.npy", np.array([[0.25]]))
    (path / "frontier.json").write_text('{"entries": [], "m": 2}')
    (path / "selection.jsonl").write_text('{"kind": "pgr"}\n')
    (path / "metrics.csv").write_text(
        "generation,hv,sp,archive_size,stationary_fallbacks,seconds\n"
        f"0,{hv},undefined,1,0,{seconds}\n")
    (path / "config.yaml").write_text(f"experiment: tiny\noutput_dir: {output_dir}\nseeds: [0]\n")
    return path


@pytest.mark.parametrize("change", [{}, {"seconds": "7.5"}, {"output_dir": "elsewhere"}],
                         ids=["identical", "seconds", "output_dir"])
def test_outputs_that_may_differ_are_ignored(tmp_path, change):
    assert parity.differences(run_dir(tmp_path, "a"), run_dir(tmp_path, "b", **change)) == []


@pytest.mark.parametrize("change, named", [
    ({"policy": (0.5, -1.5)}, ["checkpoints/"]),
    ({"hv": "4.6"}, ["metrics.csv"]),
], ids=["checkpoint-byte", "metrics-value"])
def test_a_changed_output_is_named(tmp_path, change, named):
    assert parity.differences(run_dir(tmp_path, "a"), run_dir(tmp_path, "b", **change)) == named
