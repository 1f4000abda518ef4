"""``tools/artifacts.py``, the artifact-equivalence harness, on the tests' BASE config."""

from pathlib import Path

import artifacts

SRC = Path(__file__).resolve().parents[1] / "src"


def test_curve_hashes_do_not_depend_on_jobs(tmp_path):
    hashes = {label: digest for digest, label in artifacts.hash_config("base", SRC, tmp_path)}
    steps = {label.split("/")[1] for label in hashes}
    assert steps == {"generate", "train", "eval", "curve-j1", "curve-j2"}
    assert "base/train/train/model.ssrm" in hashes
    curves = [{label.split("/", 2)[2]: digest for label, digest in hashes.items()
               if label.startswith(f"base/{step}/")} for step in ("curve-j1", "curve-j2")]
    assert set(curves[0]) == {"stdout", "config_resolved.cfg", "curve/curve_jobs.csv",
                              "curve/curve_aggregate.csv"}
    assert curves[0] == curves[1]
