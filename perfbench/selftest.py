"""Self-tests of the benchmark: percentile rule, self time, output checks and
a smoke run of every workload.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the repository's own test collection.)
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import setsum  # noqa: E402
import stats  # noqa: E402
import summarize  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_reportable_percentile(n) == expected
    if expected is not None:
        assert stats.samples_beyond(expected, n) >= stats.MIN_BEYOND


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],       # overlaps a: children cover 1..6 once
        ["a.child", 2.0, 3.0, 1],
        ["late", 9.0, 12.0, 0],   # runs past the root's end: only 9..10 counts
    ]
    assert summarize.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_summary_of_nested_training_spans():
    spans = [
        ["trainer.train", 0.0, 1.0, -1],
        ["regressor.hydra_loss", 0.1, 0.4, 0],
        ["autodiff.conv", 0.1, 0.3, 1],
        ["autodiff.relu", 0.3, 0.35, 1],
        ["autodiff.backpropagate", 0.4, 0.8, 0],
        ["autodiff.conv.bwd", 0.45, 0.7, 4],
        ["optim.adadelta_step", 0.8, 0.85, 0],
        ["regressor.predict", 0.9, 0.95, 0],
        ["autodiff.conv", 0.9, 0.94, 7],   # validation: not part of a step
    ]
    record = {"spans": spans, "counts": {"ops": 2, "slots": 4, "real_slots": 3},
              "meta": {"epochs": 1, "reference_s": 1.0, "traced_s": 1.25}}
    m = summarize.summarize(record)
    assert m["autodiff.conv_fwd_ms_per_step"] == pytest.approx(200.0)
    assert m["autodiff.conv_bwd_ms_per_step"] == pytest.approx(250.0)
    assert m["autodiff.small_ops_ms_per_step"] == pytest.approx(50.0)
    assert m["autodiff.backprop_dispatch_ms_per_step"] == pytest.approx(150.0)
    assert m["trainer.validation_ms_per_epoch"] == pytest.approx(50.0)
    assert m["trainer.loop_self_share"] == pytest.approx(0.2)
    assert m["regressor.real_slot_ratio"] == pytest.approx(0.75)
    assert m["trace.overhead_share"] == pytest.approx(0.25)
    assert set(m) == set(summarize.UNITS)


# -- output checks --------------------------------------------------------------

def test_infer_must_match_predict_bit_for_bit():
    assert checks.infer_mismatches([1.0, 2.0], [1.0, 2.0]) == 0
    assert checks.infer_mismatches([1.0, 2.0], [1.0, math.nextafter(2.0, 3.0)]) == 1
    assert checks.infer_mismatches([0.0], [-0.0]) == 1
    assert checks.infer_mismatches([1.0], [1.0, 2.0]) == 2


def test_set_sum_tolerance():
    assert not checks.set_sum_mismatch(3.0, [1.0, 2.0])
    assert not checks.set_sum_mismatch(3.0 * (1 + 1e-13), [1.0, 2.0])
    assert checks.set_sum_mismatch(3.0 * (1 + 1e-11), [1.0, 2.0])


def test_gradient_tolerance():
    grads = {"w": np.ones(3)}
    assert not checks.gradient_mismatch(1.0, grads, 1.0, {"w": np.ones(3) + 1e-12})
    assert checks.gradient_mismatch(1.0, grads, 1.0, {"w": np.ones(3) + 1e-9})
    assert checks.gradient_mismatch(1.0, grads, 1.0 + 1e-9, {"w": np.ones(3)})
    assert checks.gradient_mismatch(1.0, grads, 1.0, {"v": np.ones(3)})


def test_envelope_is_the_per_position_minimum():
    assert workloads.envelope([[3.0, 1.0, 2.0], [1.0, 5.0, 2.0]]) == [1.0, 1.0, 2.0]
    with pytest.raises(RuntimeError):
        workloads.envelope([[1.0], [1.0, 2.0]])


def test_idle_hooks_are_reported():
    assert checks.never_called({"train": 2, "infer": 0}) == ["infer"]


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    w = workloads.WORKLOADS["setsum_2d16"].smoke_variant()
    cfg = w.run_config(0)
    setup = workloads.Setup(cfg, tmp_path_factory.mktemp("data"))
    return setup.model, setup.manifest


def test_model_checks_pass_on_true_outputs(small_model):
    model, manifest = small_model
    ledger = checks.Ledger()
    workloads.check_model(model, manifest, setsum.infer(model, manifest), ledger)
    assert ledger.failed == 0 and ledger.attempted == 6 + 2 + 1


def test_model_checks_catch_a_wrong_inference(small_model):
    model, manifest = small_model
    inferred = setsum.infer(model, manifest)
    inferred[3] += 1e-9
    ledger = checks.Ledger()
    workloads.check_model(model, manifest, inferred, ledger)
    assert ledger.failed == 1
    assert "infer equals per-image predict" in ledger.failures[0]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_diverging_training_is_a_failed_operation(trace, monkeypatch, capsys):
    adadelta_step = setsum.trainer.adadelta_step

    def poisoned_step(params, grads, state):
        adadelta_step(params, grads, state)
        next(iter(params.values())).data[...] = math.nan

    monkeypatch.setattr(setsum.trainer, "adadelta_step", poisoned_step)
    assert run.main(["--workload", "setsum_2d16", "--seed", "2", "--seconds", "0",
                     "--trace", trace, "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


# -- smoke runs through the command line ----------------------------------------

def _run(args, cwd):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload, trace):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke"], HERE.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = summarize.UNITS if trace == "1" else workloads.UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == summarize.UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_between_traced_runs():
    counted = ("autodiff.op_calls_per_step", "regressor.slots_forwarded_per_step",
               "autodiff.conv_gflop_per_step", "augment.black_share")
    results = []
    for _ in range(2):
        out = _run(["--workload", "setsum_2d16", "--seed", "5", "--seconds", "0",
                    "--trace", "1", "--smoke"], HERE.parent)
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        results.append({k: metrics[k]["value"] for k in counted})
    assert results[0] == results[1]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "setsum_2d16", "--seed", "1", "--seconds", "1",
                "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
