"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 7, the
learning-curve claim, has no test yet; the full-network finite-difference
check (criterion 1) takes most of the suite's runtime.
"""

import csv
import hashlib
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from setsum.augment import count_combinations
from setsum.autodiff import (Tensor, backpropagate, concat_channels, conv, fully_connected,
                             global_avg_pool, relu)
from setsum.cli import main
from setsum.data import SyntheticConfig, generate_dataset
from setsum.metrics import icc, williams_test
from setsum.regressor import (ArchitectureConfig, build_base_regressor, hydra_forward,
                              hydra_loss, hydra_loss_replicated, predict, _constants,
                              _forward)
from setsum.trainer import CurveJobResult, TrainConfig, train, write_aggregate_csv

from oracles import (correlation_triple, enumerate_combinations, finite_difference,
                     icc_two_way_table, relative_error, williams_t_direct)

DESK = ArchitectureConfig(input_shape=(1, 16, 16))


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS: {text}")


def _rerun_from(arch, params, outs, start):
    """The network output from the block outputs ``outs`` (``outs[0]`` the
    input batch, ``outs[k]`` block k's), rerunning block ``start`` and every
    later one on ``params``; earlier blocks and skip sources are read from
    ``outs``, and ``start`` past the last block reruns only GAP and fc.
    Returns the output and the block outputs with the rerun ones replaced.
    The ops are those of ``_forward`` without dropout, in its order."""
    outs = list(outs)
    for i in range(start, len(arch.conv_blocks) + 1):
        inp = outs[i - 1]
        for src, dst in arch.skip_connections:
            if dst == i:
                inp = concat_channels(inp, outs[src])
        outs[i] = relu(conv(inp, params[f"conv{i}.kernel"]))
    return fully_connected(global_avg_pool(outs[-1]), params["fc.weight"]), outs


def test_criterion_01_gradient_correctness():
    """Analytic gradients of the full desk-scale regressor match central
    finite differences (h=1e-5): relative error < 1e-4 for every parameter
    whose perturbation leaves all ReLU signs unchanged, < 1e-3 for the few
    whose finite-difference step lands on a kink.  A perturbed loss reruns
    only the blocks downstream of the perturbed parameter, and a sample of
    them equals a full forward bit for bit."""
    started = time.process_time()  # CPU time, which other processes cannot inflate
    model = build_base_regressor(replace(DESK, seed=1))
    arch = model.architecture
    image = np.random.default_rng(1001).uniform(0.1, 1.0, size=(1, 16, 16))
    label = 3.0
    h = 1e-5
    # constants sharing the parameter arrays: the same bits, no backward state
    params = _constants(model)
    nb = len(arch.conv_blocks)
    _, base_outs = _rerun_from(arch, params, [Tensor(image[None])] + [None] * nb, 1)

    def loss_and_signs(start: int) -> tuple[float, list]:
        # a block's output is positive exactly where its conv output is
        out, outs = _rerun_from(arch, params, base_outs, start)
        diff = out.item() - label
        return diff * diff, [t.data > 0.0 for t in outs[start:]]

    def full_loss() -> float:
        diff = _forward(arch, params, image[None]).item() - label
        return diff * diff

    analytic = backpropagate(hydra_loss(model, [image], label, "mse"))

    total = kinked = sampled = 0
    worst_clean = worst_kinked = 0.0
    for name, p in model.parameters.items():
        start = int(name[4:name.index(".")]) if name.startswith("conv") else nb + 1
        base_signs = [t.data > 0.0 for t in base_outs[start:]]
        flat = p.data.ravel()
        grad_flat = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus, signs_plus = loss_and_signs(start)
            if i % 61 == 0:
                assert f_plus == full_loss(), f"{name}[{i}]: partial rerun differs"
                sampled += 1
            flat[i] = orig - h
            f_minus, signs_minus = loss_and_signs(start)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = float(relative_error(np.array([grad_flat[i]]), np.array([numeric]))[0])
            crossed = any(not np.array_equal(a, b) or not np.array_equal(a, c)
                          for a, b, c in zip(base_signs, signs_plus, signs_minus))
            total += 1
            if crossed:
                kinked += 1
                worst_kinked = max(worst_kinked, err)
                assert err < 1e-3, f"{name}[{i}] (kink): relative error {err:.2e}"
            else:
                worst_clean = max(worst_clean, err)
                assert err < 1e-4, f"{name}[{i}]: relative error {err:.2e}"
    elapsed = time.process_time() - started
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s"
    report(1, f"{total} parameter gradients match finite differences "
              f"({total - kinked} kink-free at 1e-4, worst {worst_clean:.2e}; "
              f"{kinked} across kinks at 1e-3, worst {worst_kinked:.2e}; "
              f"{sampled} partial reruns equal full forwards; {elapsed:.0f}s)")


def test_criterion_02_grouped_equals_replicated():
    """Grouped-loss and explicitly replicated-branch graphs agree on losses
    and per-parameter gradients to 1e-10 over 100 random sets with n=4."""
    started = time.process_time()  # CPU time, which other processes cannot inflate
    arch = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                              skip_connections=((1, 2),), seed=11)
    model = build_base_regressor(arch)
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        images = [rng.uniform(size=(1, 8, 8)) if rng.random() > 0.2 else None
                  for _ in range(4)]
        label = float(rng.uniform(0, 12))
        kind = "mse" if i % 2 == 0 else "mae"
        node = hydra_loss(model, images, label, kind)
        grads = backpropagate(node)
        ref_loss, ref_grads = hydra_loss_replicated(model, images, label, kind)
        assert abs(node.item() - ref_loss) <= 1e-10
        for name in grads:
            diff = float(np.abs(grads[name] - ref_grads[name]).max())
            worst = max(worst, diff)
            assert diff <= 1e-10, f"set {i}, parameter {name}: |diff| {diff:.2e}"
    elapsed = time.process_time() - started
    assert elapsed < 60.0, f"equivalence check took {elapsed:.0f}s"
    report(2, f"100 sets, losses and gradients within 1e-10 "
              f"(worst {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_03_black_image_identity():
    """The network has no additive terms, so the black image predicts
    exactly 0 and black padding leaves a single image's prediction unchanged
    within 1e-12."""
    model = build_base_regressor(replace(DESK, seed=3))
    black = model.black_image()
    assert predict(model, black) == 0.0
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        image = rng.uniform(size=(1, 16, 16))
        single = predict(model, image)
        padded = hydra_forward(model, [image, None, None, None])
        worst = max(worst, abs(padded - single))
        assert abs(padded - single) <= 1e-12
    report(3, f"predict(black) == 0 exactly; padded-set identity within 1e-12 "
              f"on 100 images (worst {worst:.2e})")


def test_criterion_04_grouped_loss_not_minibatch_sgd():
    """Summed per-sample losses and the grouped loss differ: the worked
    example gives 2 vs 0, and random sets differ generically."""
    # the worked example through the actual loss graph: an identity model
    # turns inputs 1 and 2 into predictions 1 and 2
    arch = ArchitectureConfig(input_shape=(1, 1, 1), conv_blocks=((1, 1),),
                              skip_connections=(), seed=0)
    model = build_base_regressor(arch)
    model.parameters["conv1.kernel"].data = np.ones((1, 1, 1, 1))
    model.parameters["fc.weight"].data = np.ones((1, 1))
    img = lambda v: np.full((1, 1, 1), float(v))
    per_sample = (hydra_loss(model, [img(1)], 2.0).item()
                  + hydra_loss(model, [img(2)], 1.0).item())
    grouped = hydra_loss(model, [img(1), img(2)], 3.0).item()
    assert per_sample == 2.0
    assert grouped == 0.0

    rng = np.random.default_rng(4)
    differing = 0
    for _ in range(200):
        preds = rng.uniform(0, 5, size=4)
        labels = rng.uniform(0, 5, size=4)
        summed = float(np.sum((preds - labels) ** 2))
        grouped_v = float((preds.sum() - labels.sum()) ** 2)
        if abs(summed - grouped_v) > 1e-9:
            differing += 1
    assert differing == 200
    report(4, "worked example gives per-sample 2 vs grouped 0; "
              "losses differed on 200/200 random sets")


def test_criterion_05_combination_counts():
    """count_combinations matches exhaustive enumeration and is exact."""
    assert count_combinations(4, 2) == 10 == enumerate_combinations(4, 2)
    assert count_combinations(25, 4) == 15275 == enumerate_combinations(25, 4)
    assert isinstance(count_combinations(25, 4), int)
    big = count_combinations(1000, 500)
    assert big.bit_length() > 900  # far beyond float64, stays exact
    report(5, "count_combinations(4,2)=10 and count_combinations(25,4)=15275 "
              "confirmed by enumeration; big-integer exactness holds")


def test_criterion_06_reduction_to_plain_training(tmp_path):
    """setsum with n=1, p=0 and baseline with b=1 produce identical parameter
    trajectories within 1e-10 over 20 epochs on 12 images."""
    synth = SyntheticConfig(image_extent=(8, 8), blob_count_range=(0, 4),
                            blob_sigma_range=(0.45, 0.7), seed=61)
    manifest = generate_dataset(tmp_path, synth, 12, 3, 3, rescale=False)
    arch = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((3, 3), (4, 3)),
                              skip_connections=((1, 2),), seed=6)
    cfg_set = TrainConfig(epochs=20, method="setsum", n=1, p=0.0, batch_size=1)
    cfg_base = TrainConfig(epochs=20, method="baseline", n=1, batch_size=1)
    model_a, hist_a = train(build_base_regressor(arch), manifest, cfg_set,
                            np.random.default_rng(66))
    model_b, hist_b = train(build_base_regressor(arch), manifest, cfg_base,
                            np.random.default_rng(66))
    npt.assert_allclose(hist_a.train_loss, hist_b.train_loss, atol=1e-10)
    npt.assert_allclose(hist_a.val_mse, hist_b.val_mse, atol=1e-10)
    worst = 0.0
    for name in model_a.parameters:
        diff = float(np.abs(model_a.parameters[name].data
                            - model_b.parameters[name].data).max())
        worst = max(worst, diff)
        assert diff <= 1e-10
    report(6, f"20-epoch trajectories identical within 1e-10 (worst parameter "
              f"difference {worst:.2e})")


def test_criterion_08_icc_oracle():
    """ICC matches an independent ANOVA-table implementation on 50 random
    series within 1e-10; perfect agreement gives exactly 1; shifts stay
    below 1."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        truth = rng.normal(scale=rng.uniform(0.5, 5.0), size=n)
        pred = truth + rng.normal(scale=rng.uniform(0.1, 2.0), size=n) + rng.uniform(-1, 1)
        got = icc(truth, pred)
        want = icc_two_way_table(truth, pred)
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=1e-10)
    series = np.arange(1.0, 9.0)
    assert icc(series, series.copy()) == 1.0
    shifted = icc(series, series + 2.0)
    assert shifted is not None and shifted < 1.0
    report(8, f"50 random series match the ANOVA-table oracle within 1e-10 "
              f"(worst {worst:.2e}); perfect agreement = 1.0 exactly; "
              f"shift strictly < 1")


def test_criterion_09_williams_test():
    """The null case is exact and 20 random tuples match the pinned formula
    within 1e-10."""
    assert williams_test(0.4, 0.4, 0.2, 30) == (0.0, 1.0)
    rng = np.random.default_rng(9)
    checked = 0
    worst = 0.0
    while checked < 20:
        r12, r13, r23 = correlation_triple(rng)
        n = int(rng.integers(10, 500))
        result = williams_test(r12, r13, r23, n)
        if result is None or r12 == r13:
            continue
        t, p = result
        want = williams_t_direct(r12, r13, r23, n)
        worst = max(worst, abs(t - want))
        assert t == pytest.approx(want, abs=1e-10)
        assert 0.0 <= p <= 1.0
        checked += 1
    report(9, f"null case exact; 20 random tuples match the direct formula "
              f"within 1e-10 (worst {worst:.2e})")


def _curve_config(tmp_path: Path) -> Path:
    text = "\n".join([
        f"output_dir={tmp_path / 'out'}",
        "seed=17",
        "data.image_extent=8,8",
        "data.blob_count_range=0,4",
        "data.blob_sigma_range=0.45,0.7",
        "data.rescale=false",
        "data.num_train=8",
        "data.num_val=2",
        "data.num_test=5",
        "arch.conv_blocks=3:3,4:3",
        "arch.skip_connections=1:2",
        "train.n=2",
        "train.epochs=2",
        "curve.sizes=4,6",
        "curve.methods=setsum,baseline",
        "curve.num_seeds=2",
    ]) + "\n"
    path = tmp_path / "curve.cfg"
    path.write_text(text)
    return path


def test_criterion_10_end_to_end_determinism(tmp_path):
    """Two cmd_curve runs with the same master seed, one serial and one with
    four workers, emit byte-identical CSVs, and the aggregate CSV is rebuilt
    byte for byte from the parsed job CSV alone."""
    cfg = _curve_config(tmp_path)
    assert main(["generate", str(cfg)]) == 0
    out = tmp_path / "out" / "curve"

    def digest_all() -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.glob("*.csv"))}

    assert main(["curve", str(cfg), "--jobs", "1"]) == 0
    serial = digest_all()
    assert main(["curve", str(cfg), "--jobs", "4"]) == 0
    parallel = digest_all()
    assert serial == parallel
    assert set(serial) == {"curve_jobs.csv", "curve_aggregate.csv"}
    assert main(["curve", str(cfg), "--jobs", "1"]) == 0
    assert digest_all() == serial
    # the aggregate is a function of the job rows alone
    with open(out / "curve_jobs.csv", newline="") as fh:
        rows = [CurveJobResult(int(r["size"]), r["method"], int(r["seed"]),
                               float(r["test_mse"]),
                               None if r["test_icc"] == "NA" else float(r["test_icc"]))
                for r in csv.DictReader(fh)]
    write_aggregate_csv(tmp_path / "rebuilt.csv", rows)
    assert (tmp_path / "rebuilt.csv").read_bytes() == (out / "curve_aggregate.csv").read_bytes()
    report(10, "cmd_curve CSVs byte-identical across reruns and --jobs 1 vs 4; "
               "aggregate rebuilt from the job rows alone")
