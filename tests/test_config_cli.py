import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from setsum.augment import AugmentationConfig
from setsum.cli import main
from setsum.config import ConfigError, config_text, parse_config_file, parse_config_text
from setsum.data import read_manifest, write_tensor
from setsum.regressor import ArchitectureConfig, build_base_regressor, save_model

BASE = """
# tiny end-to-end configuration
output_dir={out}
seed=5
data.image_extent=8,8
data.blob_count_range=0,3
data.blob_sigma_range=0.45,0.7
data.num_train=8
data.num_val=2
data.num_test=4
arch.conv_blocks=3:3,4:3
arch.skip_connections=1:2
augment.rotation_range=0.0
augment.translation_range=1
train.epochs=3
train.n=2
train.p=0.1
curve.sizes=4,6
curve.methods=setsum,baseline
curve.num_seeds=2
"""


def write_config(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(BASE.format(out=tmp_path / "out") + extra)
    return path


def write_config_with(tmp_path: Path, line: str) -> Path:
    """BASE with ``line`` in place of any line setting the same key."""
    path = write_config(tmp_path)
    key = line.partition("=")[0]
    kept = [x for x in path.read_text().splitlines() if not x.startswith(key + "=")]
    path.write_text("\n".join(kept + [line]) + "\n")
    return path


_FLOAT_KEYS = ("data.noise_sigma", "data.volume_threshold", "arch.dropout_rate",
               "augment.rotation_range", "train.p")
_FLOAT_PAIR_KEYS = ("data.blob_sigma_range", "data.intensity_range")
_NON_FINITE = ("nan", "inf", "-inf")


class TestParsing:
    def test_defaults_and_overrides(self, tmp_path):
        config = parse_config_file(write_config(tmp_path))
        assert config.seed == 5
        assert config.values["data.num_test"] == 4
        assert config.values["data.noise_sigma"] == 0.05  # default
        assert config.values["train.loss"] == "mse"
        assert config.architecture(model_seed=0).input_shape == (1, 8, 8)

    @pytest.mark.parametrize("line", ["data.imag_extent=8,8", "arch.seed=3",
                                      "arch.zero_bias=false", "curve.epochs=2"])
    def test_unknown_key_with_line_number(self, line):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config_text(f"output_dir=o\n{line}\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("output_dir=o\nseed=1\nseed=2\ndata.image_extent=8,8\n")

    def test_bad_value_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3.*train.epochs"):
            parse_config_text("output_dir=o\ndata.image_extent=8,8\ntrain.epochs=soon\n")

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="data.image_extent"):
            parse_config_text("output_dir=o\n")

    def test_setsum_batch_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="ties batch size"):
            parse_config_text("output_dir=o\ndata.image_extent=8,8\n"
                              "train.n=4\ntrain.batch_size=2\n")

    @pytest.mark.parametrize("line, message", [
        ("data.label_kind=area", r"data.label_kind must be one of \('count', 'volume'\)"),
        ("train.loss=huber", r"train: loss_kind must be one of \('mse', 'mae'\), got 'huber'")],
        ids=["label_kind", "loss"])
    def test_unknown_kind_names_allowed_values(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"output_dir=o\ndata.image_extent=8,8\n{line}\n")

    @pytest.mark.parametrize("key, value", [
        (key, bad) for key in _FLOAT_KEYS for bad in _NON_FINITE] + [
        (key, value) for key in _FLOAT_PAIR_KEYS for bad in _NON_FINITE
        for value in (f"{bad},1.0", f"0.5,{bad}")])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"line 3: bad value for {re.escape(key)}: "
                                              r"expected a finite number"):
            parse_config_text(f"output_dir=o\ndata.image_extent=8,8\n{key}={value}\n")

    def test_seed_override(self, tmp_path):
        config = parse_config_file(write_config(tmp_path), seed_override=99)
        assert config.seed == 99

    def test_echo_closure(self, tmp_path):
        config = parse_config_file(write_config(tmp_path))
        echo = config_text(config)
        again = parse_config_text(echo)
        assert again == config
        assert config_text(again) == echo

    def test_derived_train_config(self, tmp_path):
        config = parse_config_file(write_config(tmp_path))
        tc = config.train_config()
        assert tc.method == "setsum" and tc.n == 2 and tc.batch_size == 2
        assert tc.augmentation != AugmentationConfig()
        assert tc.augmentation.flip_axes == (0, 1)
        baseline = parse_config_file(write_config(tmp_path, "train.method=baseline\n"))
        assert baseline.train_config().batch_size == 4

    def test_augment_disabled(self, tmp_path):
        config = parse_config_file(write_config(tmp_path, "augment.enabled=false\n"))
        assert config.train_config().augmentation == AugmentationConfig()

    def test_readme_configs_parse(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert blocks
        for block in blocks:
            text = re.sub(r"^output_dir=.*$", lambda _: f"output_dir={tmp_path}", block,
                          flags=re.M)
            assert parse_config_text(text)["output_dir"] == str(tmp_path)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCli:
    def test_generate_writes_manifest_and_echo(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        out = tmp_path / "out"
        manifest = read_manifest(out / "dataset" / "manifest.csv")
        assert len(manifest.records) == 14
        assert "generated 14 records" in capsys.readouterr().out
        assert (out / "config_resolved.cfg").is_file()

    def test_generate_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        first = {p.relative_to(tmp_path): _digest(p)
                 for p in (tmp_path / "out" / "dataset").rglob("*") if p.is_file()}
        assert main(["generate", str(cfg)]) == 0
        second = {p.relative_to(tmp_path): _digest(p)
                  for p in (tmp_path / "out" / "dataset").rglob("*") if p.is_file()}
        assert first == second

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("output_dir=out\n")
        assert main(["generate", str(bad)]) == 2
        assert "data.image_extent" in capsys.readouterr().err

    def test_unparseable_config_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("output_dir=out\ndata.image_extent=8,8\nwhat is this\n")
        assert main(["generate", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_train_then_eval_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        assert main(["train", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "train" / "model.ssrm").is_file()
        history = (out / "train" / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,train_loss,val_mse"
        assert len(history) == 1 + 3  # epochs
        assert main(["eval", str(cfg)]) == 0
        predictions = (out / "eval" / "predictions.csv").read_text().strip().splitlines()
        assert predictions[0] == "path,truth,prediction"
        assert len(predictions) == 1 + 4  # test records
        metrics_lines = (out / "eval" / "metrics.csv").read_text().strip().splitlines()
        assert metrics_lines[0] == "mse,mae,icc,n"

    def test_mixup_with_batch_of_one_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "train.method=mixup\ntrain.batch_size=1\n")
        assert main(["generate", str(cfg)]) == 2
        assert main(["train", str(cfg)]) == 2
        assert "mixup needs batch_size >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train").exists()

    def test_mixup_with_one_training_image_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE.format(out=tmp_path / "out").replace("data.num_train=8",
                                                                  "data.num_train=1")
                       + "train.method=mixup\ntrain.batch_size=2\n")
        assert main(["generate", str(cfg)]) == 0
        assert main(["train", str(cfg)]) == 2
        assert "at least 2 training images" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "train", "eval", "curve"])
    @pytest.mark.parametrize("line, message", [
        ("data.blob_count_range=3,1", "data: blob_count_range has min > max"),
        ("arch.dropout_rate=1.5", "arch: dropout_rate must be in [0, 1), got 1.5"),
        ("augment.translation_range=-1", "augment: translation range must be non-negative"),
        ("augment.translation_range=-1\naugment.enabled=false",
         "augment: translation range must be non-negative"),
        ("train.p=2", "train: p must be in [0, 1], got 2.0"),
        ("arch.conv_blocks=3:3,4:2", "arch: conv block 2 has invalid (maps, kernel) = (4, 2)"),
        ("data.crop_extent=10,10", "data.crop_extent (10, 10) must lie between 1 and "
                                   "data.image_extent (8, 8) on each axis"),
        ("curve.methods=setsum,magic", "curve: method must be one of"),
        ("data.num_train=-1", "data.num_train must be non-negative, got -1"),
        ("data.num_val=-2", "data.num_val must be non-negative, got -2"),
        ("data.num_test=-3", "data.num_test must be non-negative, got -3"),
        ("data.blob_sigma_range=2.0,2.0", "data: image extent (8, 8) too small for blobs of "
                                          "sigma up to 2.0 (needs > 4x sigma)")],
        ids=["data", "arch", "augment", "augment-disabled", "train", "even-kernel", "crop",
             "curve-method", "num-train", "num-val", "num-test", "sigma"])
    def test_bad_value_exits_2_before_writing(self, tmp_path, capsys, command, line, message):
        cfg = write_config_with(tmp_path, line)
        assert main([command, str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed_line, flag", [("seed=-1", []), ("seed=5", ["--seed", "-1"])],
                             ids=["key", "flag"])
    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys, seed_line, flag):
        cfg = write_config_with(tmp_path, seed_line)
        assert main(["generate", str(cfg), *flag]) == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_without_manifest_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", str(cfg)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_failed_generate_leaves_no_manifest(self, tmp_path, capsys):
        # the failed run overwrites the first images before it gives up, so
        # the earlier manifest must not survive to describe them
        cfg = write_config_with(tmp_path, "data.image_extent=16,16")
        assert main(["generate", str(cfg)]) == 0
        dataset = tmp_path / "out" / "dataset"
        first = _digest(dataset / "images" / "rec_00001.sstf")
        failing = tmp_path / "failing.cfg"
        failing.write_text(cfg.read_text().replace("data.blob_count_range=0,3",
                                                   "data.blob_count_range=0,40"))
        assert main(["generate", str(failing)]) == 2
        assert "could not place" in capsys.readouterr().err
        assert _digest(dataset / "images" / "rec_00001.sstf") != first
        assert not (dataset / "manifest.csv").exists()
        assert main(["train", str(cfg)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_failed_command_keeps_config_echo(self, tmp_path, capsys):
        cfg = write_config_with(tmp_path, "train.epochs=1")
        assert main(["generate", str(cfg)]) == 0
        assert main(["train", str(cfg)]) == 0
        failing = write_config_with(tmp_path, "train.epochs=7")
        assert main(["eval", str(failing), "--model", "/nonexistent.ssrm"]) == 2
        assert "model not found" in capsys.readouterr().err
        echo = (tmp_path / "out" / "config_resolved.cfg").read_text().splitlines()
        assert "train.epochs=1" in echo

    def test_eval_of_one_test_record_exits_2_before_writing(self, tmp_path, capsys):
        cfg = write_config_with(tmp_path, "data.num_test=1")
        assert main(["generate", str(cfg)]) == 0
        assert main(["train", str(cfg)]) == 0
        echo_path = tmp_path / "out" / "config_resolved.cfg"
        echo = echo_path.read_bytes()
        failing = tmp_path / "failing.cfg"
        failing.write_text(cfg.read_text().replace("train.epochs=3", "train.epochs=7"))
        assert main(["eval", str(failing)]) == 2
        assert "paired series needs at least 2 entries" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval").exists()
        assert echo_path.read_bytes() == echo

    def test_manifest_path_outside_its_directory_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        manifest = tmp_path / "out" / "dataset" / "manifest.csv"
        manifest.parent.mkdir(parents=True)
        manifest.write_text("path,count_label,volume_label,split\n../secret.sstf,1,1,train\n")
        assert main(["train", str(cfg)]) == 2
        assert "manifest.csv:2: path '../secret.sstf' names no file inside" in capsys.readouterr().err

    def test_manifest_from_another_output_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        for command in ("generate", "train", "eval"):
            assert main([command, str(cfg)]) == 0
        other = tmp_path / "other.cfg"
        manifest = tmp_path / "out" / "dataset" / "manifest.csv"
        other.write_text(BASE.format(out=tmp_path / "other") + f"data.manifest={manifest}\n")
        assert main(["train", str(other)]) == 0
        assert main(["eval", str(other)]) == 0
        assert not (tmp_path / "other" / "dataset").exists()
        for rel in ("train/model.ssrm", "eval/predictions.csv", "eval/metrics.csv"):
            assert _digest(tmp_path / "other" / rel) == _digest(tmp_path / "out" / rel)

    def test_resume_with_corrupt_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        corrupt = tmp_path / "corrupt.ssrm"
        corrupt.write_bytes(b"XXXXX" + bytes(64))
        cfg2 = write_config(tmp_path, f"train.init_model={corrupt}\n")
        assert main(["train", str(cfg2)]) == 2
        assert "SSRM1" in capsys.readouterr().err

    def test_resume_under_same_architecture(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        saved = tmp_path / "saved.ssrm"
        save_model(build_base_regressor(parse_config_file(cfg).architecture(model_seed=9)),
                   saved)
        assert main(["train", str(write_config(tmp_path, f"train.init_model={saved}\n"))]) == 0
        assert (tmp_path / "out" / "train" / "model.ssrm").is_file()

    def test_resume_under_different_architecture_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        saved = tmp_path / "saved.ssrm"
        save_model(build_base_regressor(parse_config_file(cfg).architecture(model_seed=9)),
                   saved)
        cfg.write_text(BASE.format(out=tmp_path / "out").replace("arch.conv_blocks=3:3,4:3",
                                                                 "arch.conv_blocks=3:3,5:3")
                       + f"train.init_model={saved}\n")
        assert main(["train", str(cfg)]) == 2
        assert ("conv_blocks (saved ((3, 3), (4, 3)), config ((3, 3), (5, 3)))"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "train").exists()

    def test_eval_perfect_model_reports_icc_one(self, tmp_path):
        # hand-made dataset whose labels are exactly recoverable: uniform
        # images with value label/64, and a model computing 64 * mean(x)
        out = tmp_path / "out"
        (out / "dataset" / "images").mkdir(parents=True)
        rows = ["path,count_label,volume_label,split"]
        for i, label in enumerate([0, 1, 2, 3, 5]):
            rel = f"images/rec_{i}.sstf"
            write_tensor(out / "dataset" / rel, np.full((1, 8, 8), label / 64.0))
            rows.append(f"{rel},{label},{label},test")
        (out / "dataset" / "manifest.csv").write_text("\n".join(rows) + "\n")
        arch = ArchitectureConfig(input_shape=(1, 8, 8), conv_blocks=((1, 1),),
                                  skip_connections=(), seed=0)
        model = build_base_regressor(arch)
        model.parameters["conv1.kernel"].data = np.ones((1, 1, 1, 1))
        model.parameters["fc.weight"].data = np.full((1, 1), 64.0)
        model_path = tmp_path / "perfect.ssrm"
        save_model(model, model_path)
        cfg = write_config(tmp_path)
        assert main(["eval", str(cfg), "--model", str(model_path)]) == 0
        metrics_lines = (out / "eval" / "metrics.csv").read_text().strip().splitlines()
        mse_s, mae_s, icc_s, n_s = metrics_lines[1].split(",")
        assert float(mse_s) == 0.0
        assert icc_s == "1.0"
        assert n_s == "5"

    def test_eval_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["generate", str(cfg)])
        main(["train", str(cfg)])
        assert main(["eval", str(cfg)]) == 0
        first = _digest(tmp_path / "out" / "eval" / "predictions.csv")
        assert main(["eval", str(cfg)]) == 0
        assert _digest(tmp_path / "out" / "eval" / "predictions.csv") == first

    def test_missing_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        main(["generate", str(cfg)])
        assert main(["eval", str(cfg)]) == 2
        assert "model not found" in capsys.readouterr().err

    def test_curve_rows_and_determinism(self, tmp_path):
        cfg = write_config_with(tmp_path, "train.epochs=2")
        assert main(["generate", str(cfg)]) == 0
        assert main(["curve", str(cfg)]) == 0
        out = tmp_path / "out" / "curve"
        jobs = (out / "curve_jobs.csv").read_text().strip().splitlines()
        agg = (out / "curve_aggregate.csv").read_text().strip().splitlines()
        assert len(jobs) == 1 + 2 * 2 * 2  # sizes x methods x seeds
        assert len(agg) == 1 + 2 * 2
        first = (_digest(out / "curve_jobs.csv"), _digest(out / "curve_aggregate.csv"))
        assert main(["curve", str(cfg)]) == 0
        second = (_digest(out / "curve_jobs.csv"), _digest(out / "curve_aggregate.csv"))
        assert first == second

    @pytest.mark.parametrize("key, repeated", [("curve.sizes=4,6", "curve.sizes=4,4"),
                                               ("curve.methods=setsum,baseline",
                                                "curve.methods=setsum,setsum"),
                                               ("curve.sizes=4,6", "curve.sizes="),
                                               ("curve.methods=setsum,baseline",
                                                "curve.methods=")])
    def test_curve_repeated_grid_values_exit_2(self, tmp_path, capsys, key, repeated):
        # a repeated value, or no value at all
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace(key, repeated))
        assert main(["curve", str(cfg)]) == 2
        name = key.split("=")[0].split(".")[1]
        problem = "must not be empty" if repeated.endswith("=") else "must not repeat"
        assert f"learning-curve {name} {problem}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curve").exists()

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_curve_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        assert main(["curve", str(cfg), "--jobs", jobs]) == 2
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curve").exists()

    def test_curve_single_test_record_exit_2_before_any_job(self, tmp_path, capsys,
                                                          monkeypatch):
        cfg = write_config_with(tmp_path, "data.num_test=1")
        assert main(["generate", str(cfg)]) == 0
        trained = []
        monkeypatch.setattr("setsum.trainer.train", lambda *a, **k: trained.append(a))
        assert main(["curve", str(cfg)]) == 2
        assert "learning curve needs at least 2 test records, got 1" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out" / "curve").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        d1 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00001.sstf")
        assert main(["generate", str(cfg), "--seed", "123"]) == 0
        d2 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00001.sstf")
        assert d1 != d2
        echo = (tmp_path / "out" / "config_resolved.cfg").read_text()
        assert "seed=123" in echo

    def test_echo_feeds_back_identically(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        echo_path = tmp_path / "out" / "config_resolved.cfg"
        d1 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00001.sstf")
        assert main(["generate", str(echo_path)]) == 0
        assert _digest(tmp_path / "out" / "dataset" / "images" / "rec_00001.sstf") == d1
