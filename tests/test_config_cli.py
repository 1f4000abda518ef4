import hashlib
from pathlib import Path

import numpy as np
import pytest

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
curve.epochs=2
"""


def write_config(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(BASE.format(out=tmp_path / "out") + extra)
    return path


class TestParsing:
    def test_defaults_and_overrides(self, tmp_path):
        config = parse_config_file(write_config(tmp_path))
        assert config.seed == 5
        assert config.values["data.num_test"] == 4
        assert config.values["data.noise_sigma"] == 0.05  # default
        assert config.values["train.loss"] == "mse"
        assert config.input_shape == (1, 8, 8)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key"):
            parse_config_text("output_dir=o\ndata.imag_extent=8,8\n")

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
        assert tc.augmentation is not None
        assert tc.augmentation.flip_axes == (0, 1)
        baseline = parse_config_file(write_config(tmp_path, "train.method=baseline\n"))
        assert baseline.train_config().batch_size == 4

    def test_augment_disabled(self, tmp_path):
        config = parse_config_file(write_config(tmp_path, "augment.enabled=false\n"))
        assert config.augmentation() is None
        assert config.train_config().augmentation is None


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
        assert history[0] == "epoch,train_loss,val_mse,seconds"
        assert len(history) == 1 + 3  # epochs
        assert main(["eval", str(cfg)]) == 0
        predictions = (out / "eval" / "predictions.csv").read_text().strip().splitlines()
        assert predictions[0] == "path,truth,prediction"
        assert len(predictions) == 1 + 4  # test records
        metrics_lines = (out / "eval" / "metrics.csv").read_text().strip().splitlines()
        assert metrics_lines[0] == "mse,mae,icc,n"

    def test_train_without_manifest_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", str(cfg)]) == 2
        assert "manifest not found" in capsys.readouterr().err

    def test_resume_with_corrupt_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        corrupt = tmp_path / "corrupt.ssrm"
        corrupt.write_bytes(b"XXXXX" + bytes(64))
        cfg2 = write_config(tmp_path, f"train.init_model={corrupt}\n")
        assert main(["train", str(cfg2)]) == 2
        assert "SSRM1" in capsys.readouterr().err

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
        cfg = write_config(tmp_path)
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
                                                "curve.methods=setsum,setsum")])
    def test_curve_repeated_grid_values_exit_2(self, tmp_path, capsys, key, repeated):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace(key, repeated))
        assert main(["curve", str(cfg)]) == 2
        assert "must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "out" / "curve").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        d1 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00000.sstf")
        assert main(["generate", str(cfg), "--seed", "123"]) == 0
        d2 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00000.sstf")
        assert d1 != d2
        echo = (tmp_path / "out" / "config_resolved.cfg").read_text()
        assert "seed=123" in echo

    def test_echo_feeds_back_identically(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["generate", str(cfg)]) == 0
        echo_path = tmp_path / "out" / "config_resolved.cfg"
        d1 = _digest(tmp_path / "out" / "dataset" / "images" / "rec_00000.sstf")
        assert main(["generate", str(echo_path)]) == 0
        assert _digest(tmp_path / "out" / "dataset" / "images" / "rec_00000.sstf") == d1
