"""Hash every artifact of a fixed matrix of tiny runs, to compare two checkouts.

Each config of the matrix goes through ``setsum generate``, ``train``,
``eval``, ``curve --jobs 1`` and ``curve --jobs 2``, each in a fresh
``python -m setsum`` process.  After each command the script prints one
``<sha256>  <config>/<step>/<file>`` line per file that the command wrote
(its output directory, the config echo) and one for its stdout.  stderr,
which holds wall times, is left out, and so is the ``output_dir`` line of
the config echo.  Outputs go to a temporary directory and are deleted.

Usage::

    python tools/artifacts.py > change.txt
    python tools/artifacts.py --src /path/to/parent/src > parent.txt
    diff parent.txt change.txt

Hashes depend on the machine and on BLAS, so compare two runs made on one
machine; they are not golden values.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the tiny end-to-end config that tests/test_config_cli.py also runs
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

_ALL_METHODS = "curve.methods=setsum,baseline,mixup\n"

# config name -> lines that replace BASE's lines for the same keys
MATRIX = {
    "base": "",
    "setsum": "train.n=3\ntrain.p=0.2\naugment.rotation_range=0.2\n" + _ALL_METHODS,
    "baseline": ("train.method=baseline\ntrain.batch_size=3\narch.dropout_rate=0.2\n"
                 "train.loss=mae\n" + _ALL_METHODS),
    "mixup": ("train.method=mixup\ntrain.batch_size=3\ndata.crop_extent=6,6\n"
              "arch.dropout_rate=0.1\n" + _ALL_METHODS),
    "setsum3d": ("data.dims=3\ndata.image_extent=8,8,8\ndata.label_kind=volume\n"
                 + _ALL_METHODS),
}

STEPS = (("generate", "dataset", []), ("train", "train", []), ("eval", "eval", []),
         ("curve-j1", "curve", ["--jobs", "1"]), ("curve-j2", "curve", ["--jobs", "2"]))


def with_lines(text: str, lines: list[str]) -> str:
    """``text`` with ``lines`` in place of its lines that set the same keys."""
    keys = {line.partition("=")[0] for line in lines}
    kept = [line for line in text.splitlines() if line.partition("=")[0] not in keys]
    return "\n".join(kept + lines) + "\n"


def config_text(name: str) -> str:
    """BASE with the matrix entry's lines in place of BASE's lines for their keys."""
    return with_lines(BASE.format(out=f"out/{name}"), MATRIX[name].splitlines())


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_config(name: str, src: Path, work: Path):
    """Run ``name`` through every step; yield ``(digest, label)`` per artifact."""
    cfg = work / f"{name}.cfg"
    cfg.write_text(config_text(name))
    out = work / "out" / name
    env = dict(os.environ, PYTHONPATH=str(src))
    for step, directory, flags in STEPS:
        command = step.partition("-")[0]
        run = subprocess.run([sys.executable, "-m", "setsum", command, cfg.name, *flags],
                             cwd=work, env=env, capture_output=True)
        if run.returncode != 0:
            raise RuntimeError(f"{name}: setsum {command} exited {run.returncode}:\n"
                               f"{run.stderr.decode(errors='replace')}")
        yield _digest(run.stdout), f"{name}/{step}/stdout"
        echo = (out / "config_resolved.cfg").read_bytes().splitlines(keepends=True)
        yield (_digest(b"".join(x for x in echo if not x.startswith(b"output_dir="))),
               f"{name}/{step}/config_resolved.cfg")
        for path in sorted((out / directory).rglob("*")):
            if path.is_file():
                yield _digest(path.read_bytes()), f"{name}/{step}/{path.relative_to(out)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="the src/ directory of the checkout to run (default: this one's)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in MATRIX:
            for digest, label in hash_config(name, args.src.resolve(), Path(tmp)):
                print(f"{digest}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
