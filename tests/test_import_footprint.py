"""scipy loads only for Williams' p-value; importing and augmenting load none of it.

Each check runs in a fresh interpreter: the test process itself may already
hold scipy modules imported by other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import numpy as np

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import setsum, setsum.cli
stages["import"] = loaded()
image = np.random.default_rng(0).random((1, 8, 8))
rng = np.random.default_rng(1)
setsum.random_geometric_augment(image, setsum.AugmentationConfig(
    flip_axes=(0,), rotation_range_radians=0.0, translation_range_voxels=1), rng)
stages["unrotated"] = loaded()
setsum.random_geometric_augment(image, setsum.AugmentationConfig(
    rotation_range_radians=0.2, translation_range_voxels=2), rng)
stages["rotated"] = loaded()
volume = np.random.default_rng(2).random((1, 6, 6, 6))
setsum.random_geometric_augment(volume, setsum.AugmentationConfig(
    flip_axes=(0, 1, 2), rotation_range_radians=0.2, translation_range_voxels=2), rng)
stages["rotated_3d"] = loaded()
setsum.williams_test(0.6, 0.3, 0.4, 30)
stages["williams"] = loaded()
print(json.dumps(stages))
"""


def test_scipy_loads_at_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    stages = json.loads(out.stdout)
    assert stages["import"] == []
    assert stages["unrotated"] == []
    assert stages["rotated"] == []
    assert stages["rotated_3d"] == []
    assert "scipy.special" in stages["williams"]
    assert "scipy.stats" not in stages["williams"]
