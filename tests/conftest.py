import sys
from pathlib import Path

# make tests/oracles.py and tools/artifacts.py importable regardless of how
# pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parents[1] / "tools"))
