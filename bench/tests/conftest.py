import os
import sys
from pathlib import Path

# the benchmark runs from the repository root and imports its modules
# from bench/
REPO = Path(__file__).resolve().parents[2]
os.chdir(REPO)
sys.path.insert(0, str(REPO / "bench"))
