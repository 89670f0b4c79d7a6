import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

# the benchmark's modules import each other as top-level scripts
sys.path.insert(0, BENCH)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(1, os.path.join(ROOT, "src"))
