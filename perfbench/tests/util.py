"""Test helpers: puts the harness package on sys.path."""

import os
import sys

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)
