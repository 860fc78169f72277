"""One cold set-up, as a user's fresh process pays it.

    python3 perfbench/setup_probe.py N [TABLE ...]

Imports mshist, loads each kappa table with ``mshist.load_table`` and builds
the interval system for sample size N.  The caller times the whole process.
"""
import sys

import mshist
from mshist.intervals import interval_arrays

for path in sys.argv[2:]:
    mshist.load_table(path)
interval_arrays(int(sys.argv[1]))
