"""Suite-wide set-up, run by pytest before any test module is imported.

BLAS is pinned to one thread, as in perfbench/run.py and
tools/trace_audit.py. OpenBLAS reads these variables once, when numpy is
first imported, so they must be set before that. With one BLAS thread per
process, the wall-clock bounds of the acceptance gates do not depend on
whether another process shares the cores.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Whether numpy was already loaded, by pytest or a plugin, when this file
# ran; the pin has no effect then, and a test in test_problems.py fails.
NUMPY_PRELOADED = "numpy" in sys.modules

for _var in THREAD_VARS:
    os.environ[_var] = "1"
