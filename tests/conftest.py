"""Process defaults for the whole suite, set before any test module loads.

Forked pool workers run in this process in several tests.  OpenBLAS starts a
worker thread when numpy loads unless ``OPENBLAS_NUM_THREADS`` is 1, and a
test module that imports numpy before ``mnlbandit.cli`` would load it before
the CLI sets that default; forking beside a second thread risks a deadlock in
the child.  So the suite sets the CLI's default first, and a value already set
in the environment wins, as it does for the CLI.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
