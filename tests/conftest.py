"""Run numpy's BLAS on one thread, as the benchmark does.

On a small shared host a multi-threaded BLAS makes the ED tests swing by
about a second from run to run.  numpy reads these variables when it is
first imported, which happens after pytest loads this file."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
