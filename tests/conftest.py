"""One BLAS thread for the test run unless the caller says otherwise, as
the command line and the scripts do: timings taken beside another process
stay those of one thread.  Set before numpy loads."""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
