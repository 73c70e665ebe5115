"""`python -m macrodml` and the installed `macrodml` script: the
command-line interface.

OpenBLAS reads OPENBLAS_NUM_THREADS when numpy is first imported, and under
its default threading that import starts worker threads that spin before
they sleep, about 0.1 CPU s a process. Estimation runs on one BLAS thread
anyway (`learners.one_blas_thread`), so the CLI asks for one thread before
`.cli` imports numpy, unless the caller set a count.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402 -- numpy must load after the setting

if __name__ == "__main__":
    sys.exit(main())
