"""Detection of possibly overlapping audio events in continuous streams.

Per-class decision forests classify short analysis segments and regress
their position inside an event; leaf votes accumulate into onset and offset
score curves whose paired peaks become detections.

Import each name from its module (``eventforest.dataset``, ``.forest``, ...);
the package itself holds only the BLAS pinning below and ``__version__``.
"""

import os

# One BLAS thread, set before any submodule loads numpy: a threaded matrix
# product sums in another order, so feature rows (and everything downstream)
# would depend on the core count. An explicit setting is left alone.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
