"""Compare learning algorithms from cross-validation score tables.

Frequentist baselines (correlated t-test, Wilcoxon signed-rank) and three
Bayesian tests (correlated t-test, Dirichlet-process sign/signed-rank,
hierarchical model across datasets) with rope-based decisions and
machine-readable report outputs.  Every name in a library module's
``__all__`` is importable from the package; that list is the only one.
"""

__version__ = "0.1.0"

import os

# OpenBLAS starts a pool of worker threads when numpy is imported.  No routine
# here gains from it (the largest products are a (10,000 x 3) @ (3 x 2) and
# 54-element dots), and the idle pool costs start-up time and CPU in every
# process.  So one thread, unless the caller chose otherwise; this must run
# before the first numpy import below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bayes_ttest import *
from .data import *
from .decisions import *
from .dp import *
from .errors import *
from .frequentist import *
from .hierarchical import *
from .kernels import *
from .report import *
