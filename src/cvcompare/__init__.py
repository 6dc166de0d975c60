"""Compare learning algorithms from cross-validation score tables.

Frequentist baselines (correlated t-test, Wilcoxon signed-rank) and three
Bayesian tests (correlated t-test, Dirichlet-process sign/signed-rank,
hierarchical model across datasets) with rope-based decisions and
machine-readable report outputs.  Every name in a library module's
``__all__`` is importable from the package; that list is the only one.
"""

__version__ = "0.1.0"

from .bayes_ttest import *
from .data import *
from .decisions import *
from .dp import *
from .errors import *
from .frequentist import *
from .hierarchical import *
from .kernels import *
from .report import *
