"""Rate modeling for all-optical repeater chains built on GKP qubits.

The package is organized around pure analytic modules plus a Monte Carlo
cross-validation layer:

* :mod:`gkp_repeater.noise_core` -- finite-squeezing error model, the added
  noise of each loss + amplification strategy, unit conversions.
* :mod:`gkp_repeater.hrm` -- postselected homodyne binning statistics.
* :mod:`gkp_repeater.protocols` -- the variance table of the bare-GKP
  protocol variants, chain errors, and secure key rates.
* :mod:`gkp_repeater.tree_code` -- tree-cluster-encoded two-way protocol with
  postselected and path-selection decoding, plus resource counts.
* :mod:`gkp_repeater.mc_oracle` -- displacement-level Monte Carlo estimators
  that cross-check the analytic probabilities; the one module that imports
  numpy.
* :mod:`gkp_repeater.cli` -- command-line front end (``gkp-repeater``).

``tree_code`` and ``mc_oracle`` load on first use, so a command that never
touches them (``plob``, a bare-variant ``rate`` or ``sweep``) pays for
neither, and only ``mc-validate`` loads numpy. Importing the package puts
both in ``sys.modules`` through :class:`importlib.util.LazyLoader`, and
their code is compiled and run only at the first attribute access.
Function-local imports would defer them too, but the benchmark's tracer
(``bench/tracer.py``) reads every layer module from ``sys.modules`` right
after ``import gkp_repeater.cli``. The first attribute access must stay on
one thread: before Python 3.12.3 LazyLoader takes no lock around the load.
``__all__`` holds the analytic core; the tree and Monte Carlo names are
imported from their own modules.
"""

import importlib.util
import sys

from .hrm import HrmPolicy, e_hrm, p_cor, p_in, p_suc
from .noise_core import (
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
    eta_from_distance,
    squeezing_db_to_sigma2,
)
from .protocols import (
    NoCrossingError,
    ProtocolSpec,
    RatePoint,
    SegmentErrors,
    Variant,
    binary_entropy,
    chain_error,
    crossover_eta,
    plob_bound,
    secure_key_rate,
    segment_errors,
    segment_variance,
)


def _lazy(name: str):
    """Register submodule ``name`` in sys.modules without running its code."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


mc_oracle = _lazy("mc_oracle")
tree_code = _lazy("tree_code")

__all__ = [
    "AmplifierMode",
    "HrmPolicy",
    "NoCrossingError",
    "ProtocolSpec",
    "RatePoint",
    "SegmentErrors",
    "SqueezingSpec",
    "Variant",
    "amplifier_added_variance",
    "binary_entropy",
    "chain_error",
    "crossover_eta",
    "e_hrm",
    "eta_from_distance",
    "p_cor",
    "p_in",
    "p_suc",
    "plob_bound",
    "secure_key_rate",
    "segment_errors",
    "segment_variance",
    "squeezing_db_to_sigma2",
]

__version__ = "0.1.0"
