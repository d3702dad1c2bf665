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
  mirroring every analytic probability.
* :mod:`gkp_repeater.cli` -- command-line front end (``gkp-repeater``).

``tree_code`` and ``mc_oracle`` load on first use. Importing the package puts
both in ``sys.modules`` through :class:`importlib.util.LazyLoader`, but their
code is compiled and run only at the first attribute access, and the names
re-exported from them are served by the module ``__getattr__``. A command that
never touches them (``plob``, a bare-variant ``rate`` or ``sweep``) pays for
neither. Function-local imports would defer them too, but then the modules
would be missing from ``sys.modules`` until first use, and the benchmark's
tracer (``bench/tracer.py``) reads every layer module from there right after
``import gkp_repeater.cli``. The first attribute access must stay on one
thread: before Python 3.12.3 LazyLoader takes no lock around the load.
"""

import importlib.util
import sys

from .hrm import HrmPolicy, e_hrm, p_cor, p_in, p_suc
from .noise_core import (
    AmplifierMode,
    SqueezingSpec,
    amplifier_added_variance,
    eta_from_distance,
    pfail,
    sigma2_to_db,
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

_LAZY_EXPORTS = {
    "McEstimate": mc_oracle,
    "TrialConfig": mc_oracle,
    **dict.fromkeys(
        (
            "ComponentErrors",
            "DecodingMode",
            "ResourceCount",
            "TreeShape",
            "encoded_x_error",
            "encoded_z_error",
            "majority3",
            "prep_error",
            "repeater_error",
            "resource_count",
            "tree_key_rate",
        ),
        tree_code,
    ),
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(_LAZY_EXPORTS[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmplifierMode",
    "ComponentErrors",
    "DecodingMode",
    "HrmPolicy",
    "McEstimate",
    "NoCrossingError",
    "ProtocolSpec",
    "RatePoint",
    "ResourceCount",
    "SegmentErrors",
    "SqueezingSpec",
    "TreeShape",
    "TrialConfig",
    "Variant",
    "amplifier_added_variance",
    "binary_entropy",
    "chain_error",
    "crossover_eta",
    "e_hrm",
    "encoded_x_error",
    "encoded_z_error",
    "eta_from_distance",
    "majority3",
    "p_cor",
    "p_in",
    "p_suc",
    "pfail",
    "plob_bound",
    "prep_error",
    "repeater_error",
    "resource_count",
    "secure_key_rate",
    "segment_errors",
    "segment_variance",
    "sigma2_to_db",
    "squeezing_db_to_sigma2",
    "tree_key_rate",
]

__version__ = "0.1.0"
