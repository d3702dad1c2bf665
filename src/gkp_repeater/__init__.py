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
"""

from .hrm import HrmPolicy, e_hrm, p_cor, p_in, p_suc
from .mc_oracle import McEstimate, TrialConfig
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
from .tree_code import (
    ComponentErrors,
    DecodingMode,
    ResourceCount,
    TreeShape,
    encoded_x_error,
    encoded_z_error,
    majority3,
    prep_error,
    repeater_error,
    resource_count,
    tree_key_rate,
)

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
