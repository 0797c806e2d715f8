"""wavedof: spatial degrees of freedom of wideband random multipath wavefields.

Models a band limited 2D multipath field observed over a disk for a finite
time, decomposes it into circular-harmonic orders, and computes per-order
effective bandwidths, the effective observation time, and the total number
of degrees of freedom, together with a Monte Carlo verification harness.

The public names and the modules load on first access (PEP 562), so
``import wavedof`` and ``wavedof.ChannelConfig`` load no numpy.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module
_MODULE_NAMES = {
    "config": "ChannelConfig",
    "channel": "FieldSamples ModalSpectrum ScattererSet make_scatterers modal_coefficients modal_truncation_order"
               " synth_field_circle synth_field_modal synth_field_planewave",
    "dofcore": "DofReport critical_frequency effective_bandwidth effective_time snr_max snr_upper_bound total_dof"
               " truncation_order",
    "specfun": "bessel_j bessel_j_table chebyshev_first_kind chebyshev_second_kind stirling_gamma_lower",
    "verify": "CampaignReport CheckResult SnrEstimate TrialPlan empirical_order_snr noise_variance_check"
              " orthogonality_check power_balance_check run_campaign time_support_check",
}
# public name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_NAMES.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULE_NAMES:
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list:
    return sorted({*globals(), *_MODULE_NAMES, *__all__})
