"""wavedof: spatial degrees of freedom of wideband random multipath wavefields.

Models a band limited 2D multipath field observed over a disk for a finite
time, decomposes it into circular-harmonic orders, and computes per-order
effective bandwidths, the effective observation time, and the total number
of degrees of freedom, together with a Monte Carlo verification harness.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelConfig,
    FieldSamples,
    ModalSpectrum,
    ScattererSet,
    make_scatterers,
    modal_coefficients,
    modal_truncation_order,
    synth_field_circle,
    synth_field_modal,
    synth_field_planewave,
)
from .dofcore import (
    DofReport,
    critical_frequency,
    effective_bandwidth,
    effective_time,
    snr_max,
    snr_upper_bound,
    total_dof,
    truncation_order,
)
from .specfun import (
    bessel_j,
    bessel_j_table,
    chebyshev_first_kind,
    chebyshev_second_kind,
    stirling_gamma_lower,
)
from .verify import (
    CampaignReport,
    CheckResult,
    SnrEstimate,
    TrialPlan,
    empirical_order_snr,
    noise_variance_check,
    orthogonality_check,
    power_balance_check,
    run_campaign,
    time_support_check,
)
