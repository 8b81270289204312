"""Exact samplers and statistical verification for determinantal,
permanental and alpha-determinantal point processes on finite ground
sets, with closed-form radial and spanning-tree specializations."""

from .core import (
    CountDistribution,
    DetpermError,
    GroundSet,
    PointConfiguration,
    bernoulli_sum_pmf,
    geometric_sum_pmf,
    sample_categorical,
    split,
    stream,
)
from .kernels import (
    HermitianKernel,
    Spectrum,
    alpha_det,
    eigenvalues,
    joint_intensity,
    permanent,
    restrict,
    spectrum,
    validate_determinantal,
)
from .dpp import (
    count_pmf,
    joint_counts_observable,
    projection_density,
    sample_dpp,
    sample_projection,
)
from .permanental import (
    bosonic_density,
    count_pmf_perm,
    joint_counts_observable_perm,
    sample_mixture_label,
    sample_permanental,
)
from .alphadet import (
    AlphaRegime,
    alpha_count_pmf,
    classify_alpha,
    existence_witness,
    sample_alpha,
)
from .planar import (
    LaurentPoly,
    RadialKernelSpec,
    RadialTerm,
    annuli_lambdas,
    bergman_spec,
    discretize_radial_kernel,
    ginibre_spec,
    power_independence_check,
    sample_clouds,
    sample_radial_moduli,
    torus_moment,
)
from .ust import Graph, effective_resistance, sample_ust, transfer_current_kernel
from .harness import (
    TestReport,
    chi_square_fit,
    chi_square_homogeneity,
    clt_check,
    ks_fit,
)

__version__ = "0.1.0"
