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
    sample_dpp,
    sample_projection,
)
from .permanental import (
    count_pmf_perm,
    sample_permanental,
)
from .alphadet import (
    alpha_count_pmf,
    sample_alpha,
)
from .planar import (
    RadialKernelSpec,
    RadialTerm,
    annuli_lambdas,
    bergman_spec,
    discretize_radial_kernel,
    ginibre_spec,
    sample_clouds,
    sample_radial_moduli,
)
from .ust import Graph, sample_ust, transfer_current_kernel
from .harness import (
    TestReport,
    chi_square_fit,
    clt_check,
    ks_fit,
)

__version__ = "0.1.0"
