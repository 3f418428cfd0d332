"""Fourier analysis on the discrete cube with verified inequality pipelines.

Building blocks: scalar and vector functions on {+1,-1}^n with fast
Walsh-Hadamard transforms, a norm suite, the explicit trigonometric proxy
for the linear part, end-to-end audits of the Rademacher projection, and
explicit bounded witnesses that force the projection to blow up.
"""

from .cube_fourier import (
    CubeFunction,
    convolve,
    from_bytes,
    fwht,
    inverse_fwht,
    level_multiply,
    read_binary,
    spectrum_sparsity,
    to_bytes,
    to_spectrum_json,
    write_binary,
)
from .linear_proxy import (
    ProxyKernel,
    deviation_bound,
    kernel_l1,
    kernel_moment,
    proxy_eval_by_weight,
    proxy_l1,
    proxy_level_coeffs,
)
from .lower_bound import (
    LowerBoundInstance,
    build_chebyshev_witness,
    build_product_witness,
    build_truncated_witness,
    lower_bound_instance,
    sparsity_inequality_check,
    structural_sparsity,
    truncation_level,
    truncation_tail_bound,
    truncation_tail_chain,
)
from .pisier_bench import (
    PisierAudit,
    choose_ell,
    decomposition_audit,
    rademacher_projection,
)
from .report import BoundReport, ResourceLimitError
from .vector_field import (
    Norm,
    VectorFunction,
    sandwich_validate,
)

__all__ = [
    "BoundReport",
    "CubeFunction",
    "LowerBoundInstance",
    "Norm",
    "PisierAudit",
    "ProxyKernel",
    "ResourceLimitError",
    "VectorFunction",
    "build_chebyshev_witness",
    "build_product_witness",
    "build_truncated_witness",
    "choose_ell",
    "convolve",
    "decomposition_audit",
    "deviation_bound",
    "from_bytes",
    "fwht",
    "inverse_fwht",
    "kernel_l1",
    "kernel_moment",
    "level_multiply",
    "lower_bound_instance",
    "proxy_eval_by_weight",
    "proxy_l1",
    "proxy_level_coeffs",
    "rademacher_projection",
    "read_binary",
    "sandwich_validate",
    "sparsity_inequality_check",
    "spectrum_sparsity",
    "structural_sparsity",
    "to_bytes",
    "to_spectrum_json",
    "truncation_level",
    "truncation_tail_bound",
    "truncation_tail_chain",
    "write_binary",
]

__version__ = "0.1.0"
