"""Fourier analysis on the discrete cube with verified inequality pipelines.

Building blocks: scalar and vector functions on {+1,-1}^n with fast
Walsh-Hadamard transforms, a norm suite, the explicit trigonometric proxy
for the linear part, end-to-end audits of the Rademacher projection, and
explicit bounded witnesses that force the projection to blow up.
"""

import os as _os

# Thread cap must land in the environment before numpy loads its BLAS pools; it also
# caps the butterfly's threads (cube_fourier._WORKERS).
_threads = _os.environ.get("PISIER_LAB_THREADS")
if _threads:
    if not (_threads.isascii() and _threads.isdigit() and int(_threads) > 0):
        raise ValueError(f"PISIER_LAB_THREADS must be a positive integer, got {_threads!r}")
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .cube_fourier import (  # noqa: E402
    CubeFunction,
    character_values,
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
from .linear_proxy import (  # noqa: E402
    ProxyKernel,
    deviation_bound,
    kernel_l1,
    kernel_moment,
    proxy_eval_by_weight,
    proxy_l1,
    proxy_level_coeffs,
)
from .lower_bound import (  # noqa: E402
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
from .pisier_bench import (  # noqa: E402
    PisierAudit,
    choose_ell,
    decomposition_audit,
)
from .report import BoundReport, ResourceLimitError  # noqa: E402
from .vector_field import (  # noqa: E402
    Norm,
    VectorFunction,
    rademacher_projection,
    sandwich_validate,
    young_bound_check,
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
    "character_values",
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
    "young_bound_check",
]

__version__ = "0.1.0"
