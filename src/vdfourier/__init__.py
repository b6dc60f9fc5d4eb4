"""Variable-density Fourier sampling and compressive image reconstruction.

Exact Fourier-Haar coherence machinery, inverse-power sampling densities
with preconditioning weights, constrained TV / l1-Haar solvers, and a
verification suite for the coherence and isometry claims the sampling
strategy rests on.
"""

from .coherence import (
    fourier_haar_inner_1d,
    kappa_bound,
    kappa_l2,
    kappa_prime_bound,
    kappa_prime_table,
    kappa_table,
    local_coherence_exact,
    univariate_coherence_bound_check,
)
from .image_core import (
    best_s_term_error,
    gradient,
    gradient_adjoint,
    hard_threshold,
    lp_norm,
    tv_norm,
)
from .sampling import (
    Density,
    SamplingPlan,
    density_from_kappa,
    density_inverse_max,
    density_inverse_square,
    density_power_law,
    density_uniform,
    deterministic_mask,
    draw_plan,
)
from .solvers import (
    SolverOptions,
    SolverReport,
    add_noise,
    l1_haar_reconstruct,
    tv_min_reconstruct,
)
from .transforms import (
    dft2_forward,
    dft2_inverse,
    freq_values,
    haar_atom_1d,
    haar_forward,
    haar_inverse,
    partial_dft,
    partial_dft_adjoint,
)
from .verify import (
    RipEstimate,
    build_preconditioned_matrix,
    check_atom_tv,
    check_coeff_decay,
    check_edge_lemma,
    isotropy_identity_error,
    rip_exact,
    rip_monte_carlo,
)

__version__ = "0.1.0"
