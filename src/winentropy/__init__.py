"""Entropy divergences between continuous martingales.

The reciprocal specific relative entropy measures how far a continuous
martingale's instantaneous quadratic variation strays from Brownian
motion's unit rate.  Over win-martingales (paths in [0,1] that finish at
0 or 1) its minimizer is the scaled neutral Wright-Fisher diffusion;
this package evaluates the closed-form value function, rediscovers it by
finite differences and dynamic programming, simulates the diffusion, and
verifies the trinomial scaling limit, the p-derivative identity, the
spectral transition density and the reciprocity with the specific
relative entropy.
"""

__version__ = "0.1.0"

from .closed_form import (GridFunction, hjb_residual, optimal_volatility,
                          stationary_profile, time_shift_check, value_function)
from .entropy import (DeterministicVolatility, DivergenceEstimate,
                      deterministic_divergence, entropy_log_moment_estimate,
                      integrand_reciprocal, integrand_specific,
                      inverse_t_log_cubed, p_divergence_estimate,
                      p_quotient_profile, reciprocal_entropy_estimate,
                      specific_entropy_estimate)
from .multidim import (matrix_log, md_reciprocal_entropy, perturbation_search,
                       quantum_entropy_rate, simulate_simplex_wf)
from .paths import (ACCURATE_POLICY, NumericalError, PathEnsemble, StepPolicy,
                    constant_variance_ensemble, piecewise_constant_ensemble,
                    set_max_workers)
from .pde import DpSpec, dp_refinement_study, solve_dp, solve_stationary
from .trinomial import (TrinomialSpec, extended_entropy, one_step_kl,
                        scaled_path_entropy, scaling_limit_gap)
from .wright_fisher import (jacobi_p11, reciprocity_check, sigma_martingale_check,
                            simulate_generic_sde, simulate_scaled_wf,
                            simulate_standard_wf, transition_density,
                            transition_density_mass)
