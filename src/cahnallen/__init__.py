"""Exact traveling-wave toolkit for the bistable equation u_t = u_xx - u^3 + u.

The package derives the closed-form traveling waves of the cubic
reaction-diffusion equation with exact arithmetic over Q(sqrt(2)), exposes
them as an evaluatable catalog, certifies every entry numerically against
the PDE and ODE residuals, and re-verifies the moving kink dynamically with
two independent finite-difference schemes.
"""

__version__ = "0.1.0"
