"""Small shared wrapper over QUADPACK for complex integrands."""

from __future__ import annotations

import warnings


def complex_quad(fn, a: float, b: float, epsabs: float, epsrel: float = 1e-12,
                 limit: int = 200) -> complex:
    """Adaptive Gauss-Kronrod integration of a complex-valued integrand.

    QUADPACK integrates the real and the imaginary part in two passes that
    mostly visit the same nodes; fn runs once per distinct node."""
    from scipy.integrate import IntegrationWarning, quad

    values: dict[float, complex] = {}

    def once(x):
        v = values.get(x)
        if v is None:
            v = values[x] = fn(x)
        return v

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(once, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                      complex_func=True)
    return complex(val)

