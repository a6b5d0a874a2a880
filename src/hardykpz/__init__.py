"""Radial fractional-Laplacian toolkit for the Hardy-potential gradient problem.

Layout
------
``specfun``   Gamma-ratio constants, singular exponents, critical exponents.
``radialop``  Graded radial grids and the calibrated collocation operator.
``construct`` Closed-form radial solutions and supersolutions.
``solver``    Monotone truncation scheme, blow-up classification, threshold probe.
``sweep``     Existence-region maps and exponent tables.
``cli``       Command-line front end (``hardykpz``).

Each module's ``__all__`` is its API; import the modules themselves.
"""

__version__ = "0.1.0"
