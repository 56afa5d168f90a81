"""Numerical transversality for singular simplices on embedded manifolds.

The library moves polynomial simplex maps into stratumwise transverse
position with respect to a finite collection of manifolds with corners,
through a scheduled rel-boundary homotopy (boundary retraction, corner
smoothing, tube perturbation), and evaluates intersection-number cochains
on the result.
"""

__version__ = "0.1.0"
