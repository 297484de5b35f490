"""Named tolerances: one constant per role, the only place their values live.

The floating-point paths of the package test closure two ways with a
tolerance (the Pell residual and the simulated closure) and guard the
geometry around them.  Each test reads the constant of its role below.
The closure conditions read none of them: an exact (``int``/``Fraction``)
input compares the exact determinant with zero, and a float is a root
when the determinant changes sign across the rounding interval of the
float it lands on.  Tolerances are fixed: nothing reads the environment.
"""

#: Absolute: a point lies on the boundary ellipse or on a confocal conic
#: (``|x**2/a + y**2/b - 1|``), and two vertices of one trajectory coincide.
BOUNDARY = 1e-9

#: Relative: a vector, a line or a boundary touch point is light-like.
LIGHTLIKE = 1e-9

#: Relative: ``gamma`` meets a degenerate value ``0``, ``a`` or ``-b``, a
#: chord has zero length, or a line passes through the origin.
DEGENERATE = 1e-9

#: Relative to the terms of the caustic invariant: every segment of a
#: simulated trajectory keeps the caustic of the first one when
#: ``|den0 num - num0 den|`` is at most ``DRIFT`` times
#: ``|den0| (c**2 + a vy**2 + b vx**2) + |num0| (vx**2 + vy**2)``, where
#: ``num/den`` is the segment's caustic times ``c**2``
#: (:func:`pellipse.dynamics.simulate`).
DRIFT = 1e-6

#: Relative to the touch abscissa ``xt = a/sqrt(a + b)``: a validation
#: start's chord ends at least ``START_CLEARANCE * xt`` in ``|x|`` from a
#: touch point, where reflection is undefined (``START_CLEARANCE * (1 + xt)``
#: for the starts drawn from a caller's random source).
START_CLEARANCE = 0.02

#: Absolute, on vertices and unit directions: a simulated trajectory closes
#: when it validates a caustic or measures a partition.
CLOSURE = 1e-6

#: Largest coefficient of a float Pell identity ``p_hat**2 - E4 q_hat**2 - 1``.
PELL_RESIDUAL = 1e-8
