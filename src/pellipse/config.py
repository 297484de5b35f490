"""Named tolerances: one constant per role, the only place their values live.

The floating-point paths of the package test closure three ways (the
Hankel zero test, the Pell residual and the simulated closure) and guard
the geometry around them.  Each test reads the constant of its role
below; exact (``int``/``Fraction``) inputs to the closure conditions
compare with zero exactly and read none of them, and the roots of the
rotation number's level sets are bisected to adjacent floats without a
tolerance.  Tolerances are fixed: nothing reads the environment.
"""

#: Absolute: a point lies on the boundary ellipse or on a confocal conic
#: (``|x**2/a + y**2/b - 1|``), and two vertices of one trajectory coincide.
BOUNDARY = 1e-9

#: Relative: a vector, a line or a boundary touch point is light-like.
LIGHTLIKE = 1e-9

#: Relative: ``gamma`` meets a degenerate value ``0``, ``a`` or ``-b``, a
#: chord has zero length, or a line passes through the origin.
DEGENERATE = 1e-9

#: Relative to the row scales of the block: a float Hankel determinant is zero.
HANKEL_ZERO = 1e-9

#: Relative: the caustic of every segment of a simulated trajectory
#: matches the caustic of the first one.
DRIFT = 1e-6

#: Absolute, on vertices and unit directions: a simulated trajectory closes
#: when it validates a caustic or measures a partition.
CLOSURE = 1e-6

#: Largest coefficient of a float Pell identity ``p_hat**2 - E4 q_hat**2 - 1``.
PELL_RESIDUAL = 1e-8
