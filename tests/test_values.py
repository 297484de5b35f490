"""Value semantics of the package's named-tuple value types."""

import math
from fractions import Fraction as F

import pytest

from pellipse import (
    BoundaryEllipse,
    CausticResult,
    ClosureStatus,
    DomainError,
    EllipticCoords,
    EllipticVerdict,
    LineImplicit,
    MVec2,
    PellCertificate,
    PellPair,
    PeriodicityVerdict,
    Trajectory,
    TruncatedSeries,
    ZolotarevReport,
)
from pellipse.geometry import ArcClass, ConicClass, VectorType

E = BoundaryEllipse(F(3), 2)

#: One instance's fields for each value type.
SAMPLES = {
    MVec2: (1.5, F(1, 3)),
    EllipticCoords: (-0.5, 1.25),
    LineImplicit: (1, F(2), 3.0),
    BoundaryEllipse: (3, F(2, 7)),
    TruncatedSeries: ("B", (1, F(1, 2)), 1, 3, 2, F(1, 2)),
    PeriodicityVerdict: (True, 4),
    EllipticVerdict: ("a",),
    ClosureStatus: ("EllipticPeriodic", 3, "flip-x"),
    Trajectory: (
        ((0.0, 1.0), (1.0, 0.0)),
        ((1.0, -1.0), (-1.0, 1.0)),
        (ArcClass.TouchPoint, ArcClass.RelativisticEllipseArc),
        VectorType.SpaceLike,
        1.5,
        E,
    ),
    PellPair: (4, 1.25, E, (F(1), F(2)), (F(3),), (F(3), F(2), F(5, 4))),
    PellCertificate: (4, 1.25, (0.0, 0.5, 1.0, 2.0), (1.0, 0.5), (0.25,), F(0), 1, 1, (4, 2), (0.0, 1.0)),
    ZolotarevReport: (0.5, 0.4, 0.3, 1e-16, 2e-16, 0.0),
    CausticResult: (1.25, ConicClass.EllipseOfFamily, 3, 2, 1, True, "elliptic", "a", "flip-x", F(5, 4)),
}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_value_types_compare_and_hash_by_value_and_are_read_only(cls):
    fields = SAMPLES[cls]
    u, v = cls(*fields), cls(*fields)
    assert u == v and u is not v and hash(u) == hash(v) and len({u, v}) == 1
    assert tuple(u) == fields and u == cls(**dict(zip(u._fields, fields)))
    # every sample's first field is a nonzero number, a string or a tuple
    first, changed = u._fields[0], fields[0] * 2
    other = u._replace(**{first: changed})
    assert other != u and getattr(other, first) == changed and getattr(u, first) == fields[0]
    with pytest.raises(AttributeError):
        setattr(u, first, changed)
    assert u == v


def test_defaults():
    assert ClosureStatus("Open") == ClosureStatus.open_() == ClosureStatus("Open", None, None)
    assert LineImplicit(2, 3).r == 1 and LineImplicit(p=2, q=3, r=0).r == 0
    r = CausticResult(1.25, ConicClass.EllipseOfFamily, 3, 2, 1, True, "periodic")
    assert (r.case, r.sigma, r.gamma_exact) == (None, None, None)


@pytest.mark.parametrize("a, b", [(0, 1), (1, -2), (math.inf, 1), (1, math.nan), (F(-1), F(1))])
def test_boundary_ellipse_rejects_bad_axes(a, b):
    with pytest.raises(DomainError):
        BoundaryEllipse(a, b)
    with pytest.raises(DomainError):
        BoundaryEllipse(a=a, b=b)
    with pytest.raises(DomainError):
        BoundaryEllipse(3, 2)._replace(a=a, b=b)


@pytest.mark.parametrize("r", [1, 0, 2.5])
def test_line_implicit_rejects_a_zero_normal(r):
    with pytest.raises(DomainError):
        LineImplicit(0, 0.0, r)
    with pytest.raises(DomainError):
        LineImplicit(F(0), 0)
    with pytest.raises(DomainError):
        LineImplicit(1, 2, r)._replace(p=0, q=0.0)


def test_trajectory_vertices_are_built_once_and_stay_out_of_the_value():
    T = Trajectory(*SAMPLES[Trajectory])
    h = hash(T)
    assert T.vertices is T.vertices and T.directions is T.directions
    assert T.vertices == (MVec2(0.0, 1.0), MVec2(1.0, 0.0)) and T.steps == 1
    # the cached points are no field: equality, hash and copies ignore them
    assert hash(T) == h and T == Trajectory(*SAMPLES[Trajectory])
    assert T._replace().__dict__ == {} and "vertices" in T.__dict__


def test_mvec2_is_a_pair():
    P = MVec2(1, 2)
    x, y = P
    assert (x, y) == (1, 2) == P and P.euclid_norm() == math.hypot(1, 2)
