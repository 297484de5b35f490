"""Exact polynomial and linear-algebra kernel tests."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pellipse import BoundaryEllipse, polys
from test_caustics import elliptic_factors, gamma_poly, periodic_factor
from pellipse.errors import DomainError

F = Fraction


def test_trim_and_degree():
    assert polys.trim([1, 2, 0, 0]) == [1, 2]
    assert polys.trim([0, 0]) == [0]
    assert polys.degree([0]) == 0
    assert polys.degree([3, 0, 5]) == 2


def test_arithmetic_roundtrip():
    p = [F(1), F(-3), F(2)]  # 2x^2 - 3x + 1 = (2x-1)(x-1)
    q = [F(-1), F(2)]
    quot, rem = polys.pdivmod(p, q)
    assert polys.trim(rem) == [0]
    assert polys.padd(polys.pmul(quot, q), rem) == p
    assert polys.peval(p, F(1, 2)) == 0 and polys.peval(p, 1) == 0


def test_pcompose_and_pderiv():
    # (x^2)' = 2x; T2(T2(x)) = T4(x) = 8x^4 - 8x^2 + 1
    t2 = [-1, 0, 2]
    t4 = polys.trim(polys.pcompose(t2, t2))
    assert t4 == [1, 0, -8, 0, 8]
    assert polys.pderiv([1, 0, -8, 0, 8]) == [0, -16, 0, 32]


def test_poly_sqrt_exact():
    # (1 + 2x + 3x^2)^2, ascending
    p = [F(1), F(2), F(3)]
    sq = polys.pmul(p, p)
    assert polys.poly_sqrt(sq) in (p, polys.pneg(p))


def test_frac_sqrt():
    assert polys.frac_sqrt(F(9, 4)) == F(3, 2)
    with pytest.raises(DomainError):
        polys.frac_sqrt(F(2))


def test_discriminant_quadratic_closed_form():
    # disc(ax^2 + bx + c) = b^2 - 4ac, here ascending [c, b, a]
    a, b, c = F(2), F(-7), F(3)
    assert polys.discriminant([c, b, a]) == b * b - 4 * a * c


def test_resultant_common_root():
    # share the root x=2 -> resultant 0
    p = [F(-2), F(1)]
    q = [F(-6), F(1), F(1)]  # (x-2)(x+3)
    assert polys.resultant(polys.pmul(p, p), q) == 0
    assert polys.resultant([F(-1), F(1)], q) != 0


def _sylvester_resultant(u, v):
    """The oracle: the Bareiss determinant of the Sylvester matrix of the
    integer polynomials that scale ``u`` and ``v``, scaled back."""
    ui, lu = polys._to_int_poly(polys.trim(u))
    vi, lv = polys._to_int_poly(polys.trim(v))
    m, n = len(ui) - 1, len(vi) - 1
    if m == 0 or n == 0:
        return F(ui[0], lu) ** n if m == 0 else F(vi[0], lv) ** m
    rows = [[0] * i + ui[::-1] + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + vi[::-1] + [0] * (m - 1 - i) for i in range(m)]
    return F(polys._bareiss_det(rows)) / (F(lu) ** n * F(lv) ** m)


@st.composite
def _rational_polys(draw, degrees=st.integers(0, 16)):
    """Rational polynomials with a nonzero leading coefficient; about one
    coefficient in three below it is 0, so remainders drop degree by more
    than one."""
    d = draw(degrees)
    coeff = st.just(F(0)) | st.fractions(-30, 30, max_denominator=7)
    lead = st.fractions(-30, 30, max_denominator=7).filter(bool)
    return draw(st.lists(coeff, min_size=d, max_size=d)) + [draw(lead)]


@given(u=_rational_polys(), v=_rational_polys())
# degrees 5, 4, 2, 0 in the remainder sequence: a drop of 2 before the last
@example(u=[0, 1, 1, 0, 0, 1], v=[1, 0, 0, 0, 1])
@example(u=[F(3, 2)], v=[1, 0, 0, -2])
@example(u=[F(-2)], v=[F(5)])
def test_resultant_matches_the_sylvester_determinant(u, v):
    # the subresultant sequence gives the determinant's rational in either
    # order, Res(v, u) = (-1)**(mn) Res(u, v), and c**deg(v) for a constant u
    res = polys.resultant(u, v)
    assert res == _sylvester_resultant(u, v)
    m, n = polys.degree(u), polys.degree(v)
    assert polys.resultant(v, u) == (-1) ** (m * n) * res
    if m == 0:
        assert res == F(u[0]) ** n


@given(u=_rational_polys(st.integers(0, 8)), v=_rational_polys(st.integers(0, 8)),
       w=_rational_polys(st.integers(1, 6)))
@example(u=[1], v=[1], w=[0, 0, 1])
def test_resultant_of_a_common_factor_is_zero(u, v, w):
    # a shared factor of degree >= 1 ends the remainder sequence at 0
    assert polys.resultant(polys.pmul(u, w), polys.pmul(v, w)) == 0


@given(p=st.fractions(-50, 50, max_denominator=9), q=st.fractions(-50, 50, max_denominator=9))
@example(p=F(-3), q=F(2))  # (x - 1)**2 (x + 2): a double root
def test_discriminant_cubic_closed_form(p, q):
    # disc(x^3 + px + q) = -4p^3 - 27q^2
    assert polys.discriminant([q, p, 0, 1]) == -4 * p**3 - 27 * q**2


def test_real_root_isolation_and_refinement():
    # (x-1)(x-2)(x-3), ascending
    p = [F(-6), F(11), F(-6), F(1)]
    chain = polys.sturm_chain(p)
    assert polys.count_real_roots(chain, F(0), F(10)) == 3
    assert polys.count_real_roots(chain, F(3, 2), F(5, 2)) == 1
    roots = polys.real_roots(p)
    assert len(roots) == 3
    for r, want in zip(sorted(roots), (1, 2, 3)):
        assert abs(r - want) < F(1, 10**40)


# -- reference root finder: Sturm isolation and bisection on Fraction/peval --


def _ref_squarefree(c):
    """``p / gcd(p, p')`` by the Euclidean algorithm over ``Fraction``, monic gcd."""
    p = polys.trim([F(a) for a in c])
    if len(p) <= 2:
        return p
    u, v = p, polys.trim(polys.pderiv(p))
    while any(v):
        u, v = v, polys.pdivmod(u, v)[1]
    if polys.degree(u) == 0:
        return p
    return polys.pdivmod(p, [a / u[-1] for a in u])[0]


def _ref_chain(c):
    """Sturm chain of the square-free part by ``pdivmod`` over ``Fraction``."""
    p = _ref_squarefree(c)
    chain = [p, polys.trim(polys.pderiv(p))]
    while polys.degree(chain[-1]) > 0:
        r = polys.pdivmod(chain[-2], chain[-1])[1]
        if not any(r):
            break
        chain.append(polys.pneg(r))
    return chain


def _primitive(q):
    """The primitive integer polynomial that is a positive multiple of the rational ``q``."""
    m = math.lcm(*(F(a).denominator for a in q))
    ints = [int(F(a) * m) for a in q]
    g = math.gcd(*ints) or 1
    return [a // g for a in ints]


def _assert_chain_matches_reference(c):
    chain = polys.sturm_chain(c)
    assert all(type(a) is int for q in chain for a in q)
    assert chain == [_primitive(q) for q in _ref_chain(c)]
    assert polys.squarefree_part(c) == chain[0]


def _ref_sign(p, x):
    v = polys.peval(p, x)
    return (v > 0) - (v < 0)


def _ref_variations(chain, x):
    signs = [s for s in (_ref_sign(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_root_bound(p):
    # Fujiwara's bound 2 max |c_(d-i) / c_d|**(1/i), the last term of c_0 / 2,
    # with each ratio taken up to the power of two 2**e above it that the
    # bit lengths give, and each term to the least power of two whose i-th
    # power is at least 2**e
    d, top = len(p) - 1, abs(p[-1]).bit_length()
    terms = []
    for i in range(1, d + 1):
        if p[d - i]:
            e = abs(p[d - i]).bit_length() - top + 1 - (i == d)
            assert abs(F(p[d - i], p[-1])) / (2 if i == d else 1) < F(2) ** e
            terms.append(math.ceil(e / i))
    return F(2) ** (1 + max(terms, default=0))


def _ref_isolate(c):
    p = polys.squarefree_part(c)
    if polys.degree(p) == 0:
        return []
    chain = polys.sturm_chain(p)
    bound = _ref_root_bound(p)  # strict: no root at +-bound
    out, stack = [], [(-bound, bound)]
    while stack:
        a, b = stack.pop()
        k = _ref_variations(chain, a) - _ref_variations(chain, b)
        if k == 1:
            out.append((a, b))
        elif k > 1:
            mid, shift = (a + b) / 2, (b - a) / 4
            while polys.peval(p, mid) == 0:
                mid += shift
                shift /= 2
            stack += [(a, mid), (mid, b)]
    return sorted(out)


def _ref_refine(c, lo, hi):
    p = polys.squarefree_part(c)
    flo, fhi = polys.peval(p, lo), polys.peval(p, hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise DomainError("no sign change")
    if lo < 0 < hi and polys.peval(p, 0) == 0:
        return Fraction(0)
    # the width is relative to the current bracket, so a root keeps 60
    # digits at every scale
    while hi - lo > Fraction(1, 10**60) * max(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        fm = polys.peval(p, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# Rational roots with multiplicities (dyadic denominators make exact
# midpoint hits likely), times an optional factor with irrational or no
# real roots.
_roots = st.lists(
    st.tuples(st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 8]), st.integers(1, 3)),
    min_size=1,
    max_size=4,
)
_EXTRA_REAL_ROOTS = {(1,): 0, (-2, 0, 1): 2, (3, 0, 1): 0, (-5, 1, 1): 2}
_extra = st.sampled_from(sorted(_EXTRA_REAL_ROOTS))


def _from_roots(lead, roots, extra):
    p = [F(lead)]
    for num, den, mult in roots:
        for _ in range(mult):
            p = polys.pmul(p, [F(-num), F(den)])
    return polys.pmul(p, [F(a) for a in extra])


@given(
    lead=st.sampled_from([1, -1, 3, -7, F(2, 9)]),
    roots=_roots,
    extra=_extra,
)
@example(lead=1, roots=[(3, 4, 2), (-5, 1, 1)], extra=(1,))
def test_real_roots_match_reference(lead, roots, extra):
    p = _from_roots(lead, roots, extra)
    want = [_ref_refine(p, a, b) for a, b in _ref_isolate(p)]
    assert polys.isolate_real_roots(p) == _ref_isolate(p)
    assert polys.real_roots(p) == want
    assert len(want) == len({F(num, den) for num, den, _ in roots}) + _EXTRA_REAL_ROOTS[extra]


# the largest root modulus of each extra factor
_EXTRA_MODULUS = {
    (1,): 0,
    (-2, 0, 1): math.sqrt(2),
    (3, 0, 1): math.sqrt(3),
    (-5, 1, 1): (1 + math.sqrt(21)) / 2,
}


@given(lead=st.sampled_from([1, -1, 3, -7]), roots=_roots, extra=_extra, k=st.integers(-9, 9))
def test_root_bound_is_strict_and_near_the_roots(lead, roots, extra, k):
    # Fujiwara's bound lies above every root, complex ones too, and within
    # 16 d of the largest modulus R at every scale 10**k of the roots: each
    # term is at most d R before its two roundings up to powers of two
    scale = F(10) ** k
    p = polys.squarefree_part(_from_roots(lead, [(n * scale, d, m) for n, d, m in roots], extra))
    bound = polys._root_bound(p)
    assert bound == _ref_root_bound(p)
    moduli = [abs(F(n, d) * scale) for n, d, _ in roots] + [_EXTRA_MODULUS[extra]]
    R = max(moduli)
    assert all(m < bound for m in moduli)
    assert R == 0 or bound <= 16 * (len(p) - 1) * R


def test_isolation_of_a_scaled_closure_factor_starts_near_its_roots():
    # the degree-30 period-11 condition of (41/7, 7/2) * 10**6 has its 10
    # real roots within 6 * 10**6, and its Cauchy bound is about 1.8e191:
    # bisecting down from there took about 20 s on a 2-vCPU x86-64 host
    E = BoundaryEllipse(F(41, 7) * 10**6, F(7, 2) * 10**6)
    chain = polys.sturm_chain(gamma_poly(E, "C", 11))
    assert len(chain[0]) - 1 == 30
    assert polys._root_bound(chain[0]) == 2**24
    assert len(polys._isolate(chain)) == 10


@given(lead=st.sampled_from([1, -1, 3, -7, F(2, 9)]), roots=_roots, extra=_extra)
@example(lead=1, roots=[(3, 4, 2), (-5, 1, 1)], extra=(1,))
# -x**3 + 2x: a remainder scaled by an odd power of lc(v) < 0 instead of
# |lc(v)| would change sign
@example(lead=-1, roots=[(0, 1, 1)], extra=(-2, 0, 1))
def test_sturm_chain_matches_fraction_euclid(lead, roots, extra):
    _assert_chain_matches_reference(_from_roots(lead, roots, extra))


@pytest.mark.parametrize(
    "a, b",
    [(12, 2), (F(74, 7), F(25, 9)), (5.6, 3.8), (F(7, 1000), F(3, 1000))],
    ids=["int", "fraction", "decimal-float", "scaled"],
)
def test_sturm_chain_matches_fraction_euclid_on_table_factors(a, b):
    # the factors of the closure conditions generated from the exact
    # determinant, periodic for n <= 8 and elliptic for n <= 5, and a product
    # with a repeated factor.  The Fraction reference takes 2-22 s a factor
    # from degree 24 on, so the longer periods rest on the Sturm counts of
    # the oracle and accounting tests of test_caustics
    E = BoundaryEllipse(F(a), F(b))
    factors = [periodic_factor(E, n) for n in range(3, 9)]
    factors += [f for n in range(2, 6) for _, f in elliptic_factors(E, n)]
    factors += [polys.pmul(gamma_poly(E, "C", 3), gamma_poly(E, "B", 6))]
    for f in factors:
        _assert_chain_matches_reference(f)


_dyadic = st.builds(lambda m, j: F(m, 2**j), st.integers(-40, 40), st.integers(0, 4))


@given(
    roots=_roots,
    extra=_extra,
    lo=_dyadic,
    width=_dyadic.filter(lambda w: w > 0),
    on_root=st.sampled_from([None, "lo", "hi"]),
)
@example(roots=[(3, 4, 1), (-5, 1, 2)], extra=(1,), lo=F(0), width=F(1), on_root=None)
@example(roots=[(3, 4, 1)], extra=(3, 0, 1), lo=F(0), width=F(5, 4), on_root="lo")
@example(roots=[(3, 4, 1)], extra=(3, 0, 1), lo=F(0), width=F(5, 4), on_root="hi")
# a root at exactly 0 that no bisection midpoint of [-1, 2] reaches
@example(roots=[(0, 1, 1)], extra=(1,), lo=F(-1), width=F(3), on_root=None)
def test_refine_root_matches_reference(roots, extra, lo, width, on_root):
    p = _from_roots(1, roots, extra)
    hi = lo + width
    root = F(roots[0][0], roots[0][1])
    if on_root == "lo":
        lo, hi = root, max(hi, root + 1)
    elif on_root == "hi":
        lo, hi = min(lo, root - 1), root
    try:
        want = _ref_refine(p, lo, hi)
    except DomainError:
        with pytest.raises(DomainError):
            polys.refine_root(p, lo, hi)
        return
    assert polys.refine_root(p, lo, hi) == want


def test_refine_root_exact_hits_and_bracket_ends():
    p = polys.pmul([F(-3), F(4)], [F(5), F(1)])  # roots 3/4 and -5
    assert polys.refine_root(p, F(0), F(1)) == F(3, 4)  # second midpoint
    assert polys.refine_root(p, F(3, 4), F(2)) == F(3, 4)
    assert polys.refine_root(p, F(-7), F(-5)) == F(-5)


def test_refine_root_requires_sign_change():
    p = [F(-2), F(0), F(1)]  # roots +-sqrt(2)
    with pytest.raises(DomainError):
        polys.refine_root(p, F(-2), F(2))
    with pytest.raises(DomainError):
        polys.refine_root(p, F(2), F(3))


def test_squarefree_part_runs_once_per_real_roots(monkeypatch):
    calls = []
    inner = polys.squarefree_part

    def counting(c):
        calls.append(1)
        return inner(c)

    monkeypatch.setattr(polys, "squarefree_part", counting)
    p = polys.pmul(polys.pmul([F(-1), F(1)], [F(-1), F(1)]), [F(-6), F(11), F(-6), F(1)])
    assert len(polys.real_roots(p)) == 3
    assert len(calls) == 1


def test_regula_falsi_ends_on_adjacent_floats():
    # x**2 - 2 on [1, 2]: the last bracket is two adjacent floats, one of
    # them the correctly rounded sqrt(2); a root at a step returns at once
    f = lambda x: x * x - 2  # noqa: E731
    root = polys.regula_falsi(f, 1.0, 2.0, f(1.0), f(2.0))
    assert abs(root - math.sqrt(2)) <= math.ulp(math.sqrt(2))
    assert polys.regula_falsi(lambda x: 2 - x * x, 1.0, 2.0, 1.0, -2.0) == root
    calls = []
    assert polys.regula_falsi(lambda x: calls.append(x) or x - 1.5, 1.0, 2.0, -0.5, 0.5) == 1.5
    assert calls == [1.5]


@given(x=st.floats(0.75, 1.5), t=st.fractions(0, 1).filter(lambda t: t != F(1, 2)))
def test_regula_falsi_returns_the_nearer_end(x, t):
    # a root a share t of the way from the float x to the next one up: the
    # end of the last bracket where |f| is smaller is the rounded root
    root = F(x) + (F(math.nextafter(x, math.inf)) - F(x)) * t
    f = lambda y: float(F(y) - root)  # noqa: E731
    assert polys.regula_falsi(f, 0.5, 2.0, f(0.5), f(2.0)) == float(root)


@pytest.mark.parametrize("sign", [1, -1])
def test_regula_falsi_narrows_a_bracket_whose_ends_sum_beyond_the_float_maximum(sign):
    # near the float maximum lo + hi overflows; the midpoint is then taken
    # from the halved ends, and the bracket still closes on the rounded root
    x = 1.5e308
    root = F(x) + (F(math.nextafter(x, math.inf)) - F(x)) / 3
    f = lambda y: float(sign * (F(y) - root))  # noqa: E731
    lo, hi = 1e308, 1.7976931348623157e308
    assert polys.regula_falsi(f, lo, hi, f(lo), f(hi)) == x


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.5, 2.0), (-1.0, 2.0)])
@pytest.mark.parametrize("end", ["lo", "hi"])
@pytest.mark.parametrize("t", [F(1, 3), F(1), F(5, 3)])
def test_regula_falsi_finds_a_root_next_to_an_end_in_few_steps(lo, hi, end, t):
    # f is a cube, so f is tiny next to its root and every secant point
    # rounds onto the near end: the float next to that end is tried, not the
    # midpoint, and the rounded root is found in a step or two.  Halving
    # down to the end took 52 to 55 evaluations.
    e, other = (lo, hi) if end == "lo" else (hi, lo)
    root = F(e) + (F(math.nextafter(e, other)) - F(e)) * t
    f = lambda y: float((F(y) - root) ** 3)  # noqa: E731
    calls = []
    x = polys.regula_falsi(lambda y: calls.append(y) or f(y), lo, hi, f(lo), f(hi))
    assert x == float(root)
    assert len(calls) <= 10


def _bisection_steps(f, lo, hi):
    """Steps of plain bisection on the floats to adjacent floats."""
    up, steps = f(lo) > 0, 0
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if (f(mid) > 0) == up else (lo, mid)
        steps += 1
    return steps


@pytest.mark.parametrize("root", [0.3, 1e-7, 0.999999, 1 / 3])
def test_regula_falsi_needs_few_steps_where_bisection_needs_many(root):
    # Anderson-Bjorck steps converge superlinearly on a smooth monotone function;
    # on a flat one, the midpoint safeguard keeps within three bisections
    for f, most in ((lambda x: math.atan(x - root), 12), (lambda x: (x - root) ** 3, None)):
        calls = []
        x = polys.regula_falsi(lambda t: calls.append(t) or f(t), -1.0, 2.0, f(-1.0), f(2.0))
        assert abs(x - root) <= 2 * math.ulp(root) or f(x) == 0
        assert len(calls) <= (most or 3 * _bisection_steps(f, -1.0, 2.0)), (root, len(calls))


def test_det_exact():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert polys.det(m) == F(-2)
    assert polys.det([[F(2)]]) == F(2)


def test_nullspace_vector_stays_in_field():
    # regression: the returned basis vector must live in the matrix's field,
    # never silently promote to float
    v = polys.nullspace_vector([[F(0)]])
    assert len(v) == 1 and isinstance(v[0], (int, Fraction)) and v[0] != 0

    m = [[F(1), F(2)], [F(2), F(4)]]  # rank 1
    v = polys.nullspace_vector(m)
    assert all(isinstance(c, (int, Fraction)) for c in v)
    assert m[0][0] * v[0] + m[0][1] * v[1] == 0
    assert m[1][0] * v[0] + m[1][1] * v[1] == 0


@st.composite
def _symmetric_matrices(draw):
    """Symmetric integer matrices of size 1-8: small and huge entries, and
    sums of fewer outer products than the size, whose trailing leading
    principal minors vanish."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        vs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=n - 1))
        return [[sum(v[i] * v[j] for v in vs) for j in range(n)] for i in range(n)]
    entries = st.integers(-3, 3) | st.integers(-(10**40), 10**40)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(entries)
    return m


@given(m=_symmetric_matrices())
@example(m=[[0, 1], [1, 0]])
@example(m=[[1, 1, 2], [1, 1, 3], [2, 3, 4]])
def test_symmetric_bareiss_matches_bareiss(m):
    # the upper-triangle elimination gives the same integer as the full
    # one, also where a leading principal minor vanishes and it falls back
    assert polys._symmetric_bareiss_det(m) == polys._bareiss_det(m)


def test_symmetric_bareiss_falls_back_on_a_zero_pivot(monkeypatch):
    # the leading 2x2 minor of this block is 0: the second pivot vanishes,
    # and the row-swapping elimination gives the determinant -1
    calls, full = [], polys._bareiss_det
    monkeypatch.setattr(polys, "_bareiss_det", lambda m: calls.append(m) or full(m))
    m = [[1, 1, 2], [1, 1, 3], [2, 3, 4]]
    assert polys._symmetric_bareiss_det(m) == -1 and calls == [m]
    assert polys._symmetric_bareiss_det([[2, 1], [1, 3]]) == 5 and len(calls) == 1
