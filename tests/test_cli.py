"""End-to-end command-line interface behaviour."""

import ast
import collections
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pellipse
from pellipse import BoundaryEllipse, caustics, cayley, cli, extremal
from pellipse.cli import main
from pellipse.dynamics import SIGMAS, ClosureStatus
from pellipse.geometry import ArcClass


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_import_needs_only_the_standard_library():
    src = str(Path(pellipse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = 'import sys, pellipse, pellipse.cli; print("numpy" in sys.modules)'
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_dataclasses_inspect_typing_or_random():
    # a fresh process pays for every module the CLI imports: the value
    # types are named tuples, and annotations are never evaluated, so
    # none of these heavy modules is loaded (-S: no site hooks either)
    src = str(Path(pellipse.__file__).resolve().parents[1])
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pellipse.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'random'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, src], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_solve_prints_the_same_bytes_every_time(capsys):
    # the validation starts are a pure function of the caustic: no random
    # source is left in the solvers or the command line
    argv = ("solve", "--n", "7", "--a", "7/1000", "--b", "3/1000")
    assert run(capsys, *argv) == run(capsys, *argv)
    for module in (caustics, cli):
        tree = ast.parse(inspect.getsource(module))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "random" not in imported, module.__name__


def test_solve_closed_form_values(capsys):
    rc, out = run(capsys, "solve", "--n", "4", "--a", "5", "--b", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "periodic" and doc["n"] == 4
    gammas = sorted(r["gamma"] for r in doc["caustics"])
    assert gammas == pytest.approx([-7.5, -1.875, 1.875], rel=1e-12)
    assert all(r["validated"] for r in doc["caustics"])
    exact = {r["gamma_exact"] for r in doc["caustics"]}
    assert exact == {"-15/2", "-15/8", "15/8"}


def test_solve_elliptic_cases(capsys):
    rc, out = run(capsys, "solve", "--n", "3", "--a", "6", "--b", "3", "--elliptic")
    assert rc == 0
    doc = json.loads(out)
    assert doc["kind"] == "elliptic"
    by_case = {r["case"]: r["gamma"] for r in doc["caustics"]}
    assert by_case["d"] == pytest.approx(-3.1595918, abs=1e-6)
    assert set(by_case) <= {"a", "b", "d", "e"}


def test_solve_symmetric_ellipse(capsys):
    rc, out = run(capsys, "solve", "--n", "3", "--a", "1", "--b", "1")
    assert rc == 0
    gammas = sorted(r["gamma"] for r in json.loads(out)["caustics"])
    assert gammas[0] == pytest.approx(-gammas[1], rel=1e-12)
    assert gammas[1] == pytest.approx(0.8660254037844386, rel=1e-12)


def test_solve_output_is_byte_stable(capsys):
    _, out1 = run(capsys, "solve", "--n", "5", "--a", "6", "--b", "4")
    _, out2 = run(capsys, "solve", "--n", "5", "--a", "6", "--b", "4")
    assert out1 == out2


# ---------------------------------------------------------------------------
# the writer: _emit prints what json.dumps(doc, sort_keys=True, indent=2) does
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5,
                1e-4, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_EDGE_FLOATS))
_ANY_FLOAT = st.one_of(_FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(), _ANY_FLOAT, st.text(max_size=8))
_ARCS = st.sampled_from([arc.value for arc in ArcClass])


@st.composite
def _simulate_docs(draw):
    # float rows as a Trajectory holds them (tuples) or as json reads them
    # (lists); one doc in four has non-finite coordinates, the fallback path
    coord = _ANY_FLOAT if draw(st.integers(0, 3)) == 0 else _FINITE
    rows = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))
    shape = draw(st.sampled_from([tuple, list]))
    doc = {
        "a": draw(_FINITE),
        "b": draw(_FINITE),
        "gamma": draw(st.one_of(_FINITE, st.sampled_from(["inf", "all"]))),
        "segment_type": draw(st.sampled_from(["SpaceLike", "TimeLike", "LightLike"])),
        "vertices": shape(shape(row) for row in rows),
        "arc_classes": draw(st.lists(_ARCS, min_size=len(rows), max_size=len(rows))),
        "closure": draw(st.one_of(st.none(), st.fixed_dictionaries(
            {"tag": st.sampled_from(["Periodic", "EllipticPeriodic"]),
             "n": st.integers(1, 2000), "sigma": st.one_of(st.none(), st.sampled_from(SIGMAS))}))),
        "command": "simulate",
    }
    if draw(st.booleans()):
        doc["svg"] = draw(st.text(max_size=12))
    return doc


_SOLVE_DOCS = st.fixed_dictionaries({
    "command": st.just("solve"), "a": _FINITE, "b": _FINITE, "n": st.integers(3, 12),
    "kind": st.sampled_from(["periodic", "elliptic"]),
    "caustics": st.lists(st.fixed_dictionaries({
        "gamma": _FINITE, "conic": st.text(max_size=10), "n": st.integers(3, 12),
        "n1": st.one_of(st.none(), st.integers(0, 12)), "validated": st.booleans(),
        "gamma_exact": st.one_of(st.none(), st.text(max_size=10))}), max_size=4),
    "discarded": st.lists(st.fixed_dictionaries({"gamma": _FINITE, "reason": st.text()}), max_size=3),
})
_CERTIFY_DOCS = st.fixed_dictionaries({
    "command": st.just("certify"), "n": st.integers(3, 12), "gamma": _ANY_FLOAT,
    "c": st.lists(_ANY_FLOAT, min_size=4, max_size=4), "p_hat": st.lists(_ANY_FLOAT, max_size=13),
    "q_hat": st.lists(_ANY_FLOAT, max_size=12), "residual": _FINITE,
    "tau1": st.integers(0, 12), "tau2": st.integers(0, 12),
    "partition": st.lists(st.integers(0, 12), min_size=2, max_size=2), "kln_ratio": _FINITE,
})
# top-level lists of every other shape: strings that need escapes, mixed
# scalars, rows that are no float pairs, nested containers
_OTHER_DOCS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(
        _SCALAR,
        st.lists(st.text()),
        st.lists(_SCALAR),
        st.lists(st.lists(_SCALAR, max_size=3)),
        st.lists(st.tuples(_ANY_FLOAT, st.one_of(_ANY_FLOAT, st.integers(), st.booleans()))),
        st.lists(st.dictionaries(st.text(max_size=3), _SCALAR, max_size=2)),
        st.lists(st.dictionaries(_FINITE, st.integers(), min_size=2, max_size=2)),
        st.lists(st.lists(st.lists(_FINITE, max_size=2), max_size=2)),
    ),
    max_size=5,
)


@settings(max_examples=300)
@given(doc=st.one_of(_simulate_docs(), _SOLVE_DOCS, _CERTIFY_DOCS, _OTHER_DOCS))
def test_emit_prints_what_json_dumps_does(doc):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_emit_writes_float_rows_without_json(monkeypatch):
    # a trajectory's vertices reach _emit as the Trajectory's own float
    # pairs, and json's indented encoder never sees them
    doc = {"vertices": ((1.0, -0.0), (5e-324, 1e16)), "arc_classes": ["TouchPoint"] * 2}
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    seen = []
    dumps = json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda obj, **kw: seen.append(obj) or dumps(obj, **kw))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc)
    assert out.getvalue() == expected
    skeletons = [obj for obj in seen if isinstance(obj, dict)]
    assert [obj["vertices"] for obj in skeletons] == [None]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("solve-n5-int", "solve --n 5 --a 6 --b 4"),
        ("solve-n4-fraction", "solve --n 4 --a 4/3 --b 2"),
        ("solve-n5-decimal", "solve --n 5 --a 2.3 --b 10.4"),
        ("solve-n7-scaled", "solve --n 7 --a 7/1000 --b 3/1000"),
        ("solve-elliptic-n5", "solve --elliptic --n 5 --a 5 --b 6"),
        # the float scan: "already periodic with period 3" discards
        ("solve-n9-scan", "solve --n 9 --a 3 --b 2"),
        # the float scan at an even period: hyperbola caustics
        ("solve-n10-hyperbola", "solve --n 10 --a 41/7 --b 7/2"),
        # elliptic hyperbola cases d and e
        ("solve-elliptic-n3", "solve --elliptic --n 3 --a 6 --b 3"),
        # discards in order: a degenerate conic, then two roots already
        # periodic with period 3
        ("solve-n9-degenerate", "solve --n 9 --a 12 --b 3"),
        # the light-like root near u = 0 with no sign change in reach, then
        # two roots already periodic with period 3
        ("solve-n6-lightlike", "solve --n 6 --a 3/10 --b 9/10"),
        # a large period: blocks up to 12 x 12 on every landed root
        ("solve-n24-int", "solve --n 24 --a 3 --b 2"),
        ("certify-n3-exact", "certify --a 13 --b 120 --gamma=4680/361 --n 3"),
        ("certify-n5-snap", "certify --a 74/7 --b 25/9 --gamma=-2.778 --n 5"),
        # two roots within 1e-3 of the caption: the first, 1.99917..., wins
        ("certify-n8-two-roots", "certify --a 2 --b 10 --gamma=2.001 --n 8"),
        # the residual 1.36e-44 holds only if the Pell lift reuses the
        # Decimal values of the Newton polish: the axes' 50-digit quotients
        ("certify-n9-polish", "certify --a 88/9 --b 16/9 --gamma=0.2140695596515073 --n 9"),
        # the README example: an even period, exact
        ("certify-n4-exact", "certify --a 5 --b 3 --gamma 15/8 --n 4"),
        # an even-period Newton polish on a hyperbola caustic
        ("certify-n10-polish", "certify --a 41/7 --b 7/2 --gamma=-4.4169013303521005 --n 10"),
        # the light-like suite: the Pell identity on float axes
        ("checks-lightlike", "checks --suite lightlike"),
        # the discriminant identities on the generated closure polynomials
        ("checks-discriminants", "checks --suite discriminants"),
        # the Zolotarev chain, on the complete integral by the AGM
        ("checks-zolotarev3", "checks --suite zolotarev3"),
        # two 2000-step trajectories of the simulate benchmark pool
        (
            "simulate-ellipse-pos",
            "simulate --a 9 --b 7 --x0=1.9164665779881207 --y0=2.035520435449195"
            " --dx=-1.0260135879149117 --dy=-4.5620387755829 --steps 2000",
        ),
        (
            "simulate-hyperbola-x",
            "simulate --a 7 --b 11 --x0=0.38315004075609105 --y0=-3.2816623946877606"
            " --dx=-2.9682901781815314 --dy=2.5758138507764805 --steps 2000",
        ),
        # an elliptic-periodic closure and its figure, simulate-svg.svg
        (
            "simulate-svg",
            "simulate --a 10 --b 2 --x0=3.1166005338873193 --y0=0.23949994245230122"
            " --dx=-5.177385578678909 --dy=-1.312175569020121 --steps 8 --svg fig.svg",
        ),
    ],
)
def test_solve_output_matches_golden(capsys, monkeypatch, tmp_path, name, argv):
    # tests/golden holds the recorded stdout of each command: solve,
    # certify, checks and simulate output, and the SVG figure of a
    # simulate --svg run, must not change by a single byte
    monkeypatch.chdir(tmp_path)
    rc, out = run(capsys, *argv.split())
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text()
    if "--svg" in argv:
        assert (tmp_path / "fig.svg").read_text() == (GOLDEN / f"{name}.svg").read_text()


def test_tolerances_ignore_the_environment(capsys, monkeypatch):
    # the tolerances are named constants: no environment variable moves
    # them, and none can make a command fail
    monkeypatch.setenv("PELLIPSE_EPSILON", "junk")
    rc, out = run(capsys, *"solve --n 5 --a 6 --b 4".split())
    assert rc == 0
    assert out == (GOLDEN / "solve-n5-int.json").read_text()


def test_no_public_callable_takes_eps():
    for name in pellipse.__all__:
        obj = getattr(pellipse, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to inspect
            continue
        assert "eps" not in params, name
    # the solvers seed their simulated starts themselves
    for solver in (
        pellipse.periodic_caustics,
        pellipse.elliptic_caustics,
        pellipse.generic_caustic_scan,
    ):
        params = inspect.signature(solver).parameters
        assert list(params) == ["E", "n", "discarded"]
        assert params["discarded"].kind is inspect.Parameter.KEYWORD_ONLY


def test_every_name_in_all_resolves():
    names = [f"pellipse.{m.name}" for m in pkgutil.iter_modules(pellipse.__path__)]
    for name in ["pellipse", *names]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), (name, attr)


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        rc, _ = run(capsys, "checks", "--suite", "zolotarev3")
        assert rc == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_snap_needs_no_validation(monkeypatch):
    # the snap only needs the landed roots of the closure condition: no
    # verdict and no simulated closure
    calls = []

    def counted(name):
        fn = getattr(caustics, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(caustics, name, wrapper)

    counted("_sim_closure")
    counted("_results")
    E = BoundaryEllipse(Fraction(74, 7), Fraction(25, 9))
    snapped = cli._snap_gamma(E, -2.778, 5)
    assert calls == []
    assert snapped == pytest.approx(-2.778, abs=1e-3) and snapped != -2.778
    # periods outside 3..8 and exact inputs pass through
    assert cli._snap_gamma(E, -2.778, 9) == -2.778
    assert cli._snap_gamma(E, Fraction(-2778, 1000), 5) == Fraction(-2778, 1000)


def _full_scan_snap(E, gamma, n):
    """The snap's rule over every landed root: the first ascending within tolerance."""
    for root, exact, _ in caustics._roots(E, n, False):
        if abs(gamma - root) <= 1e-3 * abs(root):
            return root if exact is None else exact
    return gamma


#: Axes for the snap checks: integer, fraction and 10**k-scaled, with the
#: two-root captions (2, 10) n = 8 and (35/3, 3/2) n = 8.
_SNAP_AXES = [
    (3, 2),
    (2, 10),
    (Fraction(35, 3), Fraction(3, 2)),
    (Fraction(74, 7), Fraction(25, 9)),
    (6, 4),
    (3000, 2000),
    (Fraction(7, 1000), Fraction(3, 1000)),
]


@settings(max_examples=80, deadline=None)
@given(
    axes=st.sampled_from(_SNAP_AXES),
    n=st.integers(3, 8),
    where=st.sampled_from(["root", "-b", "0", "a"]),
    pick=st.integers(0, 50),
    t=st.floats(-3e-3, 3e-3),
)
def test_windowed_snap_is_the_full_scan_rule(axes, n, where, pick, t):
    # 4-digit captions near a root, and near -b, 0 and a, whose windows
    # straddle them: the windowed snap returns what the rule over every
    # landed root returns
    E = BoundaryEllipse(*axes)
    a, b = float(E.a), float(E.b)
    roots = [r[0] for r in caustics._roots(E, n, False)] or [a / 2]
    centre = {"root": roots[pick % len(roots)], "-b": -b, "0": 0.0, "a": a}[where]
    caption = float(f"{centre * (1 + t) + t * min(a, b):.4g}")
    assert cli._snap_gamma(E, caption, n) == _full_scan_snap(E, caption, n)


def test_snap_lands_only_the_roots_in_its_window(monkeypatch):
    located, landed = [], []
    level_roots, land = caustics._level_roots, cayley._landed

    def recorded_roots(*args):
        located.extend(out := level_roots(*args))
        return out

    def recorded_landing(det, gamma):
        landed.append(gamma)
        return land(det, gamma)

    monkeypatch.setattr(caustics, "_level_roots", recorded_roots)
    monkeypatch.setattr(cayley, "_landed", recorded_landing)
    E = BoundaryEllipse(2, 10)
    list(caustics._roots(E, 8, False))
    assert len(located) == len(landed) == 9  # three of them close after 4 steps
    # captions near two roots (on both sides of a), near one, straddling
    # -b, and near none; landing stops at the first root within tolerance
    for caption, count, lands in ((2.001, 2, 1), (-42.91, 1, 1), (-10.01, 0, 0), (1.0, 0, 0)):
        located.clear()
        landed.clear()
        cli._snap_gamma(E, caption, 8)
        width = 2e-3 * abs(caption)
        assert (len(located), len(landed)) == (count, lands), caption
        assert all(abs(g - caption) <= width for g, _ in located)


def test_rho_at_infinity_only_for_the_hyperbola_ranges(monkeypatch):
    # no range reads rho at gamma = +-inf: the hyperbolas are one range in
    # u = 1/gamma, whose ends carry rho = 0 and 1, so u = 0 is an inner
    # point like any other; a periodic solve of odd n admits no root on it,
    # a snap window inside (0, a) does not search it, and an even period
    # locates its roots there without reading rho at u = 0
    gammas, rho = [], caustics.rotation_ratio
    monkeypatch.setattr(caustics, "rotation_ratio", lambda *a: gammas.append(a[2]) or rho(*a))
    E = BoundaryEllipse(3, 2)
    for n, window in ((9, None), (7, None), (6, (1.0, 1.2)), (8, (0.5, 0.7))):
        gammas.clear()
        list(caustics._roots(E, n, False, window=window))
        assert gammas and math.inf not in gammas, n
    gammas.clear()
    assert cli._snap_gamma(E, 1.2, 6) == 1.2
    assert gammas and math.inf not in gammas
    gammas.clear()
    list(caustics._roots(E, 6, False))
    assert gammas and math.inf not in gammas and -math.inf not in gammas


def test_the_lightlike_root_is_listed_alike_on_either_bit_of_rho_at_infinity(capsys):
    # a/b = 3 is light-like, and the elliptic level set rho = 2/3 of n = 3
    # passes through u = 0.  The hyperbolas are one range in u, so the root
    # there is located whatever the last bit of rho(inf) on these axes, and
    # discarded on landing
    listed = []
    for a, b in (("5.7", "1.9"), ("9/1000", "3/1000")):
        rc, out = run(capsys, "solve", "--elliptic", "--n", "3", "--a", a, "--b", b)
        doc = json.loads(out)
        assert rc == 0 and len(doc["caustics"]) == 3
        listed.append([d["reason"] for d in doc["discarded"]])
    assert listed[0] == listed[1] == [
        "no sign change of the closure determinant within 1048576 float steps"
    ]


@pytest.mark.parametrize("argv", ["solve --n 4 --a 2 --b 2", "solve --elliptic --n 2 --a 2 --b 2"])
def test_the_root_at_u_zero_is_discarded_in_strict_json(capsys, argv):
    # on a = b the locator meets u = 0 exactly: the light-like root is
    # listed among the discards with gamma "inf", as simulate writes it,
    # and the output stays standard JSON, without Infinity or NaN
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    rc, out = run(capsys, *argv.split())
    doc = json.loads(out, parse_constant=reject)
    assert rc == 0 and [c["gamma"] for c in doc["caustics"]] == [-1.0, 1.0]
    assert [d["gamma"] for d in doc["discarded"]] == ["inf"]
    assert "u = 0" in doc["discarded"][0]["reason"]


def test_solve_recovers_large_rational_roots(capsys):
    # at |gamma| ~ 1e20 the float spacing is 2**13, so no float determines
    # the root 2e20/3 by its nearness: the exact secant through the
    # rounding interval, with twice the float's digits, does
    rc, out = run(capsys, "solve", "--n", "4", "--a", "1e20", "--b", "2e20")
    assert rc == 0
    exact = [c["gamma_exact"] for c in json.loads(out)["caustics"]]
    assert exact == ["-200000000000000000000/3", "200000000000000000000/3", "200000000000000000000"]


@pytest.mark.parametrize(
    "value",
    ["inf", "-inf", "nan", "1e400", str(10**400), f"{10**400}/1"],
    ids=["inf", "-inf", "nan", "1e400", "int-401-digits", "fraction-401-digits"],
)
@pytest.mark.parametrize("option", ["--a", "--b"])
def test_non_finite_scalar_exits_2(capsys, option, value):
    args = {"--a": "3", "--b": "2", option: value}
    rc, out = run(capsys, "solve", "--n", "3", *(f"{k}={v}" for k, v in args.items()))
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "DomainError" and "finite" in doc["message"]


def test_certify_axis_beyond_float_range_exits_2(capsys):
    rc, out = run(capsys, "certify", "--a", f"{10**400}/1", "--b", "2", "--gamma", "1", "--n", "3")
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "DomainError" and "finite" in doc["message"]


@pytest.mark.parametrize(
    "command, rest",
    [
        ("solve", ["--n", "3"]),
        ("certify", ["--n", "3", "--gamma", "2.3323"]),
        ("simulate", ["--x0", "1", "--y0", "1", "--dx", "1", "--dy", "0", "--steps", "3"]),
    ],
    ids=["solve", "certify", "simulate"],
)
@pytest.mark.parametrize(
    "axes",
    [
        ["--a", "-inf", "--b", "2"],
        ["--a", "1/0", "--b", "2"],
        ["--a", "abc", "--b", "2"],
        ["--a", "3"],
    ],
    ids=["-inf-token", "zero-denominator", "not-a-number", "missing-option"],
)
def test_usage_error_exits_2_with_json(capsys, command, rest, axes):
    rc, out = run(capsys, command, *axes, *rest)
    assert rc == 2
    assert json.loads(out)["error"] == "DomainError"


def test_decimal_axes_are_read_exactly(capsys):
    # 5.7 is 57/10, so the n = 4 roots are the exact rationals -ab/(a-b)
    # and +-ab/(a+b); the float image of the axes would hide them
    rc, out = run(capsys, "solve", "--n", "4", "--a", "5.7", "--b", "1.9")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["a"], doc["b"]) == (5.7, 1.9)
    rows = [(r["gamma"], r["gamma_exact"]) for r in doc["caustics"]]
    assert rows == [(-2.85, "-57/20"), (-1.425, "-57/40"), (1.425, "57/40")]


@pytest.mark.parametrize(
    "command, rest",
    [
        ("solve", ["--n", "3"]),
        ("certify", ["--n", "3", "--gamma", "2.3323"]),
        ("simulate", ["--x0", "1", "--y0", "1", "--dx", "1", "--dy", "0", "--steps", "3"]),
    ],
    ids=["solve", "certify", "simulate"],
)
@pytest.mark.parametrize("axis", ["--a", "--b"])
@pytest.mark.parametrize("value", ["1e-400", "1e400", f"1/{10**400}"])
def test_axis_with_a_zero_or_infinite_float_image_exits_2(capsys, command, rest, axis, value):
    # the axes are exact, but trajectories and rotation numbers run on
    # their float image, which must be finite and nonzero
    args = {"--a": "3", "--b": "2", axis: value}
    rc, out = run(capsys, command, *(f"{k}={v}" for k, v in args.items()), *rest)
    assert rc == 2
    assert json.loads(out)["error"] == "DomainError"


@pytest.mark.parametrize(
    "argv, rc",
    [
        ("solve --n 3 --a 1e300 --b 2", 2),
        ("solve --n 3 --a 1e-310 --b 2", 2),
        ("solve --n 9 --a 1e-300 --b 2", 2),
        ("solve --elliptic --n 4 --a 1e150 --b 2", 0),
        ("solve --n 3 --a 1e-300 --b 2e-300", 0),
        ("solve --n 3 --a 1e308 --b 1e308", 0),
        ("solve --elliptic --n 3 --a 1e308 --b 1e308", 0),
        ("solve --n 7 --a 1e308 --b 9.88e-321", 2),
        ("solve --elliptic --n 6 --a 9.84498996065962e307 --b 9.84498996065962e307", 0),
    ],
)
def test_extreme_axes_end_in_a_documented_exit(capsys, argv, rc):
    # the rotation number holds products of band gaps, of the order of
    # a/b: in float range up to about 1e300 either way, a DomainError
    # beyond; never a traceback or a hang, also next to the float maximum,
    # where the starts of the simulated check run on rescaled axes and a
    # root's bracket has ends whose sum overflows
    got, out = run(capsys, *argv.split())
    assert got == rc
    doc = json.loads(out)
    assert (doc.get("error") == "DomainError") == (rc == 2)


#: Magnitudes spread evenly over the exponents of the float range, with its ends.
_MAGNITUDES = st.one_of(
    st.floats(-320, 308.25).map(lambda e: 10.0**e),
    st.sampled_from([1e-320, 1.0, sys.float_info.max]),
)
_NEAR_MAX = st.floats(1e307, sys.float_info.max)


@settings(max_examples=100, deadline=None)
@given(
    axes=st.one_of(
        st.tuples(_MAGNITUDES, _MAGNITUDES),
        _NEAR_MAX.map(lambda a: (a, a)),
        _NEAR_MAX.map(lambda a: (a, math.nextafter(a, 0))),
    ),
    gamma=st.tuples(_MAGNITUDES, st.sampled_from([-1, 1])).map(lambda t: t[0] * t[1]),
    command=st.sampled_from(["solve", "solve --elliptic", "certify", "simulate"]),
    n=st.integers(2, 8),
    angles=st.tuples(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi)),
)
def test_any_float_input_ends_in_a_documented_exit(axes, gamma, command, n, angles):
    # axes and gamma anywhere from 1e-320 to the float maximum, a ~ b next to
    # the maximum among them: every command exits with a documented code and
    # prints JSON, never a traceback or a hang
    a, b = axes
    argv = [*command.split(), f"--a={a!r}", f"--b={b!r}"]
    if command == "certify":
        argv += [f"--gamma={gamma!r}", "--n", str(n)]
    elif command == "simulate":
        t, s = angles
        x0, y0 = math.sqrt(a) * math.cos(t), math.sqrt(b) * math.sin(t)
        argv += [f"--x0={x0!r}", f"--y0={y0!r}", f"--dx={math.cos(s)!r}", f"--dy={math.sin(s)!r}"]
        argv += ["--steps", "5"]
    else:
        argv += ["--n", str(n)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    assert rc in (0, 2, 3, 4, 5, 6), argv
    json.loads(out.getvalue())


def test_scalar_fraction_parsing(capsys):
    rc, out = run(capsys, "solve", "--n", "4", "--a", "4/3", "--b", "2")
    assert rc == 0
    exact = {r["gamma_exact"] for r in json.loads(out)["caustics"]}
    assert "4/5" in exact and "-4/5" in exact


def test_simulate_periodic_closure(capsys):
    # a start on the 3-periodic caustic gamma_1(3, 2), chosen generically so
    # no mirror closure precedes the full period
    rc, out = run(
        capsys,
        "simulate",
        "--a", "3", "--b", "2",
        "--x0", "1.6736367831520975", "--y0", "0.36417936796794614",
        "--dx=-0.9629031000754975", "--dy=-1.6538453794454322",
        "--steps", "6",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["closure"] == {"tag": "Periodic", "n": 3, "sigma": None}
    assert doc["gamma"] == pytest.approx(2.3322714928995234, abs=1e-6)
    assert len(doc["vertices"]) == 7
    assert set(doc["arc_classes"]) <= {
        "RelativisticEllipseArc",
        "RelativisticHyperbolaArc",
    }


def test_simulate_unwritable_svg_exits_2(capsys, tmp_path):
    path = str(tmp_path / "missing" / "f.svg")
    rc, out = run(
        capsys,
        "simulate",
        "--a", "3", "--b", "2",
        "--x0", "1.6736367831520975", "--y0", "0.36417936796794614",
        "--dx=-0.9629031000754975", "--dy=-1.6538453794454322",
        "--steps", "6", "--svg", path,
    )
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "DomainError"
    assert path in doc["message"] and "No such file or directory" in doc["message"]


def test_simulate_axes_beyond_float_range_exit_2(capsys):
    rc, out = run(
        capsys,
        "simulate",
        "--a", str(10**400), "--b", "2",
        "--x0", "0", "--y0", "1", "--dx", "1", "--dy", "0",
        "--steps", "3",
    )
    assert rc == 2
    assert json.loads(out)["error"] == "DomainError"


def test_simulate_lightlike_square(capsys):
    rc, out = run(
        capsys,
        "simulate",
        "--a", "1", "--b", "1",
        "--x0", "1", "--y0", "0",
        "--dx=-1", "--dy=-1",
        "--steps", "4",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["segment_type"] == "LightLike"
    assert doc["gamma"] == "inf"
    # a light-like square mirror-closes after two reflections
    assert doc["closure"] == {"tag": "EllipticPeriodic", "n": 2, "sigma": "flip-both"}


def test_simulate_failure_reports_step(capsys):
    rc, out = run(
        capsys,
        "simulate",
        "--a", "3", "--b", "2",
        "--x0", "1.7320508075688772", "--y0", "0",
        "--dx", "1", "--dy", "1",
        "--steps", "3",
    )
    assert rc == 3
    doc = json.loads(out)
    assert doc["error"] == "DegenerateChord" and doc["step"] == 1


_START = ["--a", "3", "--b", "2", "--x0=1.6546913374900216", "--y0=0.4179286842157663"]


@pytest.mark.parametrize(
    "direction, unit",
    [
        # a ray leaving the ellipse; before, a ZeroDivisionError traceback
        (["--dx=1e-320", "--dy=-1e-320"], ["--dx=1", "--dy=-1"]),
        # inward: before, a traceback, a vertex "not on the boundary
        # ellipse" and a DegenerateChord
        (["--dx=-1e-200", "--dy=3e-201"], ["--dx=-1", "--dy=0.3"]),
        (["--dx=-1e-160", "--dy=3e-161"], ["--dx=-1", "--dy=0.3"]),
        (["--dx=-1e200", "--dy=3e199"], ["--dx=-1", "--dy=0.3"]),
    ],
)
def test_the_size_of_the_start_direction_decides_nothing(capsys, direction, unit):
    # the decimal inputs are no exact multiples of the unit-size direction,
    # so the bits may differ and the orbits part slowly (1e-11 apart after
    # 50 steps, 1e-7 after 500); the exact property is in test_dynamics
    rc, out = run(capsys, "simulate", *_START, *direction, "--steps", "50")
    rc_unit, out_unit = run(capsys, "simulate", *_START, *unit, "--steps", "50")
    assert rc == rc_unit
    doc, ref = json.loads(out), json.loads(out_unit)
    if rc:
        assert rc == 3 and doc == ref and doc["error"] == "DegenerateChord"
        return
    assert doc["gamma"] == pytest.approx(ref["gamma"], rel=1e-12)
    assert (doc["segment_type"], doc["closure"]) == (ref["segment_type"], ref["closure"])
    assert collections.Counter(doc["arc_classes"]) == collections.Counter(ref["arc_classes"])
    size = max(abs(c) for xy in ref["vertices"] for c in xy)
    deviation = max(abs(c - e) for u, v in zip(doc["vertices"], ref["vertices"]) for c, e in zip(u, v))
    assert len(doc["vertices"]) == 51 and deviation <= 1e-9 * size


@pytest.mark.parametrize("dy", ["-1.000244140625", "-1.0000009536743164", "-1.0000000018626451"])
def test_nearly_light_like_directions_keep_their_caustic(capsys, dy):
    # a light-like direction tilted by 2**-12, 2**-20 and 2**-29: the first
    # chord's caustic is finite and far out, and later chords come within
    # LIGHTLIKE of light-like, where caustic_of_line gives inf.  They keep
    # the first chord's caustic; before, CausticDrift at segment 115, 37, 3
    rc, out = run(capsys, "simulate", *_START, "--dx=-1", f"--dy={dy}", "--steps", "400")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 401 and doc["segment_type"] == "TimeLike"


def test_a_chord_between_near_touch_points_keeps_its_caustic(capsys):
    # segment 1237 joins two vertices 2.7e-5 from touch points in |x|; the
    # quotient num/den of its caustic is 1.5e-5 off, relative, and the next
    # chord is back within 9e-9.  Before, CausticDrift at segment 1237
    rc, out = run(
        capsys, "simulate", "--a", "9", "--b", "5",
        "--x0=-2.797426926880095", "--y0=-0.8077412225755735",
        "--dx=-0.11762528835163844", "--dy=1.3360880060387346", "--steps", "2000",
    )
    assert rc == 0
    assert len(json.loads(out)["vertices"]) == 2001


def test_certify_exact_rational(capsys):
    rc, out = run(capsys, "certify", "--a", "2", "--b", "4", "--gamma", "4/3", "--n", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["residual"] == 0.0
    assert doc["partition"] == [4, 2]
    assert (doc["tau1"], doc["tau2"]) == (1, 1)
    assert doc["kln_ratio"] == pytest.approx(0.5, abs=1e-9)


def test_certify_snaps_caption_gamma(capsys):
    rc, out = run(capsys, "certify", "--a", "7", "--b", "5", "--gamma=-4.589", "--n", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["partition"] == [3, 1]
    assert abs(doc["residual"]) <= 1e-8


def test_certify_prints_the_root_that_solve_lands(capsys):
    # the polish runs on the 50-digit images of the axes as given, 34/3 and
    # 23/4, not of their floats, so certify's gamma is the correctly
    # rounded root that solve lands; on the float images it ended ...596
    rc, out = run(capsys, "certify", "--a", "34/3", "--b", "23/4", "--gamma=7.970", "--n", "3")
    assert rc == 0
    gamma = json.loads(out)["gamma"]
    assert gamma == 7.970471655692595
    rc, out = run(capsys, "solve", "--a", "34/3", "--b", "23/4", "--n", "3")
    assert rc == 0 and gamma in [c["gamma"] for c in json.loads(out)["caustics"]]


def test_certify_snaps_below_unit_scale_as_at_unit_scale(capsys):
    # the snap's window and tolerance are relative: the caption 2.332 of
    # (3, 2), scaled by 1e-4, snaps onto the same root, scaled, with the
    # same partition; an absolute 1e-3 took the first root of the window,
    # the (3, 1) caustic -1.85e-4
    argv = ("--a", "3/10000", "--b", "2/10000", "--n", "3")
    rc, out = run(capsys, "certify", *argv, "--gamma=2.332e-4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["partition"] == [3, 2]
    assert doc["gamma"] == 0.00023322714928995233
    rc, out = run(capsys, "solve", *argv)
    assert rc == 0 and doc["gamma"] in [c["gamma"] for c in json.loads(out)["caustics"]]


def test_certify_rejects_a_polish_that_leaves_its_range(capsys, monkeypatch):
    # a Newton polish that ends 1e-3 |gamma| away is no certificate
    monkeypatch.setattr(extremal, "_newton_polish", lambda a, b, g, *_: g * Decimal("1.001"))
    rc, out = run(capsys, "certify", "--a", "3", "--b", "2", "--gamma=2.332", "--n", "3")
    assert rc == 4
    doc = json.loads(out)
    assert doc["error"] == "NoCertificate" and "polishing range" in doc["message"]


def test_certify_rejects_a_simulated_partition_that_disagrees(capsys, monkeypatch):
    # the certificate proves n1 = tau2 + 1; a simulated trajectory that
    # counts another n1 is an error naming both partitions, never resolved
    # in favour of either
    simulate = caustics.simulate

    def every_bounce_on_an_ellipse_arc(*args):
        T = simulate(*args)
        arcs = (ArcClass.RelativisticEllipseArc,) * len(T.arc_classes)
        return T._replace(arc_classes=arcs)

    monkeypatch.setattr(caustics, "simulate", every_bounce_on_an_ellipse_arc)
    rc, out = run(capsys, "certify", "--a", "2", "--b", "4", "--gamma", "4/3", "--n", "4")
    assert rc == 5
    doc = json.loads(out)
    assert doc["error"] == "CertificateInvalid"
    assert "[4, 4]" in doc["message"] and "[4, 2]" in doc["message"]


def test_certify_rejects_a_trajectory_that_does_not_close(capsys, monkeypatch):
    monkeypatch.setattr(caustics, "closure_status", lambda *args: ClosureStatus.open_())
    rc, out = run(capsys, "certify", "--a", "2", "--b", "4", "--gamma", "4/3", "--n", "4")
    assert rc == 5
    doc = json.loads(out)
    assert doc["error"] == "CertificateInvalid"
    assert "failed to close" in doc["message"] and "Open" in doc["message"]


@pytest.mark.parametrize(
    "a, b, lam",
    [("1e60", "2e60", 1e60), ("1e200", "1e200", 1e200), ("1e-100", "2e-100", 1e-100)],
)
def test_solve_roots_keep_their_digits_at_extreme_scales(capsys, a, b, lam):
    # refinement stops relative to the bracket, not to the Cauchy bound of
    # the isolation: the roots scale with the axes, reported as caustics
    # or (below DEGENERATE) as discards
    rc, out = run(capsys, "solve", "--n", "3", "--a", a, "--b", b)
    assert rc == 0
    doc = json.loads(out)
    got = sorted(r["gamma"] for r in doc["caustics"] + doc["discarded"])
    unit = caustics.closed_form_caustics(BoundaryEllipse(1, float(b) / float(a)), 3)
    assert got == pytest.approx([lam * g for g in unit], rel=1e-12, abs=0)


def test_solve_n9_finds_the_extreme_partitions(capsys):
    # (1, 8) lies within 3.5e-7 of -b and (8, 1) within 4e-5 of a, inside
    # the margin that a sampled determinant scan skips
    rc, out = run(capsys, "solve", "--n", "9", "--a", "6", "--b", "4")
    assert rc == 0
    rows = [(c["n1"], c["validated"]) for c in json.loads(out)["caustics"]]
    assert rows == [(1, True), (5, True), (7, True), (2, True), (4, True), (8, True)]


def test_solve_n10_reaches_a_far_hyperbola_caustic(capsys):
    # the (10, 6) hyperbola caustic lies beyond 4 (a + b) = 37.4
    rc, out = run(capsys, "solve", "--n", "10", "--a", "41/7", "--b", "7/2")
    assert rc == 0
    far = [c for c in json.loads(out)["caustics"] if c["gamma"] > 37.5]
    assert len(far) == 1
    assert far[0]["gamma"] == pytest.approx(38.9162633, abs=1e-7)
    assert (far[0]["n1"], far[0]["n2"], far[0]["validated"]) == (6, 4, True)


#: Validated caustics of period 9..12 that a 4,000-point scan of the float
#: determinant missed, from the benchmark's job pools: near -b, 0 and a,
#: and beyond 4 (a + b).  (n, a, b, gamma, n1)
_SCAN_MISSES = [
    (9, "12", "8", -7.999997246434367, 1),
    (9, "5", "7", 4.999997336352125, 8),
    (9, "17/2", "37/7", -5.285713121213698, 1),
    (9, "10.4", "6.8", 10.399543261107159, 8),
    (9, "12000", "7000", -6999.99898132604, 1),
    (10, "41/4", "11/9", -1.2222254698857422, 2),
    (10, "12.1", "4.7", -4.7009885268432114, 2),
    (10, "4", "2", -54.48899654749337, 6),
    (10, "9/4", "13/3", 198.715371311931, 4),
    (10, "7/1000", "12/1000", -0.09752518627793913, 4),
    (10, "10000", "5000", -136222.49136873492, 6),
    (11, "11", "9", 10.999994445003246, 10),
    (11, "58/7", "19/2", -9.499996930155437, 1),
    (11, "25/9", "7/6", 2.777683249446066, 10),
    (11, "6.6", "6.9", -6.899998844659908, 1),
    (12, "10", "2", -2.000001714616146, 2),
    (12, "11/10", "3/10", -0.2999989319690992, 2),
    (12, "11/10", "3/10", -0.30000106805145244, 2),
    (12, "19/7", "13/2", 2.7142217118448633, 10),
    (12, "700", "1100", 700.097359637607, 10),
]


@pytest.mark.parametrize("n, a, b, gamma, n1", _SCAN_MISSES)
def test_solve_finds_caustics_the_scan_missed(capsys, n, a, b, gamma, n1):
    rc, out = run(capsys, "solve", "--n", str(n), "--a", a, "--b", b)
    assert rc == 0
    hits = [c for c in json.loads(out)["caustics"] if c["gamma"] == pytest.approx(gamma, rel=1e-9)]
    assert [(c["n1"], c["n2"], c["validated"]) for c in hits] == [(n1, n - n1, True)]


def test_solve_n9_at_scale_1e_6_reports_its_caustics(capsys):
    # the sampled scan raised DomainError here, on a grid point within
    # DEGENERATE of -b; the level sets find the four caustics of (3, 2)
    # scaled by 1e-6 (their validation still fails at this scale)
    rc, out = run(capsys, "solve", "--n", "9", "--a", "3e-6", "--b", "2e-6")
    assert rc == 0
    got = [c["gamma"] for c in json.loads(out)["caustics"]]
    unit = [1e-6 * r.gamma for r in caustics.periodic_caustics(BoundaryEllipse(3, 2), 9)]
    assert len(got) == 4 and all(any(g == pytest.approx(u, rel=1e-9) for u in unit) for g in got)


def test_certify_at_the_float_limit_exits_2(capsys):
    # the snap's table roots near 1e300 no longer overflow float(); gamma = a
    # is then a degenerate value
    rc, out = run(capsys, "certify", "--a", "1e300", "--b", "1e300", "--gamma=1e300", "--n", "3")
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"] == "DomainError" and "degenerate" in doc["message"]


def test_certify_next_to_a_degenerate_value_names_it(capsys):
    # rho is beyond the float range at the ends of the snap's window around
    # 1e-300, so the caption passes on unsnapped and the construction names
    # the degenerate value; a caption at a degenerate value that the snap
    # moves onto a root is still certified there
    rc, out = run(capsys, "certify", "--a", "3", "--b", "2", "--gamma=1e-300", "--n", "3")
    assert rc == 2
    assert json.loads(out) == {
        "error": "DomainError",
        "message": "gamma=1e-300 coincides with degenerate value 0",
    }
    rc, out = run(capsys, "certify", "--a", "11", "--b", "3", "--gamma=-3.000", "--n", "5")
    assert rc == 0 and -3.0 != json.loads(out)["gamma"] == pytest.approx(-3.0, rel=1e-3)


def test_certify_rejects_nonperiodic_gamma(capsys):
    rc, out = run(capsys, "certify", "--a", "3", "--b", "2", "--gamma", "1.0", "--n", "3")
    assert rc == 4
    assert json.loads(out)["error"] == "NoCertificate"


def test_certify_tests_an_exact_gamma_as_given(capsys):
    # 13 digits of the irrational 3-periodic root 2.3322714928995234...:
    # its float passes the closure test, the rational itself does not
    gamma = "--gamma=23322714928995/10000000000000"
    rc, out = run(capsys, "certify", "--a", "3", "--b", "2", gamma, "--n", "3")
    assert rc == 4
    assert json.loads(out)["error"] == "NoCertificate"


def test_checks_suites_all_pass(capsys):
    for suite in ("discriminants", "zolotarev3", "lightlike", "table"):
        rc, out = run(capsys, "checks", "--suite", suite)
        doc = json.loads(out)
        assert rc == 0 and doc["passed"], suite


def test_domain_error_exits_2(capsys):
    rc, out = run(capsys, "solve", "--n", "2", "--a", "3", "--b", "2")
    assert rc == 2
    assert json.loads(out)["error"] == "DomainError"
    rc, out = run(capsys, "solve", "--n", "4", "--a=-1", "--b", "2")
    assert rc == 2
