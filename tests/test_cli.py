"""End-to-end command-line interface behaviour."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pellipse
from pellipse import BoundaryEllipse, caustics, cli
from pellipse.cli import main
from pellipse.dynamics import ClosureStatus
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
        ("certify-n3-exact", "certify --a 13 --b 120 --gamma=4680/361 --n 3"),
        ("certify-n5-snap", "certify --a 74/7 --b 25/9 --gamma=-2.778 --n 5"),
        # the residual 4.38e-44 holds only if the Pell lift reuses the
        # Decimal values of the Newton polish, which converted via float
        ("certify-n9-polish", "certify --a 88/9 --b 16/9 --gamma=0.2140695596515073 --n 9"),
        # the README example: an even period, exact
        ("certify-n4-exact", "certify --a 5 --b 3 --gamma 15/8 --n 4"),
        # an even-period Newton polish on a hyperbola caustic
        ("certify-n10-polish", "certify --a 41/7 --b 7/2 --gamma=-4.4169013303521005 --n 10"),
        # the light-like suite: the Pell identity on float axes
        ("checks-lightlike", "checks --suite lightlike"),
    ],
)
def test_solve_output_matches_golden(capsys, name, argv):
    # tests/golden holds the recorded stdout of each command: solve,
    # certify and checks output must not change by a single byte
    rc, out = run(capsys, *argv.split())
    assert rc == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


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


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        rc, _ = run(capsys, "checks", "--suite", "zolotarev3")
        assert rc == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_snap_needs_no_validation(monkeypatch):
    # the snap only needs the roots of the condition polynomial: no
    # Hankel test and no simulated closure
    calls = []

    def counted(name):
        fn = getattr(caustics, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(caustics, name, wrapper)

    counted("_sim_closure")
    counted("is_periodic")
    E = BoundaryEllipse(Fraction(74, 7), Fraction(25, 9))
    snapped = cli._snap_gamma(E, -2.778, 5)
    assert calls == []
    assert snapped == pytest.approx(-2.778, abs=1e-3) and snapped != -2.778
    # periods without a table and exact inputs pass through
    assert cli._snap_gamma(E, -2.778, 9) == -2.778
    assert cli._snap_gamma(E, Fraction(-2778, 1000), 5) == Fraction(-2778, 1000)


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


def test_certify_rejects_a_simulated_partition_that_disagrees(capsys, monkeypatch):
    # the certificate proves n1 = tau2 + 1; a simulated trajectory that
    # counts another n1 is an error naming both partitions, never resolved
    # in favour of either
    simulate = caustics.simulate

    def every_bounce_on_an_ellipse_arc(*args):
        T = simulate(*args)
        arcs = (ArcClass.RelativisticEllipseArc,) * len(T.arc_classes)
        return dataclasses.replace(T, arc_classes=arcs)

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


def test_certify_rejects_nonperiodic_gamma(capsys):
    rc, out = run(capsys, "certify", "--a", "3", "--b", "2", "--gamma", "1.0", "--n", "3")
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
