"""Tests for the tilt function, its identities, and margin certification."""

import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
import mpmath as mp
from mpmath import iv

from conecert import cones, linearization, tilt
from conecert.exact import AngleDeg, Polynomial, QuadraticSurd

ANGLES_K = [
    (Fraction(100), Fraction(1)),
    (Fraction(120), Fraction(1, 2)),
    (Fraction(135), Fraction(1, 3)),
    (Fraction(150), Fraction(1, 4)),
]


def params_for(theta, k, n):
    return tilt.TiltParams(theta=AngleDeg.from_degrees(theta), k=k, n=n)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_params_dimensional_restriction():
    # Any k in (0, 1] is allowed in every dimension, above 1/(n-2) too.
    params_for(120, Fraction(1), 4)
    tilt.TiltParams(theta=AngleDeg.from_degrees(120), k=Fraction(1), n=2)
    with pytest.raises(ValueError):
        tilt.TiltParams(theta=AngleDeg.from_degrees(0), k=Fraction(1), n=2)
    with pytest.raises(ValueError):
        tilt.TiltParams(theta=AngleDeg.from_degrees(120), k=Fraction(2), n=2)


# Every public entry that takes a contact angle, called as (theta, orientation);
# those without an orientation ignore it, and classify takes the angle as a rational.
ANGLE_ENTRIES = {
    "TiltParams": lambda theta, orientation: tilt.TiltParams(theta, Fraction(1, 2), 3),
    "appendix_campaigns": lambda theta, orientation: tilt.appendix_campaigns(3, [(theta, orientation)], samples=1),
    "remainder_ratio_certified": lambda theta, orientation: linearization.remainder_ratio_certified(
        theta, directions=1
    ),
    "norm_equivalence_certified": lambda theta, orientation: linearization.norm_equivalence_certified(theta),
    "classify": lambda theta, orientation: cones.n_theta_table(Fraction(1, 10)).classify(
        theta.value.lo if isinstance(theta, AngleDeg) else theta
    ),
}
ORIENTED = {"appendix_campaigns"}
ANGLE_MESSAGE = "theta must lie strictly between 0 and 180 degrees"
BAD_INPUTS = {
    "theta=0": (AngleDeg.from_degrees(0), "up", ANGLE_MESSAGE),
    "theta=180": (AngleDeg.from_degrees(180), "up", ANGLE_MESSAGE),
    # Plain rationals outside [0, 180] meet the shared check before they become an AngleDeg.
    "theta=200": (Fraction(200), "up", ANGLE_MESSAGE),
    "theta=-5": (Fraction(-5), "up", ANGLE_MESSAGE),
    "sideways": (AngleDeg.from_degrees(120), "sideways", "orientation must be 'up' or 'down', got 'sideways'"),
}


@pytest.mark.parametrize(
    "entry,bad",
    [(entry, bad) for entry in ANGLE_ENTRIES for bad in BAD_INPUTS if bad != "sideways" or entry in ORIENTED],
    ids=lambda value: value,
)
def test_every_angle_entry_refuses_with_the_shared_message(entry, bad):
    theta, orientation, message = BAD_INPUTS[bad]
    with pytest.raises(ValueError, match=message):
        ANGLE_ENTRIES[entry](theta, orientation)


def test_default_k():
    assert tilt.default_k(2) == 1
    assert tilt.default_k(3) == 1
    assert tilt.default_k(4) == Fraction(1, 2)
    assert tilt.default_k(7) == Fraction(1, 5)
    with pytest.raises(ValueError):
        tilt.default_k(1)


# ---------------------------------------------------------------------------
# Pointwise tilt values
# ---------------------------------------------------------------------------


def _normalized(raw):
    norm = math.sqrt(sum(v * v for v in raw))
    return [v / norm for v in raw]


@pytest.mark.parametrize("orientation", ["up", "down"])
@pytest.mark.parametrize("theta,k", ANGLES_K)
def test_tilt_vanishes_exactly_at_reference_normals(theta, k, orientation):
    # At the reference normal (cos, 0, ..., +/-sin) afrak = cfrak = 0; the
    # components are floats, so g^2 is zero only to ~1e-16.
    params = params_for(theta, k, 3)
    sin_t = float(params.theta.sin())
    nu_last = sin_t if orientation == "up" else -sin_t
    assert abs(tilt._tilt_terms(params.cos_theta, nu_last, params.cos_theta, params.k_float).g2) <= 1e-14


def test_tilt_positive_away_from_reference():
    params = params_for(120, Fraction(1, 2), 3)
    nu = _normalized((0.3, 0.5, 0.2, 0.7))
    assert tilt._tilt_terms(nu[0], nu[-1], params.cos_theta, params.k_float).g2 > 0.01


# ---------------------------------------------------------------------------
# Identities: symbolic certificates are the ground truth, sampling corroborates
# ---------------------------------------------------------------------------


def test_symbolic_identity_certificates_all_hold():
    certs = tilt.symbolic_identity_certificates()
    assert certs == {
        "gradient_bound_identity": True,
        "projection_gram_identity": True,
        "frame_sum_identity": True,
        "wedge_sum_identity": True,
        "signed_gap_identity": True,
    }


@pytest.mark.parametrize(
    "mutant",
    [lambda n1, npp: (1 - n1 ** 2, n1 * npp, 1 - npp ** 2), lambda n1, npp: (1 - n1 ** 2, -n1 * npp, 1 - npp)],
    ids=["cross-term-sign", "last-entry-unsquared"],
)
def test_projection_gram_certificate_fails_a_mutated_closed_form(monkeypatch, mutant):
    tilt._symbolic_certificates.cache_clear()
    try:
        assert tilt.symbolic_identity_certificates()["projection_gram_identity"] is True
        monkeypatch.setattr(tilt, "_unit_normal_gram", mutant)
        tilt._symbolic_certificates.cache_clear()
        certs = tilt.symbolic_identity_certificates()
        assert certs["projection_gram_identity"] is False
        assert certs["gradient_bound_identity"] is True and certs["signed_gap_identity"] is True
    finally:
        tilt._symbolic_certificates.cache_clear()


def _kernel_outputs(k, c, s, n1, npp):
    t = tilt._tilt_terms(n1, npp, c, k)
    jfrak, gradient_defect = tilt._gradient_defect(n1, npp, k, t)
    sum_defect, wedge_defect = tilt._frame_defects(tilt._unit_normal_gram(n1, npp), npp, k, 1 - c ** 2, t)
    signed = tilt._signed_gap(n1 * c + npp * s, t.g2) - ((1 - k) * (n1 - c) ** 2 + (npp - s) ** 2)
    return [t.g2, jfrak, gradient_defect, sum_defect, wedge_defect, signed]


def test_polynomial_expansion_agrees_with_sympy():
    # The kernels expanded as exact polynomials equal sympy's expansion of the
    # same kernels on symbols: non-zero ones (g^2, jfrak, the unreduced signed
    # gap) term by term, and the identities' defects as zero.
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("k c S nu1 nulast", real=True)
    variables = Polynomial.variables(5)

    def as_sympy(poly):
        return sympy.Add(*[
            sympy.Rational(int(coeff.numerator), int(coeff.denominator))
            * sympy.Mul(*[x ** e for x, e in zip(symbols, exps)])
            for exps, coeff in poly.terms.items()
        ])

    for poly, expr in zip(_kernel_outputs(*variables), _kernel_outputs(*symbols)):
        assert sympy.expand(as_sympy(poly) - expr) == 0
    k, c, s, _, _ = symbols
    signed_poly = _kernel_outputs(*variables)[-1]
    signed_expr = sympy.expand(_kernel_outputs(*symbols)[-1])
    assert signed_poly != 0 and signed_expr != 0
    assert signed_poly.reduce_square(2, 1 - variables[1] ** 2) == 0
    assert sympy.expand(signed_expr.subs(s ** 2, 1 - c ** 2)) == 0


@given(
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=4, max_size=4),
    st.sampled_from(ANGLES_K),
)
@settings(max_examples=100, deadline=None)
def test_gradient_identity_residual_pointwise(raw, angle_k):
    if sum(abs(v) for v in raw) < 1e-3:
        raw = [1.0, 0.0, 0.0, 0.0]
    theta, k = angle_k
    params = params_for(theta, k, 3)
    nu = _normalized(raw)
    t = tilt._tilt_terms(nu[0], nu[-1], params.cos_theta, params.k_float)
    assert abs(tilt._gradient_defect(nu[0], nu[-1], params.k_float, t)[1]) <= 1e-12


@given(
    st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=4, max_size=4),
    st.sampled_from(ANGLES_K),
)
@settings(max_examples=100, deadline=None)
def test_frame_sum_identities_pointwise(raw, angle_k):
    if sum(abs(v) for v in raw) < 1e-3:
        raw = [0.5, 0.5, 0.5, 0.5]
    theta, k = angle_k
    params = params_for(theta, k, 3)
    nu = np.asarray([_normalized(raw)])
    t = tilt._tilt_terms(nu[:, 0], nu[:, -1], params.cos_theta, params.k_float)
    gram = tilt._tangent_projections(nu)
    sum_defect, wedge_defect = tilt._frame_defects(gram, nu[:, -1], params.k_float, params.sin_squared, t)
    g2 = t.g2[0]
    if g2 < 1e-6:
        return  # near the tilt zeros the frame normalisation degenerates
    assert abs(sum_defect[0]) / g2 <= 1e-9
    assert abs(wedge_defect[0]) / g2 <= 1e-9
    assert -1e-9 <= t.cfrak[0] / g2 <= 1 + 1e-9  # w = cfrak / g^2
    # The two identities are coupled: sum = 1 + wedge-sum.
    assert abs(sum_defect[0] - wedge_defect[0]) / g2 <= 1e-9


def test_identity_campaign_residuals_small():
    params = params_for(120, Fraction(1, 2), 3)
    res = tilt.identity_campaigns([params], samples=20_000, seed=42)[0]
    assert res.max_gradient_residual <= 1e-12
    assert res.max_frame_sum_residual <= 1e-10
    assert res.max_wedge_sum_residual <= 1e-10
    assert res.max_j_minus_g2 <= 1e-12
    assert res.samples == 20_000


def test_identity_campaign_deterministic():
    params = params_for(135, Fraction(1, 3), 4)
    a = tilt.identity_campaigns([params], samples=5_000, seed=7)
    b = tilt.identity_campaigns([params], samples=5_000, seed=7)
    assert a == b
    c = tilt.identity_campaigns([params], samples=5_000, seed=8)
    assert a != c


# ---------------------------------------------------------------------------
# Spectral constant and margin
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _iv_digits(dps=60):
    saved = iv.dps
    iv.dps = dps
    try:
        yield
    finally:
        iv.dps = saved


def _iv(x):
    """A rational, or an exact surd r + c sqrt(d), as an mpmath interval at the current precision."""
    if isinstance(x, QuadraticSurd):
        return _iv(x.rational) + _iv(x.coeff) * iv.sqrt(x.radicand)
    x = Fraction(x)
    return iv.mpf(x.numerator) / x.denominator


def _reference_margin(n, k, cos_t, sin_sq):
    """1 + k cos^2 - k|cos| - s(k, n, theta) from its definition, on mpmath intervals:
    s = f_n(1 - k sin^2 theta) with f_n(t) = [(n-1)(1+t) + sqrt(4t + (n-1)^2 (1-t)^2)] / (2n)."""
    k = _iv(k)
    t = 1 - k * sin_sq
    s = ((n - 1) * (1 + t) + iv.sqrt(4 * t + (n - 1) ** 2 * (1 - t) ** 2)) / (2 * n)
    return 1 + k * cos_t ** 2 - k * abs(cos_t) - s


def _reference_margin_at_angle(n, k, degrees):
    """The reference margin at a rational angle in degrees, at 60 digits."""
    with _iv_digits():
        radians = iv.pi * _iv(degrees) / 180
        return _reference_margin(n, k, iv.cos(radians), iv.sin(radians) ** 2)


def _reference_margin_at_abs_cos(n, k, v):
    """The reference margin at an angle with |cos theta| = v, a rational or an exact surd, at 60 digits."""
    with _iv_digits():
        cos_t = _iv(v)
        return _reference_margin(n, k, cos_t, 1 - cos_t ** 2)


def _margin_quartic(n, k, v):
    """L^2 - D at v = |cos theta|, which has the sign of the margin."""
    lead, radicand = tilt._margin_terms(v, k, n)
    return lead ** 2 - radicand


def _r_at(n, k, v):
    """R(v) = k v^2 - k(n-1) v + 1, the factor of L^2 - D that decides the margin's sign."""
    return k * v * v - k * (n - 1) * v + 1


def _encloses(interval, x):
    """Whether a reference margin encloses the rational x."""
    with _iv_digits():
        return _iv(x) in interval


def test_f_of_t_exact_at_perfect_square_radicands():
    # margin = (L - sqrt(D)) / (2n) with s = f_n(t) = [(n-1)(1+t) + sqrt(D)] / (2n);
    # the kernel's D is a rational square at the poles, and for n = 2, k = 1 at 90 degrees.
    for n in (2, 3, 5, 9):
        for k in (Fraction(1), Fraction(1, 3)):
            # v = 1: t = 1 and D = 4, so f_n(1) = 1 and the margin is exactly 0.
            assert tilt._margin_terms(Fraction(1), k, n) == (2, 4)
            assert _encloses(_reference_margin_at_abs_cos(n, k, 1), 0)
    # n = 2, k = 1, v = 0: t = 0 and D = 1, so f_2(0) = 1/2 and the margin is (3 - 1)/4 = 1/2.
    assert tilt._margin_terms(Fraction(0), Fraction(1), 2) == (3, 1)
    assert _encloses(_reference_margin_at_angle(2, Fraction(1), 90), Fraction(1, 2))


def test_s_constant_90_degrees_exact():
    # At 90 degrees sin^2 = 1 and v = 0, so s = f_n(1 - k); for n = 3, k = 1,
    # D = 4 and s = f_3(0) = [2 + 2]/6 = 2/3, leaving the margin (L - 2)/6 = 1/3.
    assert tilt._margin_terms(Fraction(0), Fraction(1), 3) == (4, 4)
    margin = _reference_margin_at_angle(3, Fraction(1), 90)
    assert _encloses(margin, Fraction(1, 3)) and margin.delta < 1e-50


def test_stability_margin_signs():
    # The certified pair (3, 1) has k(n-2) = 1: its margin is positive inside
    # (0, 180) degrees and collapses towards the poles, where it is 0.
    assert tilt.certify_margin_positive(3, 1).verdict == "certified"
    assert _reference_margin_at_angle(3, Fraction(1), 90).a > 0
    near_pole = _reference_margin_at_angle(3, Fraction(1), Fraction(1, 10))
    assert near_pole.a > 0 and near_pole.b < 0.01


def test_margin_polynomial_tracks_margin_sign():
    # sign(L^2 - D) at a rational v = |cos theta| agrees with the sign of the
    # margin evaluated from its definition at the same v.
    signs = set()
    for n, k in [(2, Fraction(1)), (4, Fraction(1, 2)), (7, Fraction(1, 5)), (10, Fraction(1))]:
        for deg in (5, 30, 60, 90, 120, 175):
            v = Fraction(abs(math.cos(math.radians(deg))))
            margin = _reference_margin_at_abs_cos(n, k, v)
            pval = _margin_quartic(n, k, v)
            assert (margin.a > 0 and pval > 0) or (margin.b < 0 and pval < 0), (n, k, deg)
            signs.add(pval > 0)
    assert signs == {True, False}


@pytest.mark.parametrize(
    "n,k",
    [(2, Fraction(1)), (3, Fraction(1)), (4, Fraction(1, 2)),
     (5, Fraction(1, 3)), (6, Fraction(1, 4)), (7, Fraction(1, 5))],
)
def test_margin_certified_positive_on_working_range(n, k):
    rep = tilt.certify_margin_positive(n, k)
    assert rep.verdict == "certified"
    assert rep.method == "exact"
    assert rep.provenance["decided_by"] == f"k(n-2) = {k * (n - 2)} <= 1"
    assert rep.payload == {"margin_factor_coeffs": (k, -k * (n - 1), 1)}


def test_margin_exact_ties_are_falsified_at_their_witness():
    # For n = 4, k = 4/5 the root of R is v* = 1/2 = cos 60 degrees, where
    # the margin is exactly 0: the claim "margin > 0" fails there.
    rep = tilt.certify_margin_positive(4, Fraction(4, 5))
    assert rep.verdict == "falsified"
    v_star = rep.payload["v_star"]
    assert v_star.is_rational and v_star.rational == Fraction(1, 2)
    assert _margin_quartic(4, Fraction(4, 5), Fraction(1, 2)) == 0
    assert _encloses(_reference_margin_at_angle(4, Fraction(4, 5), 60), 0)
    assert _encloses(_reference_margin_at_abs_cos(4, Fraction(4, 5), v_star), 0)


def test_margin_falsified_with_a_certified_witness():
    # n = 10, k = 1 breaks k(n-2) <= 1: v* is an exact irrational root of R,
    # and the margin is negative between v* and |cos theta| = 1.
    rep = tilt.certify_margin_positive(10, 1)
    assert rep.verdict == "falsified"
    assert rep.provenance["decided_by"].startswith("k(n-2) = 8 > 1")
    v_star = rep.payload["v_star"]
    assert not v_star.is_rational and 0 < v_star < 1
    assert _r_at(10, Fraction(1), v_star).sign() == 0
    assert _reference_margin_at_abs_cos(10, Fraction(1), (v_star + 1) / 2).b < 0
    assert _reference_margin_at_abs_cos(10, Fraction(1), v_star / 2).a > 0


@given(
    st.integers(2, 40),
    st.fractions(min_value=0, max_value=1, max_denominator=64),
    st.fractions(min_value=1, max_value=179, max_denominator=1000),
)
# On and just past the boundary k(n-2) = 1, where v* is closest to 1.
@example(3, Fraction(1), Fraction(1, 10))
@example(34, Fraction(1, 32), Fraction(1799, 10))
@example(4, Fraction(33, 64), 90)
@example(34, Fraction(2, 63), 90)
@settings(max_examples=150, deadline=None)
def test_margin_verdicts_follow_the_closed_form(n, k, degrees):
    assume(k > 0)
    rep = tilt.certify_margin_positive(n, k)
    assert (rep.verdict == "certified") == (k * (n - 2) <= 1)
    if rep.verdict == "certified":
        for angle in (degrees, 1, 90, 179, Fraction(1, 10), Fraction(1799, 10)):
            assert _reference_margin_at_angle(n, k, angle).a > 0, (n, k, angle)
    else:
        assert rep.verdict == "falsified"
        v_star = rep.payload["v_star"]
        assert 0 < v_star < 1
        assert _r_at(n, k, v_star).sign() == 0
        assert _reference_margin_at_abs_cos(n, k, (v_star + 1) / 2).b < 0


@pytest.mark.parametrize(
    "perturb",
    [lambda v, lead, radicand: (lead + v, radicand),
     lambda v, lead, radicand: (lead, radicand - Fraction(1, 1000) * v ** 2)],
    ids=["L", "D"],
)
def test_a_perturbed_margin_kernel_fails_the_factorisation(monkeypatch, perturb):
    original = tilt._margin_terms
    monkeypatch.setattr(tilt, "_margin_terms", lambda v, k, n: perturb(v, *original(v, k, n)))
    tilt._margin_factorisation_holds.cache_clear()
    try:
        assert not tilt._margin_factorisation_holds()
        with pytest.raises(RuntimeError, match="does not expand"):
            tilt.certify_margin_positive(4, Fraction(1, 2))
    finally:
        tilt._margin_factorisation_holds.cache_clear()


def _margin_grid():
    for n in range(2, 30):
        ks = {Fraction(1), Fraction(1, 2), Fraction(1, 3), tilt.default_k(n), Fraction(1, 10)}
        for k in sorted(ks):
            yield n, k


def test_margin_closed_form_matches_sympy_on_the_margin_quartics():
    # sympy expands L^2 - D from the definition of s = f_n(t) and isolates
    # its real roots: it has one in [0, 1) exactly when k(n-2) > 1, and the
    # smallest is the certifier's v*.
    sympy = pytest.importorskip("sympy")
    v = sympy.Symbol("v")
    failing = 0
    for n, k in _margin_grid():
        kq = sympy.Rational(k.numerator, k.denominator)
        t = 1 - kq * (1 - v ** 2)
        lead = 2 * n * (1 + kq * v ** 2 - kq * v) - (n - 1) * (1 + t)
        quartic = sympy.Poly(sympy.expand(lead ** 2 - 4 * t - (n - 1) ** 2 * (1 - t) ** 2), v)
        roots = sorted(r for r in quartic.real_roots() if 0 <= r < 1)
        rep = tilt.certify_margin_positive(n, k)
        if k * (n - 2) <= 1:
            assert roots == [] and rep.verdict == "certified", (n, k)
            continue
        failing += 1
        v_star = rep.payload["v_star"]
        exact_v_star = v_star.rational + v_star.coeff * sympy.sqrt(v_star.radicand)
        assert roots and sympy.simplify(roots[0] - exact_v_star) == 0, (n, k)
    assert failing == 92


# ---------------------------------------------------------------------------
# Comparison bounds (ball campaigns around the reference gradient)
# ---------------------------------------------------------------------------


def _slacks_at(Du, theta, orientation="up"):
    """The comparison-bound slacks at one graph gradient: the campaigns' kernel on a batch of one."""
    grads = np.asarray(Du, dtype=float).reshape(1, -1)
    k, c, s = tilt._appendix_inputs(grads.shape[1], theta, orientation)
    rest = grads[:, 1:]
    return tilt._appendix_slacks(grads[:, 0], np.einsum("ij,ij->i", rest, rest), k, c, s, orientation)


@pytest.mark.parametrize("orientation", ["up", "down"])
def test_appendix_bounds_at_reference_gradient(orientation):
    theta = AngleDeg.from_degrees(120)
    sign = 1.0 if orientation == "up" else -1.0
    cot = float(theta.cos()) / float(theta.sin())
    # The reference graph gradient: normal equals the reference normal.
    Du = (-sign * cot, 0.0)
    out = _slacks_at(Du, theta, orientation=orientation)
    assert out["applicable"][0]
    assert set(out["slacks"]) == {"gradient_shift", "normal_gap", "gradient_size", "tilt_vs_gap", "signed_gap"}
    for slack in out["slacks"].values():
        assert slack[0] >= -1e-12
    assert not any(hit[0] for hit in out["violated"].values())


@pytest.mark.parametrize("theta_deg", [91, 120, 150])
@pytest.mark.parametrize("orientation", ["up", "down"])
def test_appendix_campaign_clean(theta_deg, orientation):
    res = tilt.appendix_campaigns(4, [(AngleDeg.from_degrees(theta_deg), orientation)], samples=5_000, seed=42)[0]
    assert res.violation_count == 0
    assert res.all_applicable
    assert res.min_signed_gap_slack >= -1e-12


@pytest.mark.parametrize("theta_deg", [91, 120, 150])
def test_c_small_is_k_sin_squared_over_64(theta_deg):
    # The square-root term of the paper's min never binds for k = default_k(n) in (0, 1].
    res = tilt.appendix_campaigns(4, [(AngleDeg.from_degrees(theta_deg), "up")], samples=1)[0]
    k = tilt.default_k(4)
    with mp.workdps(30):
        expected = mp.mpf(k.numerator) / k.denominator * mp.sin(mp.radians(theta_deg)) ** 2 / 64
    assert res.c_small == pytest.approx(float(expected), rel=1e-14)


def test_appendix_campaign_vectorized_matches_pointwise():
    # Every slack is built elementwise, so the kernel on batches of one and
    # the campaign agree bit for bit on the worst values over the same ball.
    for n in (2, 3, 4, 6):
        for theta_deg in (91, 120, 150):
            for orientation in ("up", "down"):
                theta = AngleDeg.from_degrees(theta_deg)
                res = tilt.appendix_campaigns(n, [(theta, orientation)], samples=100, seed=11)[0]
                dirs_rng, radii_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(11).spawn(2))
                cot = float(theta.cos()) / float(theta.sin())
                center = np.zeros(n)
                center[0] = -cot if orientation == "up" else cot
                raw = dirs_rng.standard_normal((100, n))
                raw /= np.linalg.norm(raw, axis=1)[:, None]
                radii = tilt.BALL_RADIUS * radii_rng.random(100) ** (1 / n)
                outs = [_slacks_at(p, theta, orientation=orientation) for p in center + radii[:, None] * raw]

                def worst(name):
                    return min(float(out["slacks"][name][0]) for out in outs)

                config = (n, theta_deg, orientation)
                assert worst("gradient_shift") == res.min_slack_gradient_shift, config
                assert worst("normal_gap") == res.min_slack_normal_gap, config
                assert worst("gradient_size") == res.min_slack_gradient_size, config
                assert worst("tilt_vs_gap") == res.min_slack_tilt_vs_gap, config
                assert worst("signed_gap") == res.min_signed_gap_slack, config


@pytest.mark.parametrize("theta_deg,orientation", [(0, "up"), (180, "down"), (120, "sideways")])
def test_appendix_campaign_validates_like_the_scalar_check(theta_deg, orientation):
    theta = AngleDeg.from_degrees(theta_deg)
    with pytest.raises(ValueError) as scalar:
        _slacks_at((-0.5, 0.0, 0.0), theta, orientation=orientation)
    with pytest.raises(ValueError) as campaign:
        tilt.appendix_campaigns(3, [(theta, orientation)], samples=100)
    assert str(campaign.value) == str(scalar.value)


def test_appendix_nan_slack_is_a_violation():
    out = _slacks_at((math.nan, 0.0, 0.0), AngleDeg.from_degrees(120))
    assert math.isnan(out["slacks"]["signed_gap"][0])
    assert out["violated"]["signed_gap"][0]


def _drop_k_one_minus_k_term(nu1, nu_last, k, t):
    jfrak = t.bfrak ** 2 + nu_last ** 2 - (t.bfrak * nu1 + nu_last ** 2) ** 2
    return jfrak, t.g2 - jfrak - (t.cfrak - k * nu1 * t.afrak) ** 2


ORIGINAL_TILT_TERMS = tilt._tilt_terms


def _drop_k_afrak_squared_from_g2(nu1, nu_last, cos_t, k):
    t = ORIGINAL_TILT_TERMS(nu1, nu_last, cos_t, k)
    return t._replace(g2=t.cfrak)


@pytest.mark.parametrize(
    "kernel,mutant",
    [("_gradient_defect", _drop_k_one_minus_k_term), ("_tilt_terms", _drop_k_afrak_squared_from_g2)],
)
def test_proof_and_campaign_read_the_same_kernels(monkeypatch, kernel, mutant):
    # Break one kernel: the symbolic proof and the sampled campaign must both
    # notice, which shows that they evaluate the same code.
    params = params_for(120, Fraction(1, 2), 3)
    assert tilt.identity_campaigns([params], samples=2_000, seed=3)[0].max_gradient_residual <= 1e-12
    monkeypatch.setattr(tilt, kernel, mutant)
    tilt._symbolic_certificates.cache_clear()
    try:
        assert tilt.symbolic_identity_certificates()["gradient_bound_identity"] is False
        assert tilt.identity_campaigns([params], samples=2_000, seed=3)[0].max_gradient_residual > 1e-3
    finally:
        tilt._symbolic_certificates.cache_clear()


def test_proof_and_campaign_call_the_one_frame_kernel(monkeypatch):
    # The certificate and the sampled campaign both evaluate tilt._frame_defects,
    # so no second frame formula runs unproved.
    calls = []
    kernel = tilt._frame_defects

    def spy(gram, nu_last, k, sin_sq, t):
        calls.append(type(nu_last))
        return kernel(gram, nu_last, k, sin_sq, t)

    monkeypatch.setattr(tilt, "_frame_defects", spy)
    tilt._symbolic_certificates.cache_clear()
    try:
        assert tilt.symbolic_identity_certificates()["frame_sum_identity"] is True
        assert calls == [Polynomial]
        tilt.identity_campaigns([params_for(120, Fraction(1, 2), 3)], samples=100, seed=3)
        assert calls[1:] == [np.ndarray]
    finally:
        tilt._symbolic_certificates.cache_clear()
