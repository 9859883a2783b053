"""Streamed draws: the chunked campaigns equal one-shot evaluations and run in bounded memory.

A campaign over several dimensions reads each one as a prefix of one draw
in the widest; its references are evaluated on the same prefix of a one-shot
draw.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conecert import _sampling, claims, cones, tilt
from conecert.exact import AngleDeg, Interval

CHUNK = _sampling.CHUNK_ROWS
IDENTITY_PARAMS = [
    tilt.TiltParams(theta=AngleDeg.from_degrees(120), k=Fraction(1, 2), n=6),
    tilt.TiltParams(theta=AngleDeg.from_degrees(91), k=Fraction(1), n=2),
]
APPENDIX_CASES = [(4, 91, "down"), (2, 150, "up")]
# The selftest's six comparison balls, all at n = 4.
COMPARISON_CONFIGS = [(AngleDeg.from_degrees(t), o) for t in (91, 120, 150) for o in ("up", "down")]


def _identity_grid(n):
    """The selftest's identity configurations at graph dimension n."""
    return [
        tilt.TiltParams(theta=AngleDeg.from_degrees(theta), k=k, n=n)
        for theta, k in claims._IDENTITY_ANGLES_K
    ]


def _selftest_identity_grid():
    """The selftest's 16 identity configurations, theta-major as its payload lists them."""
    return [
        tilt.TiltParams(theta=AngleDeg.from_degrees(theta), k=k, n=n)
        for theta, k in claims._IDENTITY_ANGLES_K
        for n in claims._IDENTITY_DIMS
    ]


def _one_shot_directions(rng, samples, dim, widest=None):
    """Uniform unit vectors in R^dim: the normalised first ``dim`` columns of one draw in R^widest."""
    x = rng.standard_normal((samples, widest or dim))[:, :dim]
    return x / np.linalg.norm(x, axis=1)[:, None]


def _single_width_chunks(rng, samples, dim):
    """The sampler as it was before it took several widths, kept as the single-width reference."""
    for start in range(0, samples, CHUNK):
        x = rng.standard_normal((min(CHUNK, samples - start), dim))
        x /= np.sqrt(_sampling.row_sums(x * x))[:, None]
        yield x


# Rows this close to the zero locus of g are re-evaluated in rationals.
NEAR_ZERO_G2 = 1e-4
# How far a cleared float may sit from its rational value: rounding of a few operations on O(1) terms.
ROUNDING = 16 * np.finfo(float).eps


def _identity_row_rational(row, cos_t, k):
    """The three cleared defects and jfrak - g^2 at one sample, re-evaluated in rationals on
    the normal scaled by the lower end of its norm's enclosure on the 2^-256 grid."""
    comp = [Fraction(float(c)) for c in row]
    norm = Interval.point(sum(c * c for c in comp)).sqrt().lo
    nu1, nup = comp[0] / norm, comp[-1] / norm
    t = tilt._tilt_terms(nu1, nup, cos_t, k)
    jfrak, defect = tilt._gradient_defect(nu1, nup, k, t)
    sum_defect, wedge_defect = tilt._frame_defects(tilt._unit_normal_gram(nu1, nup), nup, k, 1 - cos_t ** 2, t)
    return defect, sum_defect, wedge_defect, jfrak - t.g2


def _identity_one_shot(params, samples, seed, widest=None):
    """The identity campaign's kernels on the whole draw at once, on its prefix of a draw in R^widest.

    At the rows nearest the zero locus of g, the rational re-evaluation
    gives defects of exactly 0 and jfrak - g^2 <= 0, and every cleared float
    is within rounding of its rational value.
    """
    nu = _one_shot_directions(np.random.default_rng(seed), samples, params.n + 1, widest)
    k, cos_t = params.k_float, params.cos_theta
    nu1, nup = nu[:, 0], nu[:, -1]
    t = tilt._tilt_terms(nu1, nup, cos_t, k)
    jfrak, defect = tilt._gradient_defect(nu1, nup, k, t)
    sum_defect, wedge_defect = tilt._frame_defects(tilt._tangent_projections(nu), nup, k, params.sin_squared, t)
    cleared = (defect, sum_defect, wedge_defect, jfrak - t.g2)
    for idx in np.flatnonzero(t.g2 < NEAR_ZERO_G2):
        exact = _identity_row_rational(nu[idx], Fraction(cos_t), params.k)
        assert exact[:3] == (0, 0, 0) and exact[3] <= 0
        assert all(abs(got[idx] - float(want)) <= ROUNDING for got, want in zip(cleared, exact)), idx
    return tilt.IdentityCampaignResult(
        samples=samples,
        max_gradient_residual=float(np.max(np.abs(defect))),
        max_frame_sum_residual=float(np.max(np.abs(sum_defect))),
        max_wedge_sum_residual=float(np.max(np.abs(wedge_defect))),
        max_j_minus_g2=float(np.max(jfrak - t.g2)),
    )


def _ball_offsets(n, samples, seed):
    """The comparison balls' offsets from their centres, drawn whole from the campaign's two streams."""
    streams = np.random.SeedSequence(seed).spawn(2)
    dirs_rng, radii_rng = (np.random.default_rng(stream) for stream in streams)
    dirs = _one_shot_directions(dirs_rng, samples, n)
    radii = tilt.BALL_RADIUS * radii_rng.random(samples) ** (1.0 / n)
    return radii[:, None] * dirs


def _appendix_one_shot(n, theta, orientation, samples, seed):
    """The comparison-bound kernel on the whole ball at once, drawn from the two streams the campaign uses."""
    k, c, s = tilt._appendix_inputs(n, theta, orientation)
    offsets = _ball_offsets(n, samples, seed)
    center = -c / s if orientation == "up" else c / s
    rho = np.einsum("ij,ij->i", offsets[:, 1:], offsets[:, 1:])
    out = tilt._appendix_slacks(center + offsets[:, 0], rho, k, c, s, orientation)
    slacks = out["slacks"]
    return tilt.AppendixCampaignResult(
        samples=samples,
        c_small=out["c_small"],
        all_applicable=bool(np.all(out["applicable"])),
        min_slack_gradient_shift=float(np.min(slacks["gradient_shift"])),
        min_slack_normal_gap=float(np.min(slacks["normal_gap"])),
        min_slack_gradient_size=float(np.min(slacks["gradient_size"])),
        min_slack_tilt_vs_gap=float(np.min(slacks["tilt_vs_gap"])),
        min_signed_gap_slack=float(np.min(slacks["signed_gap"])),
        violation_count=sum(int(np.count_nonzero(hit)) for hit in out["violated"].values()),
    )


def _oracle_one_shot(m, q, samples, seed, widest=None):
    """The oracle on the whole draw at once, on its prefix of a draw in R^widest, with f and
    its gradient re-evaluated every step."""
    q = float(q)
    x = _one_shot_directions(np.random.default_rng(seed), samples, m, widest)
    f, _ = cones._f_and_gradient(x, q)
    top = x[np.argsort(-np.abs(f))[:512]].copy()
    step = np.full(top.shape[0], 0.1)
    for _ in range(cones.ORACLE_ASCENT_STEPS):
        vals, grads = cones._f_and_gradient(top, q)
        direction = np.sign(vals)[:, None] * grads
        tangential = direction - (direction * top).sum(axis=1)[:, None] * top
        proposal = top + step[:, None] * tangential
        proposal /= np.linalg.norm(proposal, axis=1)[:, None]
        new_vals, _ = cones._f_and_gradient(proposal, q)
        better = np.abs(new_vals) > np.abs(vals)
        top[better] = proposal[better]
        step[better] *= 1.3
        step[~better] *= 0.5
    final, _ = cones._f_and_gradient(top, q)
    best = int(np.argmax(np.abs(final)))
    return cones.BruteForceResult(
        value=float(np.abs(final[best])),
        witness=tuple(float(c) for c in np.sort(top[best])[::-1]),
        samples=samples,
        steps=cones.ORACLE_ASCENT_STEPS,
    )


def test_chunks_replay_the_one_shot_draw():
    for samples in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
        chunks = list(_sampling.unit_gaussian_chunks(np.random.default_rng(9), samples, (5,)))
        assert all(len(chunk) <= CHUNK for chunk in chunks)
        one_shot = _one_shot_directions(np.random.default_rng(9), samples, 5)
        assert np.array_equal(np.concatenate(chunks), one_shot)


# Widths reach 8 and more, where row_sums hands the rows to numpy's pairwise sum.
widths_sets = st.lists(st.integers(2, 12), min_size=1, max_size=4, unique=True).map(lambda ws: tuple(sorted(ws)))
sample_counts = st.sampled_from([1, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), sample_counts, st.integers(0, 2 ** 32 - 1))
@example(8, CHUNK + 1, 42)
def test_a_single_width_draws_the_chunks_it_drew_before_widths_were_shared(dim, samples, seed):
    chunks = list(_sampling.unit_gaussian_chunks(np.random.default_rng(seed), samples, (dim,)))
    before = list(_single_width_chunks(np.random.default_rng(seed), samples, dim))
    assert len(chunks) == len(before)
    for got, want in zip(chunks, before):
        assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(widths_sets, sample_counts, st.integers(0, 2 ** 32 - 1))
@example((3, 4, 5, 7), CHUNK + 1, 42)
@example((2, 8, 12), 2 * CHUNK + 3, 7)
def test_each_width_reads_the_normalised_prefix_of_one_draw_in_the_widest(widths, samples, seed):
    chunks = list(_sampling.unit_gaussian_chunks(np.random.default_rng(seed), samples, widths))
    # Chunk by chunk, one prefix per width in ascending order.
    assert [chunk.shape[1] for chunk in chunks] == list(widths) * -(-samples // CHUNK)
    for d in widths:
        streamed = np.concatenate([chunk for chunk in chunks if chunk.shape[1] == d])
        one_shot = _one_shot_directions(np.random.default_rng(seed), samples, d, widths[-1])
        assert np.array_equal(streamed, one_shot), d


@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_streamed_campaigns_equal_one_shot_evaluation(samples):
    for params in IDENTITY_PARAMS:
        streamed = tilt.identity_campaigns([params], samples=samples, seed=42)[0]
        assert streamed == _identity_one_shot(params, samples, 42)
    for n, theta_deg, orientation in APPENDIX_CASES:
        theta = AngleDeg.from_degrees(theta_deg)
        streamed = tilt.appendix_campaigns(n, [(theta, orientation)], samples=samples, seed=7)[0]
        assert streamed == _appendix_one_shot(n, theta, orientation, samples, 7)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("samples", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_shared_draw_campaigns_equal_one_shot_evaluation(samples, seed):
    # The selftest's 16 configurations in one call, each on its prefix of the draw in R^7.
    grid = _selftest_identity_grid()
    widest = max(claims._IDENTITY_DIMS) + 1
    shared = tilt.identity_campaigns(grid, samples=samples, seed=seed)
    assert shared == [_identity_one_shot(params, samples, seed, widest) for params in grid]
    shared = tilt.appendix_campaigns(4, COMPARISON_CONFIGS, samples=samples, seed=seed)
    assert shared == [
        _appendix_one_shot(4, theta, orientation, samples, seed) for theta, orientation in COMPARISON_CONFIGS
    ]


def _explicit_frame_residuals(nu, k, sin_sq, t):
    """res_sum and res_wedge from explicit ambient a1, a2, a3 vectors, each row's products by ``einsum``."""
    nu1, nup = nu[:, 0], nu[:, -1]
    e1_t = -nu1[:, None] * nu
    e1_t[:, 0] += 1.0
    ep_t = -nup[:, None] * nu
    ep_t[:, -1] += 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        a3 = (t.bfrak[:, None] * e1_t + nup[:, None] * ep_t) / np.sqrt(np.maximum(t.g2, 0.0))[:, None]
        w = t.cfrak / t.g2
    a1, a2 = np.sqrt(1.0 - k) * e1_t, ep_t

    def dot(u, v):
        return np.einsum("ij,ij->i", u, v)

    sq1, sq2, sq3 = (dot(a, a) for a in (a1, a2, a3))
    wedge = (sq1 * sq2 - dot(a1, a2) ** 2) + (sq1 * sq3 - dot(a1, a3) ** 2) + (sq2 * sq3 - dot(a2, a3) ** 2)
    factor = 1.0 - k * sin_sq
    return np.abs(sq1 + sq2 + sq3 - (1.0 + factor * w)), np.abs(wedge - factor * w)


def _explicit_slacks(grads, k, c, s, orientation):
    """The comparison-bound slacks from explicit (N, n) gradients and (N, n+1) graph normals."""
    n, kf, sign = grads.shape[1], float(k), 1.0 if orientation == "up" else -1.0
    du_sq = np.einsum("ij,ij->i", grads, grads)
    W = np.sqrt(1.0 + du_sq)
    nu = np.empty((grads.shape[0], n + 1))
    nu[:, :n] = -sign * grads / W[:, None]
    nu[:, n] = sign / W
    ref = np.zeros(n + 1)
    ref[0], ref[n] = c, sign * s
    ip = nu @ ref
    gap_sq = np.einsum("ij,ij->i", nu - ref, nu - ref)
    g_sq = 1 - nu[:, 0] ** 2 - nu[:, n] ** 2 + kf * (c - nu[:, 0]) ** 2
    shift = (c / s) * sign
    du_shift = grads.copy()
    du_shift[:, 0] += shift
    return {
        "gradient_shift": (4 / s**2) * (3 + 2 * (c / s) ** 2) * gap_sq - np.einsum("ij,ij->i", du_shift, du_shift),
        "normal_gap": (1 / kf + 1 + 16 / (kf * s**2)) * g_sq - gap_sq,
        "gradient_size": 4 / s**2 - 1 - du_sq,
        "tilt_vs_gap": 2 * (1 - np.abs(ip)) - g_sq,
        "signed_gap": 2 * (1 - ip) - g_sq,
    }


@pytest.mark.parametrize("seed", [42, 7])
def test_reduced_kernels_agree_with_the_explicit_construction(seed):
    samples = 3 * CHUNK
    eps = np.finfo(float).eps
    for n in claims._IDENTITY_DIMS:
        nu = _one_shot_directions(np.random.default_rng(seed), samples, n + 1)
        gram = tilt._tangent_projections(nu)
        for params in _identity_grid(n):
            k = params.k_float
            t = tilt._tilt_terms(nu[:, 0], nu[:, -1], params.cos_theta, k)
            defects = tilt._frame_defects(gram, nu[:, -1], k, params.sin_squared, t)
            kept = t.g2 >= NEAR_ZERO_G2  # dividing by a smaller g^2 inflates rounding (see _identity_one_shot)
            # Both sides are rounding noise of order eps * |a3|^2 ~ eps / g^2: at most 1e-13 where g^2 >= 1e-2.
            tol = 4 * eps * (1 + 1 / t.g2[kept])
            explicit = _explicit_frame_residuals(nu, k, params.sin_squared, t)
            for defect, want in zip(defects, explicit):
                got = np.abs(defect / t.g2)
                assert np.all(np.abs(got[kept] - want[kept]) <= tol), (n, params)
    offsets = _ball_offsets(4, samples, seed)
    rho = np.einsum("ij,ij->i", offsets[:, 1:], offsets[:, 1:])
    for theta, orientation in COMPARISON_CONFIGS:
        k, c, s = tilt._appendix_inputs(4, theta, orientation)
        center = -c / s if orientation == "up" else c / s
        slacks = tilt._appendix_slacks(center + offsets[:, 0], rho, k, c, s, orientation)["slacks"]
        grads = offsets.copy()
        grads[:, 0] += center
        explicit = _explicit_slacks(grads, k, c, s, orientation)
        assert slacks.keys() == explicit.keys()
        for name, want in explicit.items():
            assert np.max(np.abs(slacks[name] - want)) <= 1e-13, (theta, orientation, name)


FRAME_DEFECTS = tilt._frame_defects


def _frame_defects_without_cross_term(gram, nu_last, k, sin_sq, t):
    """``tilt._frame_defects`` with the 2 bfrak nu_last g12 term of g^2 |a3|^2 left out.

    g^2 |a3|^2 enters the sum defect once and the wedge defect times
    |a1|^2 + |a2|^2 = (1 - k) g11 + g22.
    """
    g11, g12, g22 = gram
    cross = 2 * t.bfrak * nu_last * g12
    sum_defect, wedge_defect = FRAME_DEFECTS(gram, nu_last, k, sin_sq, t)
    return sum_defect - cross, wedge_defect - ((1 - k) * g11 + g22) * cross


def test_identity_campaign_fails_a_frame_kernel_missing_its_cross_term(monkeypatch):
    def frame_residuals():
        return [res.max_frame_sum_residual for res in tilt.identity_campaigns(_identity_grid(3), samples=CHUNK, seed=42)]

    assert max(frame_residuals()) <= claims._FRAME_TOL
    monkeypatch.setattr(tilt, "_frame_defects", _frame_defects_without_cross_term)
    assert min(frame_residuals()) > claims._FRAME_TOL


def test_symbolic_certificate_fails_a_frame_kernel_missing_its_cross_term(monkeypatch):
    # The mutant the campaign catches above also fails the proof itself.
    tilt._symbolic_certificates.cache_clear()
    try:
        assert tilt.symbolic_identity_certificates()["frame_sum_identity"] is True
        monkeypatch.setattr(tilt, "_frame_defects", _frame_defects_without_cross_term)
        tilt._symbolic_certificates.cache_clear()
        certs = tilt.symbolic_identity_certificates()
        assert certs["frame_sum_identity"] is False
        assert certs["wedge_sum_identity"] is False
        assert certs["gradient_bound_identity"] is True and certs["signed_gap_identity"] is True
    finally:
        tilt._symbolic_certificates.cache_clear()


def test_shared_draw_campaigns_refuse_an_empty_grid_before_drawing(monkeypatch):
    def must_not_draw(*args, **kwargs):
        raise AssertionError("drew samples for an invalid grid")

    monkeypatch.setattr(tilt, "unit_gaussian_chunks", must_not_draw)
    monkeypatch.setattr(cones, "unit_gaussian_chunks", must_not_draw)
    with pytest.raises(ValueError, match="at least one configuration"):
        tilt.identity_campaigns([], samples=10, seed=42)
    with pytest.raises(ValueError, match="at least one configuration"):
        tilt.appendix_campaigns(4, [], samples=10, seed=42)
    with pytest.raises(ValueError, match="at least one"):
        cones.brute_force_sup([], samples=10_000, seed=42)


def _same_oracle_result(stopped, full):
    """The early-stopped oracle found what the fixed-step reference found, bit for bit."""
    return (stopped.value, stopped.witness, stopped.samples) == (full.value, full.witness, full.samples)


# The oracle refuses fewer than 10^4 samples, so its boundaries sit two chunks further on.
@pytest.mark.parametrize("samples", [3 * CHUNK - 1, 3 * CHUNK, 3 * CHUNK + 1, 3 * CHUNK + 5])
def test_streamed_oracle_equals_one_shot_evaluation(samples):
    for m, q in ((4, Fraction(43, 391)), (9, Fraction(1, 3))):
        (streamed,) = cones.brute_force_sup([(m, q)], samples=samples, seed=42)
        assert _same_oracle_result(streamed, _oracle_one_shot(m, q, samples, 42))


# pnbound's one-pair oracle at selftest's three (m, q) and at m = 5, at seeds
# 42 and 7, and two cases on which stopping at the first step with no
# improving start finds a different value.
@pytest.mark.parametrize(
    "m,q,samples,seed",
    [(m, q, samples, seed)
     for seed in (42, 7)
     for m, q, samples in ((2, Fraction(1), 100_000), (3, Fraction(6, 11), 100_000),
                           (4, Fraction(43, 391), 100_000), (5, Fraction(43, 391), 10_000))]
    + [(2, Fraction(6, 11), 10_000, 0), (3, Fraction(1000), 10_000, 0)],
)
def test_oracle_stops_early_with_the_result_of_every_step(m, q, samples, seed):
    (stopped,) = cones.brute_force_sup([(m, q)], samples=samples, seed=seed)
    assert _same_oracle_result(stopped, _oracle_one_shot(m, q, samples, seed))
    assert 1 <= stopped.steps < cones.ORACLE_ASCENT_STEPS


# selftest's three pairs as it passes them; then pairs out of order, two of
# them sharing m, whose widest draw is pnbound's m = 5.
@pytest.mark.parametrize(
    "pairs,samples,seed",
    [(list(zip(claims._EXPECTED_SURDS, (q for q, _, _ in claims._EXPECTED_SURDS.values()))), 100_000, seed)
     for seed in (42, 7)]
    + [([(4, Fraction(43, 391)), (2, Fraction(1)), (5, Fraction(43, 391)), (2, Fraction(6, 11))], 10_000, 0)],
    ids=["selftest-42", "selftest-7", "mixed"],
)
def test_each_pair_of_a_shared_oracle_equals_its_one_shot_on_the_prefix(pairs, samples, seed):
    widest = max(m for m, _ in pairs)
    shared = cones.brute_force_sup(pairs, samples=samples, seed=seed)
    assert len(shared) == len(pairs)
    for (m, q), result in zip(pairs, shared):
        assert len(result.witness) == m
        assert _same_oracle_result(result, _oracle_one_shot(m, q, samples, seed, widest)), (m, q)


_EDGE_DOUBLES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, 1.0, -1.0, 1e-16]


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 6), st.integers(1, 12)),
        elements=st.one_of(st.sampled_from(_EDGE_DOUBLES), st.floats(width=64)),
    )
)
# Two NaNs of opposite sign: numpy's in-place add propagates the second one's sign.
@example(np.array([[np.nan, -np.nan], [-np.nan, np.nan]]))
@example(np.array([[1.0, np.nan, -np.nan]]))
def test_row_sums_are_numpys_row_sums(x):
    # If numpy changes its summation order, this fails before a digest moves.
    with np.errstate(all="ignore"):
        got, want = _sampling.row_sums(x), x.sum(axis=1)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_f_value_is_the_value_of_f_and_gradient():
    x = _one_shot_directions(np.random.default_rng(3), 1000, 6)
    assert np.array_equal(cones._f_value(x, 0.3), cones._f_and_gradient(x, 0.3)[0])


def test_identity_campaign_keeps_a_nan_residual(monkeypatch):
    # A NaN in the first chunk must survive the fold over the later chunks.
    kernel = tilt._gradient_defect
    calls = []

    def nan_in_first_chunk(nu1, nu_last, k, t):
        jfrak, defect = kernel(nu1, nu_last, k, t)
        if not calls:
            defect[0] = np.nan
        calls.append(1)
        return jfrak, defect

    monkeypatch.setattr(tilt, "_gradient_defect", nan_in_first_chunk)
    res = tilt.identity_campaigns([IDENTITY_PARAMS[0]], samples=3 * CHUNK, seed=42)[0]
    assert len(calls) == 3
    assert np.isnan(res.max_gradient_residual)

    # On a shared draw, a NaN in one configuration's first chunk reaches that
    # configuration's result and leaves the others' unchanged.
    monkeypatch.setattr(tilt, "_gradient_defect", kernel)
    grid = _identity_grid(3)
    clean = tilt.identity_campaigns(grid, samples=3 * CHUNK, seed=42)
    target = grid[1].k_float
    seen = []

    def nan_in_targets_first_chunk(nu1, nu_last, k, t):
        jfrak, defect = kernel(nu1, nu_last, k, t)
        if k == target and k not in seen:
            defect[0] = np.nan
        seen.append(k)
        return jfrak, defect

    monkeypatch.setattr(tilt, "_gradient_defect", nan_in_targets_first_chunk)
    shared = tilt.identity_campaigns(grid, samples=3 * CHUNK, seed=42)
    assert len(seen) == 3 * len(grid)
    assert np.isnan(shared[1].max_gradient_residual)
    assert _with(shared[1], max_gradient_residual=0.0) == _with(clean[1], max_gradient_residual=0.0)
    assert shared[:1] + shared[2:] == clean[:1] + clean[2:]


def _with(record, **changes):
    """A copy of ``record`` built by its constructor, with ``changes`` applied."""
    return type(record)(**{**{name: getattr(record, name) for name in record.__slots__}, **changes})


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "campaign",
    [
        lambda chunks: tilt.identity_campaigns([IDENTITY_PARAMS[0]], samples=chunks * CHUNK, seed=42),
        lambda chunks: tilt.appendix_campaigns(4, [(AngleDeg.from_degrees(91), "up")], samples=chunks * CHUNK, seed=42),
        lambda chunks: tilt.identity_campaigns(_identity_grid(6), samples=chunks * CHUNK, seed=42),
        lambda chunks: tilt.appendix_campaigns(4, COMPARISON_CONFIGS, samples=chunks * CHUNK, seed=42),
        # At least 10^4 samples: 3 and 30 chunks.
        lambda chunks: cones.brute_force_sup([(4, Fraction(43, 391))], samples=3 * chunks // 2 * CHUNK, seed=42),
        lambda chunks: tilt.identity_campaigns(_selftest_identity_grid(), samples=chunks * CHUNK, seed=42),
        lambda chunks: cones.brute_force_sup(
            [(2, Fraction(1)), (3, Fraction(6, 11)), (4, Fraction(43, 391))], samples=3 * chunks // 2 * CHUNK, seed=42
        ),
    ],
    ids=["identity", "appendix", "identity-grid", "comparison-grid", "oracle", "identity-mixed-grid", "oracle-pairs"],
)
def test_campaign_memory_does_not_grow_with_samples(campaign):
    campaign(2)  # one-time allocations (caches, 50-digit constants) happen outside the measurement
    small = _peak_bytes(lambda: campaign(2))
    large = _peak_bytes(lambda: campaign(20))
    assert large <= 1.5 * small, (small, large)
