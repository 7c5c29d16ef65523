import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from _oracles import oracle_cover_gap, oracle_mobius, oracle_principal_angles

from stlab.directions import (
    DIR_INF,
    DIR_ONE,
    DIR_ZERO,
    ComplexLinearMap,
    Direction,
    LambdaOutOfRange,
    PoleDirection,
    SingularMap,
    Subspace2,
    apply_mobius,
    dist_deg,
    gamma_arg,
    gr_dist_deg,
    is_orthogonal,
    max_cover_gap_deg,
    pi_lambda,
    principal_angles_deg,
    sphere_disk_cover,
    tau_hat,
    to_sphere,
    unit_direction_from_angle,
)
from stlab.exact import GaussianRational, GeometryError

GR = GaussianRational
DIR_I = Direction.finite(GR(0, 1))


def fin(re, im=0):
    return Direction.finite(GR(Fraction(re), Fraction(im)))


def rand_direction(rng):
    if rng.random() < 0.05:
        return DIR_INF
    return fin(
        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
        Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
    )


def test_to_sphere_examples():
    assert to_sphere(DIR_INF).v == (0.0, 0.0, 1.0)
    assert to_sphere(DIR_ZERO).v == (0.0, 0.0, -1.0)
    assert to_sphere(DIR_ONE).v == (1.0, 0.0, 0.0)


def test_sphere_points_pinned():
    # the poles, the unit slopes, slopes of size 10^400 and 10^-400, a
    # seeded batch, and the centers of three disk covers
    huge, tiny = Fraction(10**400), Fraction(1, 10**400)
    dirs = [DIR_INF, DIR_ZERO, DIR_ONE, fin(-1), DIR_I, fin(0, -1)]
    dirs += [fin(huge), fin(-huge, huge), fin(0, huge), fin(tiny), fin(tiny, -tiny), fin(huge, tiny)]
    rng = random.Random(5)
    dirs += [rand_direction(rng) for _ in range(2000)]
    points = [to_sphere(d).v for d in dirs]
    points += [p.v for delta in (90.0, 30.0, 5.0) for p in sphere_disk_cover(delta)]
    digest = hashlib.sha256(repr(points).encode()).hexdigest()[:16]
    assert digest == "7ad0681e2d9e9566"


def test_dist_examples():
    assert abs(dist_deg(DIR_ZERO, DIR_INF) - 180.0) < 1e-9
    assert dist_deg(fin(3, 7), fin(3, 7)) == 0.0
    assert abs(dist_deg(DIR_ONE, fin(-1)) - 180.0) < 1e-9


def test_orthogonality():
    assert is_orthogonal(DIR_ZERO, DIR_INF)
    assert is_orthogonal(DIR_ONE, fin(-1))
    assert not is_orthogonal(DIR_I, DIR_I)
    # the Hermitian partner of i solves a * conj(i) = -1, namely -i
    assert is_orthogonal(DIR_I, fin(0, -1))


def test_orthogonal_iff_antipodal():
    rng = random.Random(11)
    for _ in range(400):
        d1, d2 = rand_direction(rng), rand_direction(rng)
        anti = abs(dist_deg(d1, d2) - 180.0) < 1e-9
        assert is_orthogonal(d1, d2) == anti


def test_metric_axioms_sampled():
    rng = random.Random(3)
    for _ in range(1000):
        a, b, c = (rand_direction(rng) for _ in range(3))
        dab, dba = dist_deg(a, b), dist_deg(b, a)
        assert abs(dab - dba) < 1e-9
        assert dist_deg(a, c) <= dab + dist_deg(b, c) + 1e-9
        assert dist_deg(a, a) < 1e-12


def test_mobius_examples():
    # squeeze toward 1 fixes 1
    m = pi_lambda(DIR_ONE, Fraction(1, 3))
    assert apply_mobius(m, DIR_ONE) == DIR_ONE
    # (lambda + a)/(1 + lambda a) at a=0
    m = pi_lambda(DIR_ONE, Fraction(1, 2))
    assert apply_mobius(m, DIR_ZERO) == fin(Fraction(1, 2))
    # slope scaling divides directions
    from stlab.directions import scaling_map

    assert apply_mobius(scaling_map(GR(2)), fin(4)) == fin(2)
    # center i is fixed by its own squeeze
    m = pi_lambda(DIR_I, Fraction(1, 2))
    assert apply_mobius(m, DIR_I) == DIR_I


def test_pi_lambda_contract():
    with pytest.raises(LambdaOutOfRange):
        pi_lambda(DIR_ONE, Fraction(1))
    with pytest.raises(Exception):
        pi_lambda(fin(2), Fraction(1, 2))  # not unit modulus
    # identity at lambda 0
    m = pi_lambda(DIR_ONE, Fraction(0))
    rng = random.Random(4)
    for _ in range(20):
        d = rand_direction(rng)
        assert apply_mobius(m, d) == d


def test_pi_lambda_monotone_approach():
    d = fin(Fraction(-3), Fraction(2))
    last = dist_deg(d, DIR_ONE)
    for k in range(1, 10):
        m = pi_lambda(DIR_ONE, Fraction(k, 10))
        now = dist_deg(apply_mobius(m, d), DIR_ONE)
        assert now < last + 1e-12
        last = now


def test_pi_lambda_preserves_unit_circle_exactly():
    rng = random.Random(9)
    for _ in range(100):
        theta = rng.uniform(-179, 179)
        a = unit_direction_from_angle(theta)
        assert a.a.abs2() == 1
        lam = Fraction(rng.randint(1, 63), 64)
        img = apply_mobius(pi_lambda(DIR_ONE, lam), a)
        assert not img.is_infinite and img.a.abs2() == 1


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
gaussians = st.builds(GR, small_fracs, small_fracs)


@st.composite
def linear_maps(draw):
    from hypothesis import assume

    vals = [draw(gaussians) for _ in range(4)]
    m11, m12, m21, m22 = vals
    assume(not (m11 * m22 - m12 * m21).is_zero())
    return ComplexLinearMap(m11, m12, m21, m22)


@given(linear_maps(), linear_maps(), st.builds(Direction.finite, gaussians))
@settings(max_examples=200, deadline=None)
def test_mobius_action_property(m1, m2, d):
    composed = apply_mobius(m2.compose(m1), d)
    stepped = apply_mobius(m2, apply_mobius(m1, d))
    assert composed == stepped


# parts with denominators up to 2^70 and numerators up to 2^80, zero
# a third of the time, so entries and slopes vanish and images hit infinity
big_fracs = st.one_of(
    st.just(Fraction(0)),
    small_fracs,
    st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**70)),
)
big_gaussians = st.builds(GR, big_fracs, big_fracs)
mobius_directions = st.one_of(
    st.just(DIR_INF), st.just(DIR_ZERO), st.builds(Direction, big_gaussians)
)


@st.composite
def mobius_cases(draw):
    """A nonsingular map and a direction; every other case puts the
    direction on the pole, where the image is infinity."""
    from hypothesis import assume

    m11, m12, m21, m22 = (draw(big_gaussians) for _ in range(4))
    assume(not (m11 * m22 - m12 * m21).is_zero())
    m = ComplexLinearMap(m11, m12, m21, m22)
    if draw(st.booleans()):
        # the pole -m11/m12 (infinity when m12 = 0) has den = 0
        return m, DIR_INF if m12.is_zero() else Direction(-m11 / m12)
    return m, draw(mobius_directions)


@given(mobius_cases())
@example((ComplexLinearMap(0, 1, 1, 0), DIR_ZERO))  # zero diagonal, image infinity
@example((ComplexLinearMap(1, 0, 3, 1), DIR_INF))  # m12 = 0 keeps infinity
@example((ComplexLinearMap(GR(1, 1), GR(2, -1), GR(0, 1), 0), Direction(-GR(1, 1) / GR(2, -1))))
@example((pi_lambda(DIR_I, Fraction(3, 2**70)), fin(Fraction(2**65 + 1, 2**64 + 3), -1)))
@settings(max_examples=400, deadline=None)
def test_apply_mobius_matches_oracle(case):
    m, d = case
    assert apply_mobius(m, d) == oracle_mobius(m, d)


def test_gamma_arg():
    assert gamma_arg(fin(0, 2)) == 90.0
    assert gamma_arg(fin(-5)) == 180.0
    assert abs(gamma_arg(fin(1, 1)) - 45.0) < 1e-12
    with pytest.raises(PoleDirection):
        gamma_arg(DIR_ZERO)
    with pytest.raises(PoleDirection):
        gamma_arg(DIR_INF)


def test_tau_hat_and_gr_dist():
    s0, sinf = tau_hat(DIR_ZERO), tau_hat(DIR_INF)
    assert abs(gr_dist_deg(s0, sinf) - 180.0) < 1e-9
    assert gr_dist_deg(s0, s0) < 1e-9
    s1 = tau_hat(DIR_ONE)
    assert 0 < gr_dist_deg(s0, s1) < 180


def test_gr_metric_axioms_sampled():
    rng = random.Random(8)
    for _ in range(300):
        a, b, c = (tau_hat(rand_direction(rng)) for _ in range(3))
        assert abs(gr_dist_deg(a, b) - gr_dist_deg(b, a)) < 1e-9
        assert gr_dist_deg(a, c) <= gr_dist_deg(a, b) + gr_dist_deg(b, c) + 1e-9


def test_neighborhood_containment_1_to_10():
    # a 1-degree sphere neighborhood lands inside a 10-degree one downstairs
    rng = random.Random(21)
    for _ in range(1000):
        d = rand_direction(rng)
        if d.is_infinite:
            d = fin(rng.randint(1, 5))
        eps = Fraction(rng.randint(1, 60), 10000)
        d2 = Direction.finite(
            d.a + GR(eps * rng.choice((-1, 1)), eps * Fraction(rng.randint(-2, 2), 3))
        )
        if dist_deg(d, d2) > 1.0:
            continue
        assert gr_dist_deg(tau_hat(d), tau_hat(d2)) <= 10.0 + 1e-6


unit_floats = st.floats(-1, 1)
four_floats = st.tuples(unit_floats, unit_floats, unit_floats, unit_floats)
directions = st.one_of(st.just(DIR_INF), st.builds(Direction, gaussians))


def span(v1, v2):
    try:
        return Subspace2.from_span(v1, v2)
    except GeometryError as err:
        assume("dependent" not in str(err))  # rejects the draw
        raise


@st.composite
def subspace_pairs(draw):
    """tau_hat pairs, near tau_hat pairs (offsets down to 1e-9), random
    real spans, slightly perturbed real spans and identical subspaces."""
    kind = draw(st.sampled_from(("tau", "near", "span", "near-span", "same")))
    eps = 10.0 ** -draw(st.integers(1, 9))
    if kind == "span":
        return span(draw(four_floats), draw(four_floats)), span(draw(four_floats), draw(four_floats))
    if kind == "near-span":
        v1, v2, w1, w2 = (draw(four_floats) for _ in range(4))
        return span(v1, v2), span(
            [a + eps * b for a, b in zip(v1, w1)], [a + eps * b for a, b in zip(v2, w2)]
        )
    d = draw(directions)
    if kind == "same":
        return tau_hat(d), tau_hat(d)
    if kind == "tau" or d.is_infinite:
        return tau_hat(d), tau_hat(draw(directions))
    return tau_hat(d), tau_hat(Direction(d.a + draw(gaussians) * GR(Fraction(eps))))


def test_from_span_rejects_dependent_vectors():
    # what is left of v2 after removing v1 is zero or rounding noise
    for v1, v2 in [((0, 0, 1, 1), (0, 0, 1, 1)), ((0, 0, 3, 3), (0, 0, 1, 1)), ((1, 2, 3, 4), (0,) * 4)]:
        with pytest.raises(GeometryError, match="dependent"):
            Subspace2.from_span(v1, v2)
    s = Subspace2.from_span((1, 1, 0, 0), (1, 1 + 1e-9, 0, 0))
    assert gr_dist_deg(s, tau_hat(DIR_ZERO)) < 1e-6


@given(subspace_pairs())
@example((tau_hat(DIR_ZERO), tau_hat(DIR_INF)))  # the canonical frame, 180 degrees apart
@settings(max_examples=500, deadline=None)
def test_principal_angles_match_oracle(pair):
    got, want = principal_angles_deg(*pair), oracle_principal_angles(*pair)
    assert abs(got[0] - want[0]) <= 1e-12 and abs(got[1] - want[1]) <= 1e-12


@pytest.mark.parametrize("delta, samples", [(90.0, 20000), (10.0, 5000), (2.0, 2000)])
def test_max_cover_gap_matches_oracle(delta, samples):
    centers = sphere_disk_cover(delta)
    gap = max_cover_gap_deg(centers, samples, seed=3)
    assert gap == oracle_cover_gap(centers, samples, seed=3)
    assert gap <= delta / 2


def test_max_cover_gap_full_scan():
    # with only the northern cap covered, southern samples are far beyond
    # the bucket block, so their nearest center comes from the full scan
    north = [p for p in sphere_disk_cover(10.0) if p.v[2] > 0.5]
    gap = max_cover_gap_deg(north, 3000, seed=4)
    assert gap == oracle_cover_gap(north, 3000, seed=4)
    assert gap > 90.0
    with pytest.raises(GeometryError):
        max_cover_gap_deg([], 10)


def test_sphere_disk_cover_sizes():
    assert len(sphere_disk_cover(360.0)) <= 2
    c90 = sphere_disk_cover(90.0)
    assert len(c90) <= 50
    assert max_cover_gap_deg(c90, 100000, seed=0) <= 45.0
    c1 = sphere_disk_cover(1.0)
    assert len(c1) < 2 * 10**5


@pytest.mark.parametrize("delta", [0.01, 0.3])
def test_sphere_disk_cover_rejects_delta_above_center_limit(delta):
    # the count is checked before any center is built: 0.01 degrees
    # would ask for about 1.6e9 of them
    with pytest.raises(GeometryError, match="cover centers"):
        sphere_disk_cover(delta)


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        ComplexLinearMap(GR(1), GR(2), GR(2), GR(4))
