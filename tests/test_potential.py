import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from fchsim.grid import Grid
from fchsim.potential import (
    PhysParams,
    PotentialDomainError,
    _sup,
    admissible,
    beta,
    beta_prime,
    beta_second,
    mixing_family,
    require_admissible,
)
from fchsim.scenarios import init_pearling, well_depth

from oracles import beta_third

# independently computed with 40-digit arithmetic
B_HALF = 0.2616240718822739182584036124674354208202


class TestPhysParams:
    def test_eps_p_eta(self):
        pp = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)
        assert pp.eps_p_eta == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eps=0.0, eta=1.0, lam=1.0),
            dict(eps=0.1, eta=-1.0, lam=1.0),
            dict(eps=0.1, eta=1.0, lam=0.0),
            dict(eps=0.1, eta=1.0, lam=1.0, p=3),
            dict(eps=float("nan"), eta=1.0, lam=1.0),
            dict(eps=0.1, eta=float("inf"), lam=1.0),
            dict(eps=float("inf"), eta=1.0, lam=1.0),
            dict(eps=0.1, eta=float("nan"), lam=1.0),
            dict(eps=0.1, eta=1.0, lam=float("nan")),
            dict(eps=0.1, eta=1.0, lam=float("inf")),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            PhysParams(**kwargs)


class TestBetaFamily:
    def test_values_at_zero(self):
        assert (beta(0.0), beta_prime(0.0), beta_second(0.0)) == (0.0, 2.0, 0.0)

    def test_value_at_well(self):
        # the well depth log(19)/0.9 puts the minima at +-0.9, which forces
        # beta(0.9) = log 19
        assert beta(0.9) == pytest.approx(math.log(19.0), rel=1e-15)
        assert well_depth(0.9) * 0.9 == pytest.approx(math.log(19.0), rel=1e-15)

    def test_odd_symmetry(self):
        r = np.linspace(0.01, 0.99, 50)
        assert np.array_equal(beta(-r), -beta(r))
        assert np.array_equal(beta_second(-r), -beta_second(r))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -1.5, np.nan, np.inf, -np.inf])
    def test_domain_guard(self, bad):
        pp = PhysParams(eps=0.1, eta=1.0, lam=2.0)
        for fn in (beta, beta_prime, beta_second, lambda r: mixing_family(r, pp)):
            for r in (bad, np.array([0.0, bad])):
                with pytest.raises(PotentialDomainError):
                    fn(r)

    def test_derivative_consistency_by_central_differences(self):
        r = np.linspace(-0.99, 0.99, 1000)
        h = 1e-6
        b_hi = beta(r + h)
        b_lo = beta(r - h)
        fd = (b_hi - b_lo) / (2 * h)
        b1 = beta_prime(r)
        assert np.max(np.abs(fd - b1) / np.abs(b1)) <= 1e-6

    def test_lower_bound_and_sign_properties(self):
        r = np.linspace(-0.999, 0.999, 2001)
        b, b1, b2, b3 = beta(r), beta_prime(r), beta_second(r), beta_third(r)
        assert np.all(b1 >= 2.0)
        assert np.all(b * b2 >= 0.0)
        # b1 - 2 b2^2 / b3 collapses to 2 / (1 + 3 r^2), which exceeds 1/2
        combo = b1 - 2.0 * b2**2 / b3
        assert np.allclose(combo, 2.0 / (1.0 + 3.0 * r**2), rtol=1e-12)
        assert np.all(combo > 0.5)

    def test_beta_beta_prime_monotone(self):
        r = np.linspace(-0.98, 0.98, 500)
        h = 1e-6
        def w(x):
            return beta(x) * beta_prime(x)
        slope = (w(r + h) - w(r - h)) / (2 * h)
        assert np.all(slope > 0.0)


class TestInPlaceEvaluation:
    """The buffered evaluations against the plain expressions, byte for byte."""

    PP = PhysParams(eps=0.03, eta=4.0, lam=math.log(19.0) / 0.9)
    R = np.concatenate(
        [np.random.default_rng(4).uniform(-1.0, 1.0, 997), [0.0, -0.0, 0.999999, -0.999999]]
    ).reshape(7, 143)

    def test_beta_family_arrays(self):
        r = self.R
        assert beta(r).tobytes() == (np.log1p(r) - np.log1p(-r)).tobytes()
        assert beta_prime(r).tobytes() == (2.0 / (1.0 - np.square(r))).tobytes()
        assert beta_second(r).tobytes() == (4.0 * r / np.square(1.0 - np.square(r))).tobytes()

    def test_mixing_family_arrays(self):
        r, lam = self.R, self.PP.lam
        B = (1.0 + r) * np.log1p(r) + (1.0 - r) * np.log1p(-r)
        expected = (B, B - 0.5 * lam * np.square(r), np.log1p(r) - np.log1p(-r) - lam * r)
        got_B, got_F, got_b = mixing_family(r, self.PP)
        got = (got_B, got_F, got_b - lam * r)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        # the returned beta is the one energy_total uses in place of beta(r)
        assert got_b.tobytes() == beta(r).tobytes()

    @pytest.mark.parametrize("r", [0.25, -0.9, np.float64(0.5), np.array(-0.3), 0])
    def test_scalar_input_gives_float64(self, r):
        values = [beta(r), beta_prime(r), beta_second(r), *mixing_family(r, self.PP)]
        for v in values:
            assert type(v) is np.float64
        x = float(r)
        plain = [
            np.log1p(x) - np.log1p(-x),
            2.0 / (1.0 - np.square(x)),
            4.0 * x / np.square(1.0 - np.square(x)),
        ]
        assert values[:3] == plain


class TestMixingFamily:
    PP = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)

    def test_values_at_zero(self):
        B, F, b = mixing_family(0.0, self.PP)
        assert (float(B), float(F), float(b)) == (0.0, 0.0, 0.0)

    def test_well_placement(self):
        pp = PhysParams(eps=0.03, eta=4.0, lam=well_depth(0.9), p=1)
        _, _, b = mixing_family(0.9, pp)
        f = b - pp.lam * 0.9
        assert abs(float(f)) <= 1e-14

    def test_b_at_half(self):
        B, _, _ = mixing_family(0.5, self.PP)
        assert float(B) == pytest.approx(B_HALF, rel=1e-14)

    def test_b_even_and_relations(self):
        r = np.linspace(-0.95, 0.95, 101)
        B, F, b = mixing_family(r, self.PP)
        B_rev, _, _ = mixing_family(-r, self.PP)
        f = b - self.PP.lam * r
        assert np.array_equal(B, B_rev)
        assert np.allclose(F, B - 0.5 * self.PP.lam * r**2, rtol=1e-14)
        assert np.allclose(f, beta(r) - self.PP.lam * r, rtol=1e-14)
        assert b.tobytes() == beta(r).tobytes()

    def test_f_is_derivative_of_big_f(self):
        r = np.linspace(-0.99, 0.99, 1000)
        h = 1e-6
        _, F_hi, _ = mixing_family(r + h, self.PP)
        _, F_lo, _ = mixing_family(r - h, self.PP)
        fd = (F_hi - F_lo) / (2 * h)
        _, _, b = mixing_family(r, self.PP)
        f = b - self.PP.lam * r
        denom = np.maximum(np.abs(f), 1.0)
        assert np.max(np.abs(fd - f) / denom) <= 1e-6

    def test_domain_guard(self):
        with pytest.raises(PotentialDomainError):
            mixing_family(1.0, self.PP)


# 0-, 1- and 2-D fields whose entries include the signed zeros, the smallest
# subnormal, the values next to +-1, the infinities and NaN
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.nextafter(1.0, 0.0),
          np.nextafter(-1.0, 0.0), math.inf, -math.inf, math.nan]
FIELDS = arrays(np.float64, array_shapes(min_dims=0, max_dims=2, min_side=1, max_side=5),
                elements=st.one_of(st.sampled_from(_EDGES), st.floats()))


class TestRangeKernel:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(FIELDS)
    def test_sup_is_max_abs(self, f):
        got, want = _sup(f), float(np.max(np.abs(f)))
        assert got == want or (math.isnan(got) and math.isnan(want))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(FIELDS)
    def test_admissible_is_the_two_sided_test(self, f):
        assert admissible(f) == bool(f.max() < 1.0 and f.min() > -1.0)

    def test_zero_field_gives_positive_zero(self):
        assert math.copysign(1.0, _sup(np.zeros((3, 3)))) == 1.0


class TestAdmissibility:
    def test_zero_field(self):
        assert admissible(np.zeros((4, 4)))

    def test_boundary_value_fails_strict(self):
        f = np.zeros(5)
        f[2] = 1.0
        assert not admissible(f)
        with pytest.raises(PotentialDomainError):
            require_admissible(f)
        f[2] = np.nextafter(1.0, 0.0)
        assert admissible(f)

    def test_nan_rejected(self):
        assert not admissible(np.array([0.0, np.nan]))

    def test_pearling_ic_has_margin(self):
        g = Grid.square(64)
        phi = init_pearling(g, ell=0.35, eps=0.03)
        assert np.max(np.abs(phi)) <= 0.95
