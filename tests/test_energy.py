import math

import numpy as np
import pytest

from fchsim.energy import (
    chemical_potential,
    energy_total,
    linear_terms,
    nonlinear_map,
    rhs_explicit,
    var_concave,
    var_convex,
)
from fchsim.grid import Grid, inner
from fchsim.potential import PhysParams, PotentialDomainError

from oracles import (
    dense_energy_split,
    dense_nonlinear_map,
    dense_var_convex,
    smooth_admissible_field,
)

PP = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)
# independently computed with 40-digit arithmetic
B_HALF = 0.2616240718822739182584036124674354208202
E_CONST_HALF = 0.1089000294335579722644208034240355446329


class TestEnergyValues:
    def test_zero_field(self):
        g = Grid.square(8)
        eb = energy_total(np.zeros(g.shape), g, PP)
        assert eb.total == eb.convex == eb.concave == 0.0
        assert eb.cahn_hilliard == 0.0
        assert eb.willmore == 0.0

    def test_constant_half_closed_form(self):
        g = Grid.square(8)
        eb = energy_total(np.full(g.shape, 0.5), g, PP)
        ln3 = math.log(3.0)
        expected = 0.5 * ln3**2 + 4.875 * 0.25 - 1.5 * ln3 - 0.25 * B_HALF
        assert eb.total == pytest.approx(expected, rel=1e-12)
        assert eb.total == pytest.approx(E_CONST_HALF, rel=1e-12)

    def test_split_identity(self):
        rng = np.random.default_rng(21)
        g = Grid.square(12)
        for _ in range(10):
            phi = smooth_admissible_field(g, rng)
            eb = energy_total(phi, g, PP)
            assert eb.total == pytest.approx(eb.convex - eb.concave, rel=1e-12)
            e_c, e_e = dense_energy_split(phi, g, PP)
            assert eb.convex == pytest.approx(e_c, rel=1e-13)
            assert eb.concave == pytest.approx(e_e, rel=1e-13)

    def test_willmore_relation(self):
        rng = np.random.default_rng(22)
        g = Grid.square(10)
        phi = smooth_admissible_field(g, rng)
        eb = energy_total(phi, g, PP)
        assert eb.willmore == pytest.approx(eb.total + PP.eps_p_eta * eb.cahn_hilliard, rel=1e-12)

    @pytest.mark.parametrize("grid", [Grid((16,), (1.0,)), Grid((12, 16), (1.0, 1.5))])
    def test_freshly_built_terms_give_the_energy_from_scratch(self, grid):
        phi = smooth_admissible_field(grid, np.random.default_rng(5), amplitude=0.6)
        assert energy_total(phi, grid, PP, linear_terms(phi, grid)) == energy_total(phi, grid, PP)

    def test_rejects_inadmissible(self):
        g = Grid.square(4)
        with pytest.raises(PotentialDomainError):
            energy_total(np.full(g.shape, 1.0), g, PP)


class TestConvexity:
    @pytest.mark.parametrize(
        "part",
        [pytest.param("convex", id="energy_convex"), pytest.param("concave", id="energy_concave")],
    )
    def test_midpoint_convexity(self, part):
        rng = np.random.default_rng(23)
        g = Grid.square(8)

        def energy(phi):
            return getattr(energy_total(phi, g, PP), part)

        failures = 0
        for _ in range(100):
            phi1 = smooth_admissible_field(g, rng, amplitude=0.7)
            phi2 = smooth_admissible_field(g, rng, amplitude=0.7)
            for t in (0.25, 0.5, 0.75):
                blend = t * phi1 + (1 - t) * phi2
                lhs = energy(blend)
                rhs = t * energy(phi1) + (1 - t) * energy(phi2)
                scale = max(abs(lhs), abs(rhs), 1.0)
                if lhs > rhs + 1e-12 * scale:
                    failures += 1
        assert failures == 0


class TestVariationalDerivatives:
    def test_var_convex_zero(self):
        g = Grid.square(6)
        assert np.all(var_convex(np.zeros(g.shape), g, PP) == 0.0)

    def test_var_convex_constant(self):
        g = Grid.square(6)
        c = 0.3
        out = var_convex(np.full(g.shape, c), g, PP)
        b = math.log((1 + c) / (1 - c))
        b1 = 2.0 / (1 - c * c)
        expected = b * b1 + PP.lam * (PP.lam + PP.eps_p_eta) * c
        assert np.allclose(out, expected, rtol=1e-13)

    def test_var_concave_constant(self):
        g = Grid.square(6)
        c = -0.4
        out = var_concave(np.full(g.shape, c), g, PP)
        b = math.log((1 + c) / (1 - c))
        b1 = 2.0 / (1 - c * c)
        expected = PP.lam * c * b1 + (PP.lam + PP.eps_p_eta) * b
        assert np.allclose(out, expected, rtol=1e-13)

    @pytest.mark.parametrize(
        "part,deriv_fn",
        [
            pytest.param("convex", var_convex, id="energy_convex-var_convex"),
            pytest.param("concave", var_concave, id="energy_concave-var_concave"),
        ],
    )
    def test_directional_derivative(self, part, deriv_fn):
        # <deriv, v> must match the central difference of the energy along v
        rng = np.random.default_rng(24)
        g = Grid.square(16)
        s = 1e-5
        from fchsim.grid import norm as gnorm

        for _ in range(20):
            phi = smooth_admissible_field(g, rng, amplitude=0.6)
            v = smooth_admissible_field(g, rng, amplitude=1.0)
            deriv = deriv_fn(phi, g, PP)
            analytic = inner(deriv, v, g)
            e_plus = getattr(energy_total(phi + s * v, g, PP), part)
            e_minus = getattr(energy_total(phi - s * v, g, PP), part)
            fd = (e_plus - e_minus) / (2 * s)
            # relative to the natural derivative scale; a tiny directional
            # component would otherwise sit below the FD truncation floor
            scale = max(abs(analytic), abs(fd), gnorm(deriv, g, "l2") * gnorm(v, g, "l2"))
            assert abs(analytic - fd) <= 1e-6 * scale + 1e-12

    @pytest.mark.parametrize("deriv_fn", [var_convex, var_concave])
    def test_rejects_a_field_touching_one(self, deriv_fn):
        # the beta kernels check the domain; the derivatives add no check of their own
        g = Grid.square(6)
        phi = np.zeros(g.shape)
        phi[2, 3] = 1.0
        with pytest.raises(PotentialDomainError, match="phase value"):
            deriv_fn(phi, g, PP)

    def test_var_convex_dense_oracle(self):
        rng = np.random.default_rng(25)
        g = Grid.square(8)
        phi = smooth_admissible_field(g, rng)
        expected = dense_var_convex(phi, g, PP)
        out = var_convex(phi, g, PP)
        assert np.max(np.abs(out - expected)) <= 1e-11 * np.max(np.abs(expected))


class TestSchemeMaps:
    def test_nonlinear_map_constant(self):
        g = Grid.square(6)
        c, dt = 0.2, 0.05
        assert np.allclose(nonlinear_map(np.full(g.shape, c), dt, g, PP), c / dt, rtol=1e-13)

    def test_nonlinear_map_mean_identity(self):
        rng = np.random.default_rng(26)
        g = Grid.square(12)
        phi = smooth_admissible_field(g, rng) + 0.05
        dt = 0.01
        out = nonlinear_map(phi, dt, g, PP)
        assert np.mean(out) == pytest.approx(np.mean(phi) / dt, rel=1e-11)

    def test_nonlinear_map_dense_oracle(self):
        rng = np.random.default_rng(27)
        g = Grid.square(8)
        phi = smooth_admissible_field(g, rng)
        dt = 0.02
        expected = dense_nonlinear_map(phi, dt, g, PP)
        out = nonlinear_map(phi, dt, g, PP)
        assert np.max(np.abs(out - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_nonlinear_map_rejects_a_bad_time_step(self, dt):
        g = Grid.square(6)
        with pytest.raises(ValueError, match="time step must be positive and finite"):
            nonlinear_map(np.full(g.shape, 0.2), dt, g, PP)

    def test_rhs_explicit_constant_fixed_point(self):
        g = Grid.square(6)
        c, dt = 0.35, 0.01
        f = rhs_explicit(np.full(g.shape, c), dt, g, PP)
        assert np.allclose(f, c / dt, rtol=1e-13)
        # constants are equilibria: N(c) = rhs(c)
        assert np.allclose(nonlinear_map(np.full(g.shape, c), dt, g, PP), f, rtol=1e-13)

    def test_rhs_explicit_mean_identity(self):
        rng = np.random.default_rng(28)
        g = Grid.square(12)
        phi = smooth_admissible_field(g, rng) - 0.1
        dt = 0.04
        assert np.mean(rhs_explicit(phi, dt, g, PP)) == pytest.approx(
            np.mean(phi) / dt, rel=1e-11
        )

    def test_chemical_potential_constant(self):
        g = Grid.square(6)
        c = 0.25
        phi = np.full(g.shape, c)
        mu = chemical_potential(var_convex(phi, g, PP), var_concave(phi, g, PP))
        b = math.log((1 + c) / (1 - c))
        b1 = 2.0 / (1 - c * c)
        expected = (
            b * b1
            + PP.lam * (PP.lam + PP.eps_p_eta) * c
            - PP.lam * c * b1
            - (PP.lam + PP.eps_p_eta) * b
        )
        assert np.allclose(mu, expected, rtol=1e-12)

    def test_bad_dt(self):
        g = Grid.square(4)
        with pytest.raises(ValueError):
            nonlinear_map(np.zeros(g.shape), 0.0, g, PP)
        with pytest.raises(ValueError):
            rhs_explicit(np.zeros(g.shape), -1.0, g, PP)
