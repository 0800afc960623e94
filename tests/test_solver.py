import math
import tracemalloc

import numpy as np
import pytest

import fchsim.solver
from fchsim.dynamics import MASS_RTOL
from fchsim.energy import (
    energy_total,
    linear_terms,
    nonlinear_map,
    rhs_explicit,
    var_concave,
)
from fchsim.grid import Grid, SpectralWorkspace, inner, laplacian, norm
from fchsim.potential import PhysParams, PotentialDomainError, beta, beta_prime
from fchsim.scenarios import init_spinodal, preset, well_depth
from fchsim.solver import (
    LineObjective,
    SolverConfig,
    SolverDivergedError,
    admissible_step_cap,
    line_minimize,
    precond_solve,
    precond_symbol,
    psd_solve,
)

from oracles import (
    dense_laplacian,
    masked_step_cap,
    newton_solve,
    reference_line_minimize,
    smooth_admissible_field,
    spectral_norm_hm1,
)

PP = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)
CFG = SolverConfig()


def make_instance(g, seed, dt=0.02, offset=0.0):
    ws = SpectralWorkspace(g)
    rng = np.random.default_rng(seed)
    phi = smooth_admissible_field(g, rng, amplitude=0.55) + offset
    return g, ws, phi, rng, dt


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(tol_res=0.0), dict(max_iter=0), dict(ls_margin=0.0), dict(ls_margin=1.0), dict(theta1=-1.0),
         dict(ls_max=0), dict(ls_tol=0.0), dict(ls_tol=-1.0), dict(ls_tol=float("nan")),
         dict(tol_res=float("nan")), dict(theta1=float("nan")), dict(theta2=float("inf")),
         dict(max_iter=2.5), dict(ls_max=2.5), dict(tol_res=float("inf")),
         dict(ls_tol=float("inf"))],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [("theta1", float("nan")), ("theta2", float("inf")), ("max_iter", 2.5),
         ("tol_res", float("inf")), ("ls_tol", float("inf"))],
    )
    def test_error_names_the_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


class TestPreconditioner:
    def test_constant_input_gives_zero(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        d = precond_solve(np.full(g.shape, 7.0), 0.1, PP, CFG, ws)
        assert np.max(np.abs(d)) <= 1e-15

    def test_eigenvector_hand_value(self):
        # 1D n=4, r an eigenvector of -lap with sigma = 32; the symbol there is
        # 1/dt + eps^4 s^3 + eps^2 s^2 + (lam^2 + lam eps^p eta + 1) s = 2658
        g = Grid((4,), (1.0,))
        ws = SpectralWorkspace(g)
        r = np.array([1.0, 0.0, -1.0, 0.0])
        d = precond_solve(r, 0.1, PP, CFG, ws)
        assert np.allclose(d, r / 2658.0, rtol=1e-12, atol=1e-16)

    def test_apply_roundtrip(self):
        # applying L to the returned d reproduces r - mean(r)
        rng = np.random.default_rng(31)
        g = Grid.square(12)
        ws = SpectralWorkspace(g)
        dt = 0.05
        r = rng.standard_normal(g.shape)
        d = precond_solve(r, dt, PP, CFG, ws)
        c = PP.lam**2 + PP.lam * PP.eps_p_eta + CFG.theta2
        lap1 = laplacian(d, g)
        lap2 = laplacian(lap1, g)
        lap3 = laplacian(lap2, g)
        applied = d / dt - PP.eps**4 * lap3 + PP.eps**2 * CFG.theta1 * lap2 - c * lap1
        target = r - r.mean()
        assert np.max(np.abs(applied - target)) <= 1e-10 * np.max(np.abs(target))

    def test_dense_lu_oracle(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        dt = 0.03
        rng = np.random.default_rng(32)
        r = rng.standard_normal(g.shape)
        L = dense_laplacian(g)
        eye = np.eye(math.prod(g.shape))
        c = PP.lam**2 + PP.lam * PP.eps_p_eta + CFG.theta2
        op = eye / dt - PP.eps**4 * (L @ L @ L) + PP.eps**2 * CFG.theta1 * (L @ L) - c * L
        expected = np.linalg.solve(op, (r - r.mean()).ravel()).reshape(g.shape)
        expected -= expected.mean()
        d = precond_solve(r, dt, PP, CFG, ws)
        assert np.max(np.abs(d - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_symbol_cache_reuse(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        s1 = precond_symbol(ws, 0.1, PP, CFG)
        s2 = precond_symbol(ws, 0.1, PP, CFG)
        assert s1 is s2
        s3 = precond_symbol(ws, 0.2, PP, CFG)
        assert s3 is not s1


class TestLineSearch:
    def test_zero_direction(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 33)
        f = rhs_explicit(phi, dt, g, PP)
        obj = LineObjective(phi, np.zeros(g.shape), f, dt, g, PP)
        assert line_minimize(obj, CFG) == (0.0, False)
        assert obj.evals == 0

    def test_solved_state_gives_zero(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 34)
        phi_new, _ = psd_solve(phi, dt, g, PP, CFG, ws)
        f = rhs_explicit(phi, dt, g, PP)
        r = f - nonlinear_map(phi_new, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        alpha, _ = line_minimize(LineObjective(phi_new, d, f, dt, g, PP), CFG)
        # at the solution the best step is numerically negligible
        assert abs(alpha) * np.max(np.abs(d)) <= 1e-10

    @pytest.mark.parametrize(
        "g, fed",
        [
            pytest.param(g, fed, id=name + ("-state" if fed else ""))
            for fed in (False, True)
            for g, name in [
                (Grid.square(8), "square8"),
                (Grid((16,), (1.0,)), "line16"),
                (Grid((6, 8), (2.0, 1.0)), "rect6x8"),
                (Grid.square(9), "square9"),
            ]
        ],
    )
    def test_fast_objective_matches_naive(self, g, fed):
        g, ws, phi, rng, dt = make_instance(g, 35)
        f = rhs_explicit(phi, dt, g, PP)
        terms = None
        if fed:
            # the terms a solve holds after one step: rebuilt at phi + alpha d
            # into the arrays of the ones at phi, with the handed beta pair
            terms = linear_terms(phi, g)
            d = precond_solve(f - nonlinear_map(phi, dt, g, PP), dt, PP, CFG, ws)
            obj = LineObjective(phi, d, f, dt, g, PP, terms)
            alpha, _ = line_minimize(obj, CFG)
            phi = phi + alpha * d
            terms = _terms_after_step(obj, alpha, phi, terms, g)
            assert terms.beta is not None
        r = f - nonlinear_map(phi, dt, g, PP, terms)
        d = precond_solve(r, dt, PP, CFG, ws)
        obj = LineObjective(phi, d, f, dt, g, PP, terms)
        cap = admissible_step_cap(phi, d, CFG.ls_margin)
        for alpha in np.linspace(0.0, min(cap, 2.0), 9):
            naive = inner(nonlinear_map(phi + alpha * d, dt, g, PP) - f, d, g)
            assert obj(alpha) == pytest.approx(naive, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("bad", ["past-wall", "nan"])
    def test_trial_outside_domain_raises(self, bad):
        # NaN fails every comparison, so a check that each value lies
        # inside (-1, 1) is the only kind that catches it
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 38)
        f = rhs_explicit(phi, dt, g, PP)
        d = np.sign(phi)
        if bad == "nan":
            d[3, 5] = np.nan
        obj = LineObjective(phi, d, f, dt, g, PP)
        alpha = 2.0 if bad == "past-wall" else 0.1
        with pytest.raises(PotentialDomainError, match="left the phase domain"):
            obj(alpha)

    def test_step_cap_keeps_margin(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 36)
        d = rng.standard_normal(g.shape)
        cap = admissible_step_cap(phi, d, 1e-4)
        sup0 = np.max(np.abs(phi))
        bound = 1.0 - 1e-4 * (1.0 - sup0)
        assert np.max(np.abs(phi + cap * d)) <= bound * (1 + 1e-12)
        assert np.max(np.abs(phi + 1.01 * cap * d)) > bound

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_step_cap_equals_masked_formulation(self, n):
        # bit for bit, with a tenth of d exactly zero
        rng = np.random.default_rng(n)
        for _ in range(20):
            phi = rng.uniform(-0.95, 0.95, (n, n))
            d = rng.standard_normal((n, n))
            d[rng.random((n, n)) < 0.1] = 0.0
            margin = rng.uniform(1e-6, 0.5)
            assert admissible_step_cap(phi, d, margin) == masked_step_cap(phi, d, margin)
        d = np.zeros((n, n))
        assert admissible_step_cap(phi, d, 1e-4) == masked_step_cap(phi, d, 1e-4) == np.inf

    def test_step_cap_ignores_zeros_of_either_sign(self):
        rng = np.random.default_rng(37)
        phi = rng.uniform(-0.95, 0.95, (16, 16))
        d = rng.standard_normal((16, 16))
        d[rng.random((16, 16)) < 0.2] = 0.0
        d[rng.random((16, 16)) < 0.2] = -0.0
        assert admissible_step_cap(phi, d, 1e-4) == masked_step_cap(phi, d, 1e-4)
        assert admissible_step_cap(phi, np.full((16, 16), -0.0), 1e-4) == np.inf

    def test_matches_scan_oracle(self):
        # root position against a brute scan of the naive g plus bisection
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 37)
        f = rhs_explicit(phi, dt, g, PP)
        r = f - nonlinear_map(phi, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        alpha, _ = line_minimize(LineObjective(phi, d, f, dt, g, PP), CFG)

        def g_naive(a):
            return inner(nonlinear_map(phi + a * d, dt, g, PP) - f, d, g)

        cap = admissible_step_cap(phi, d, CFG.ls_margin)
        hi = min(cap, max(4.0 * alpha, 1.0))
        grid_alpha = np.linspace(0.0, hi, 1_000_000)
        # vectorized scan in chunks over the batched naive map
        vals_ends = None
        lo_idx = None
        chunk = 100_000
        prev_last = g_naive(0.0)
        lo_a = 0.0
        found = None
        for start in range(1, len(grid_alpha), chunk):
            batch = grid_alpha[start : start + chunk]
            phi_b = phi[None, :, :] + batch[:, None, None] * d[None, :, :]
            # inline periodic stencil map on the batch (independent of the
            # production implementation)
            h2 = g.spacing[0] ** 2
            def lap_b(u):
                out = np.zeros_like(u)
                for ax in (1, 2):
                    out += (np.roll(u, -1, axis=ax) - 2 * u + np.roll(u, 1, axis=ax)) / h2
                return out
            one_minus = 1.0 - phi_b**2
            b = np.log1p(phi_b) - np.log1p(-phi_b)
            b1 = 2.0 / one_minus
            b2 = 4.0 * phi_b / one_minus**2
            v = PP.eps**4 * lap_b(lap_b(phi_b)) + b * b1
            v += PP.lam * (PP.lam + PP.eps_p_eta) * phi_b
            mixed = np.zeros_like(phi_b)
            for ax in (1, 2):
                h = g.spacing[ax - 1]
                fwd = (np.roll(phi_b, -1, axis=ax) - phi_b) / h
                avg_sq = 0.5 * (fwd**2 + np.roll(fwd, 1, axis=ax) ** 2)
                flux = 0.5 * (np.roll(b1, -1, axis=ax) + b1) * fwd
                mixed += b2 * avg_sq - 2.0 * (flux - np.roll(flux, 1, axis=ax)) / h
            v += PP.eps**2 * mixed
            n_map = phi_b / dt - lap_b(v)
            vals = g.cell_volume * np.sum((n_map - f[None]) * d[None], axis=(1, 2))
            signs = np.sign(vals)
            if np.any(vals >= 0):
                k = int(np.argmax(vals >= 0))
                a_hi, a_lo = batch[k], (batch[k - 1] if k > 0 else lo_a)
                # bisect with the scalar naive map
                for _ in range(100):
                    mid = 0.5 * (a_lo + a_hi)
                    if g_naive(mid) < 0:
                        a_lo = mid
                    else:
                        a_hi = mid
                    if a_hi - a_lo < 1e-14:
                        break
                found = 0.5 * (a_lo + a_hi)
                break
            lo_a = batch[-1]
        assert found is not None
        assert abs(alpha - found) <= 1e-8 * max(1.0, found)

    def test_capped_search_returns_the_cap(self):
        # a spike toward +1 at phi's maximum puts the root past a wide margin's cap
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 30)
        cfg = SolverConfig(ls_margin=0.9)
        f = rhs_explicit(phi, dt, g, PP)
        d = precond_solve(f - nonlinear_map(phi, dt, g, PP), dt, PP, cfg, ws)
        d[np.unravel_index(np.argmax(phi), phi.shape)] += 3.0 * np.max(np.abs(d))
        d -= d.mean()
        cap = admissible_step_cap(phi, d, cfg.ls_margin)
        alpha, exhausted = line_minimize(LineObjective(phi, d, f, dt, g, PP), cfg)
        assert alpha == cap and not exhausted
        assert LineObjective(phi, d, f, dt, g, PP)(cap) < 0.0  # the root lies past the cap

    @pytest.mark.parametrize("hint", [math.inf, math.nan])
    def test_hint_that_is_not_finite_is_no_hint(self, hint):
        # halving an infinite hint toward the cap would never end
        g = Grid.square(16)
        pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
        phi, dt = init_spinodal(g, 1), 2e-4
        cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6, ls_tol=1e-4)
        f = rhs_explicit(phi, dt, g, pp)
        d = precond_solve(f - nonlinear_map(phi, dt, g, pp), dt, pp, cfg, SpectralWorkspace(g))
        searches = []
        for h in (None, hint):
            obj = LineObjective(phi, d, f, dt, g, pp)
            searches.append((line_minimize(obj, cfg, hint=h), obj.evals))
        assert searches[1] == searches[0]

    @pytest.mark.parametrize("ls_max", [2, 3, 4])
    def test_exhausted_budget_returns_the_best_point(self, ls_max):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 30)
        f = rhs_explicit(phi, dt, g, PP)
        r = f - nonlinear_map(phi, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        seen = []

        class Recording(LineObjective):
            def __call__(self, alpha):
                val = super().__call__(alpha)
                seen.append((alpha, val))
                return val

        obj = Recording(phi, d, f, dt, g, PP)
        g0 = -g.cell_volume * float(np.sum(r * d))
        alpha, exhausted = line_minimize(obj, SolverConfig(ls_max=ls_max), g0=g0)
        # the first trial, alpha = 1, brackets the root, so every point seen is a candidate
        assert seen[0][0] == 1.0 and seen[0][1] >= 0.0
        assert exhausted and len(seen) == obj.evals == ls_max
        assert alpha == min(seen, key=lambda p: abs(p[1]))[0]
        assert not line_minimize(LineObjective(phi, d, f, dt, g, PP), CFG, g0=g0)[1]


class _Scalar(LineObjective):
    """A line objective given by a scalar function of alpha, with a fixed floor.

    The base point is 0 on a 4x4 grid and d = +-c, so the step cap is
    ``cap``; every trial is kept in ``trials``.
    """

    def __init__(self, fn, cap=100.0, floor=0.0):
        self.phi = np.zeros((4, 4))
        self.d = np.tile([1.0, -1.0], (4, 2)) * ((1.0 - CFG.ls_margin) / cap)
        self.fn, self._floor = fn, floor
        self.evals, self.floor = 0, 0.0
        self.trials = []

    def __call__(self, alpha):
        self.evals += 1
        val = self.fn(alpha)
        self.floor = self._floor
        self.trials.append((alpha, val))
        return val


class TestLineSearchRule:
    @pytest.mark.parametrize("g0", [0.0, 1.0])
    def test_no_descent_returns_without_evaluating(self, g0):
        obj = _Scalar(lambda a: -1.0)
        assert line_minimize(obj, CFG, g0=g0) == (0.0, False)
        assert obj.evals == 0

    """The chord extrapolation, Illinois regula falsi and the round-off stop."""

    def test_linear_g_takes_two_evaluations(self):
        obj = _Scalar(lambda a: 3.0 * (a - 2.7))
        alpha, exhausted = line_minimize(obj, CFG, g0=-8.1)
        # the first trial, then the root of the chord from (0, g0)
        assert obj.evals == 2 and not exhausted
        assert alpha == pytest.approx(2.7, rel=1e-12)

    def test_convex_g_at_tight_tolerance(self):
        # root 1.8, where g' has grown by 18 % (the objectives of a solve
        # are flatter still; g' doubling takes up to 9 evaluations)
        obj = _Scalar(lambda a: a + 0.05 * a * a - 1.962)
        alpha, exhausted = line_minimize(obj, SolverConfig(ls_tol=1e-10), g0=-1.962)
        assert obj.evals <= 6 and not exhausted
        assert abs(obj.fn(alpha)) <= 1e-10 * 1.962
        assert alpha == pytest.approx(1.8, rel=1e-9)
        ref = _Scalar(obj.fn)
        reference_line_minimize(ref, SolverConfig(ls_tol=1e-10), g0=-1.962)
        assert obj.evals < ref.evals

    def test_stops_at_the_round_off_floor(self):
        # g is resolved only to 1e-3 near its root; ls_tol asks for far less
        def fn(a):
            return a - 2.0 + 1e-3 * np.sin(1e7 * a)

        obj = _Scalar(fn, floor=1e-3)
        alpha, exhausted = line_minimize(obj, CFG, g0=-2.0)
        assert obj.evals <= 4 and not exhausted
        assert alpha == min(obj.trials, key=lambda p: abs(p[1]))[0]
        assert abs(fn(alpha)) <= 1e-3
        ref = _Scalar(fn, floor=1e-3)
        reference_line_minimize(ref, CFG, g0=-2.0)
        assert ref.evals > 4

    def test_negative_trial_within_tolerance_is_taken(self):
        obj = _Scalar(lambda a: a - 1.0 - 1e-12)
        alpha, exhausted = line_minimize(obj, CFG, g0=-1.0)
        assert (alpha, exhausted) == (1.0, False) and obj.evals == 1
        assert obj.trials[0][1] < 0.0

    @pytest.mark.parametrize(
        "fn, hint",
        [
            pytest.param(lambda a: a - 50.0, None, id="root-past-cap"),
            pytest.param(lambda a: 0.1 * a - 1.0, 2.0, id="slope-from-hint"),
            pytest.param(lambda a: np.sqrt(a) - 3.0, None, id="concave"),
            pytest.param(lambda a: -1.0, None, id="flat-doubles"),
            pytest.param(lambda a: -1.0 + 1e-3 * a, 10.0, id="hint-past-cap"),
        ],
    )
    def test_trials_never_pass_the_cap(self, fn, hint):
        obj = _Scalar(fn, cap=3.0)
        cap = admissible_step_cap(obj.phi, obj.d, CFG.ls_margin)
        assert cap == pytest.approx(3.0)
        alpha, exhausted = line_minimize(obj, CFG, g0=fn(0.0), hint=hint)
        assert all(a <= cap for a, _ in obj.trials)
        assert alpha == cap and not exhausted
        # a trial is at most four times the one before it
        steps = [a for a, _ in obj.trials]
        assert all(b <= 4.0 * a for a, b in zip(steps, steps[1:]))

    @pytest.mark.parametrize("case", ["pearling-32", "spinodal-32"])
    def test_along_solves_against_the_reference(self, case, monkeypatch):
        # every search of one step meets its stop rule, and all of them
        # together spend no more evaluations than the reference search
        if case == "pearling-32":
            scn = preset("pearling", n=32)
            g, pp, phi, dt, cfg = scn.grid, scn.phys, scn.initial_condition(), 1e-6, CFG
        else:
            g = Grid.square(32)
            pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
            phi, dt = init_spinodal(g, 1), 2e-4
            cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6, ls_tol=1e-4)
        real_search = fchsim.solver.line_minimize
        spent = {"new": 0, "reference": 0, "searches": 0}

        def search(obj, cfg, g0=None, hint=None):
            reference_line_minimize(obj, cfg, g0=g0, hint=hint)
            spent["reference"] += obj.evals
            obj.evals = 0
            alpha, exhausted = real_search(obj, cfg, g0=g0, hint=hint)
            evals = obj.evals
            assert not exhausted
            assert abs(obj(alpha)) <= max(cfg.ls_tol * abs(g0), obj.floor)
            obj.evals = evals
            spent["new"] += evals
            spent["searches"] += 1
            return alpha, exhausted

        monkeypatch.setattr(fchsim.solver, "line_minimize", search)
        _, report = psd_solve(phi, dt, g, pp, cfg, SpectralWorkspace(g))
        assert spent["searches"] == report.iterations >= 5
        assert report.line_search_evals == spent["new"] <= spent["reference"]


def _terms_after_step(obj, alpha, phi, terms, g):
    """The terms a solve builds at phi, the iterate it stepped to by alpha
    along obj: into the arrays of ``terms``, with obj's beta pair when its
    last evaluation was at alpha."""
    terms = linear_terms(phi, g, out=terms)
    if alpha == obj.at:
        terms.beta, terms.beta_prime = obj.beta_pair
    return terms


def _spy_residuals(monkeypatch):
    """Record each residual map a solve computes, with a copy of its iterate."""
    real = fchsim.solver.nonlinear_map
    seen = []

    def spy(phi, dt, grid, pp, terms=None):
        out = real(phi, dt, grid, pp, terms)
        seen.append((phi.copy(), out.copy()))
        return out

    monkeypatch.setattr(fchsim.solver, "nonlinear_map", spy)
    return seen


class TestPsdSolve:
    def test_constant_is_fixed_point(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        phi0 = np.full(g.shape, 0.3)
        phi1, report = psd_solve(phi0, 0.05, g, PP, CFG, ws)
        assert report.iterations <= 1
        assert np.array_equal(phi1, phi0)

    def test_matches_newton_oracle(self):
        for seed in (41, 42, 43):
            g, ws, phi, rng, dt = make_instance(Grid.square(8), seed)
            phi_psd, report = psd_solve(phi, dt, g, PP, CFG, ws)
            f = rhs_explicit(phi, dt, g, PP)
            phi_newton = newton_solve(phi, f, dt, g, PP)
            assert norm(phi_psd - phi_newton, g, "l2") <= 1e-8

    def test_mean_preserved(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 44, offset=0.1)
        phi1, _ = psd_solve(phi, dt, g, PP, CFG, ws)
        assert abs(phi1.mean() - phi.mean()) <= 1e-13 * max(1.0, abs(phi.mean()))

    def test_energy_decay_and_admissibility(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 45)
        e0 = energy_total(phi, g, PP).total
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        e1 = energy_total(phi1, g, PP).total
        assert e1 <= e0 + 10 * CFG.tol_res * max(1.0, abs(e0))
        assert report.margin > 0.0
        assert np.max(np.abs(phi1)) < 1.0

    def test_residual_below_tolerance(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 46)
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        f = rhs_explicit(phi, dt, g, PP)
        res = norm(nonlinear_map(phi1, dt, g, PP) - f, g, "l2")
        assert res <= CFG.tol_res * max(1.0, norm(f, g, "l2")) * (1 + 1e-12)
        assert report.residual == pytest.approx(res, rel=1e-12)

    def test_fresh_terms_give_the_from_scratch_map(self):
        g, ws, phi, rng, dt = make_instance(Grid((6, 8), (2.0, 1.0)), 49)
        with_terms = nonlinear_map(phi, dt, g, PP, linear_terms(phi, g))
        assert np.array_equal(with_terms, nonlinear_map(phi, dt, g, PP))

    def test_every_residual_is_the_one_from_scratch(self, monkeypatch):
        # on a multi-iteration spinodal solve, each iteration computes one
        # residual map, with the bits of N(phi) from scratch at its iterate
        g = Grid.square(32)
        pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
        cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-9)
        seen = _spy_residuals(monkeypatch)
        _, report = psd_solve(init_spinodal(g, 3), 2e-4, g, pp, cfg, SpectralWorkspace(g))
        for phi, got in seen:
            assert got.tobytes() == nonlinear_map(phi, 2e-4, g, pp).tobytes()
        assert report.iterations >= 5 and len(seen) == report.iterations + 1

    def test_the_first_residual_within_tolerance_ends_the_solve(self, monkeypatch):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 46)
        f = rhs_explicit(phi, dt, g, PP)
        tol = CFG.tol_res * max(1.0, norm(f, g, "l2"))
        seen = _spy_residuals(monkeypatch)
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        norms = [norm(f - out, g) for _, out in seen]
        assert report.iterations == len(norms) - 1 > 1
        assert min(norms[:-1]) > tol >= norms[-1] == report.residual
        assert seen[-1][0].tobytes() == phi1.tobytes()

    def test_a_float32_state_solves_in_float64(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 46)
        state = phi.astype(np.float32)
        got, report = psd_solve(state, dt, g, PP, CFG, ws)
        want, report_want = psd_solve(state.astype(float), dt, g, PP, CFG, ws)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert report == report_want and report.iterations > 0

    def test_scheme_residual_identity(self):
        # the solved step satisfies (phi1 - phi0)/dt = lap mu to the tolerance
        from fchsim.energy import chemical_potential, var_convex

        g, ws, phi, rng, dt = make_instance(Grid.square(16), 47)
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        mu = chemical_potential(var_convex(phi1, g, PP), var_concave(phi, g, PP))
        res = norm((phi1 - phi) / dt - laplacian(mu, g), g, "l2")
        f_norm = norm(rhs_explicit(phi, dt, g, PP), g, "l2")
        assert res <= CFG.tol_res * max(1.0, f_norm) * (1 + 1e-12)

    def test_objective_decreases_across_iterations(self):
        # J(phi) = ||phi - phi_n||_{-1}^2 / (2 dt) + E_c(phi) + <f_lin, phi>
        g, ws, phi_n, rng, dt = make_instance(Grid.square(12), 48)
        f = rhs_explicit(phi_n, dt, g, PP)
        f_lin = -var_concave(phi_n, g, PP)

        def J(p):
            return (
                spectral_norm_hm1(p - phi_n, ws) ** 2 / (2 * dt)
                + energy_total(p, g, PP).convex
                + inner(f_lin, p, g)
            )

        phi = phi_n.copy()
        values = [J(phi)]
        for _ in range(8):
            r = f - nonlinear_map(phi, dt, g, PP)
            if norm(r, g, "l2") <= CFG.tol_res * max(1.0, norm(f, g, "l2")):
                break
            d = precond_solve(r, dt, PP, CFG, ws)
            alpha, _ = line_minimize(LineObjective(phi, d, f, dt, g, PP), CFG)
            phi = phi + alpha * d
            values.append(J(phi))
        assert len(values) > 2
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12 * max(1.0, abs(a))

    def test_fewer_iterations_than_steepest_descent(self):
        # reference: plain preconditioned steepest descent, d = z every
        # iteration, to the same relative residual
        g, ws, phi_n, rng, dt = make_instance(Grid.square(16), 45)
        f = rhs_explicit(phi_n, dt, g, PP)
        tol = CFG.tol_res * max(1.0, norm(f, g, "l2"))
        phi, sd_iters = phi_n.copy(), 0
        while True:
            r = f - nonlinear_map(phi, dt, g, PP)
            if norm(r, g, "l2") <= tol:
                break
            d = precond_solve(r, dt, PP, CFG, ws)
            alpha, _ = line_minimize(LineObjective(phi, d, f, dt, g, PP), CFG)
            phi = phi + alpha * d
            sd_iters += 1
            assert sd_iters < CFG.max_iter
        phi_cg, report = psd_solve(phi_n, dt, g, PP, CFG, ws)
        assert report.iterations < sd_iters
        assert report.restarts >= 1
        assert norm(phi_cg - phi, g, "l2") <= tol

    def test_exhausted_line_searches_are_counted(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 45)
        _, report = psd_solve(phi, dt, g, PP, SolverConfig(ls_max=3), ws)
        assert report.ls_exhausted > 0
        _, report = psd_solve(phi, dt, g, PP, CFG, ws)
        assert report.ls_exhausted == 0

    def test_g_nondecreasing_on_admissible_interval(self):
        for seed in (51, 52, 53):
            g, ws, phi, rng, dt = make_instance(Grid.square(10), seed)
            f = rhs_explicit(phi, dt, g, PP)
            r = f - nonlinear_map(phi, dt, g, PP)
            d = precond_solve(r, dt, PP, CFG, ws)
            obj = LineObjective(phi, d, f, dt, g, PP)
            cap = admissible_step_cap(phi, d, CFG.ls_margin)
            vals = [obj(a) for a in np.linspace(0.0, min(cap, 30.0), 120)]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9 * max(1.0, abs(a))

    def test_nonconvergence_error(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(12), 54)
        tight = SolverConfig(max_iter=1, tol_res=1e-14)
        with pytest.raises(SolverDivergedError) as info:
            psd_solve(phi, dt, g, PP, tight, ws)
        assert info.value.residual > 0.0
        assert info.value.iterations == 1

    def test_non_finite_tolerance_is_divergence(self):
        # rms(symbol) overflows, so the floored tolerance would be inf and
        # accept the unsolved first iterate
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 7)
        with pytest.raises(SolverDivergedError) as info:
            psd_solve(phi, dt, g, PP, SolverConfig(theta1=1e308), ws)
        assert info.value.iterations == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_source_is_divergence(self, value):
        # max(1, nan) is 1, so the tolerance check alone lets a NaN
        # right-hand side through to the line search
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 61)
        source = np.zeros(g.shape)
        source[3, 5] = value
        with pytest.raises(SolverDivergedError, match="right-hand side is not finite") as info:
            psd_solve(phi, dt, g, PP, CFG, ws, source=source)
        assert info.value.iterations == 0

    def test_inadmissible_seed_is_dropped(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 55)
        plain, plain_report = psd_solve(phi, dt, g, PP, CFG, ws)
        seed = 2.0 * phi  # re-centred, it still leaves the solver's headroom
        seeded, report = psd_solve(phi, dt, g, PP, CFG, ws, phi_init=seed)
        assert np.array_equal(seeded, plain)
        assert report == plain_report

    def test_seed_mean_is_recentred(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 56, offset=0.1)
        plain, plain_report = psd_solve(phi, dt, g, PP, CFG, ws)
        seeded, report = psd_solve(phi, dt, g, PP, CFG, ws, phi_init=plain + 0.05)
        assert report.iterations < plain_report.iterations  # the seed was taken
        assert abs(seeded.mean() - phi.mean()) <= MASS_RTOL * max(1.0, abs(phi.mean()))
        assert norm(seeded - plain, g, "l2") <= 1e-6

    def test_good_seed_takes_fewer_iterations(self):
        # the solution at a nearby dt is an admissible, close first iterate
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 57)
        nearby, _ = psd_solve(phi, 0.9 * dt, g, PP, CFG, ws)
        plain, plain_report = psd_solve(phi, dt, g, PP, CFG, ws)
        seeded, report = psd_solve(phi, dt, g, PP, CFG, ws, phi_init=nearby)
        assert report.iterations < plain_report.iterations
        f_norm = norm(rhs_explicit(phi, dt, g, PP), g, "l2")
        assert report.residual <= CFG.tol_res * max(1.0, f_norm)

    def test_rejects_inadmissible_start(self):
        from fchsim.potential import PotentialDomainError

        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        with pytest.raises(PotentialDomainError):
            psd_solve(np.full(g.shape, 1.0), 0.01, g, PP, CFG, ws)

    def test_one_dimensional_solve(self):
        g = Grid((16,), (1.0,))
        ws = SpectralWorkspace(g)
        x = g.axes()[0]
        phi = 0.4 * np.sin(2 * np.pi * x) + 0.1
        phi1, report = psd_solve(phi, 0.02, g, PP, CFG, ws)
        f = rhs_explicit(phi, 0.02, g, PP)
        res = norm(nonlinear_map(phi1, 0.02, g, PP) - f, g, "l2")
        assert res <= CFG.tol_res * max(1.0, norm(f, g, "l2")) * (1 + 1e-12)
        assert abs(phi1.mean() - phi.mean()) <= 1e-13

    @pytest.mark.parametrize("name", ["phi_n", "phi_init", "source", "ws", "concave"])
    def test_rejects_an_input_off_the_grid(self, name):
        g, ws, phi, rng, dt = make_instance(Grid.square(32), 58)
        small = Grid.square(16)
        bad = {"phi_n": np.zeros(small.shape), "phi_init": phi[:1], "source": np.zeros(32),
               "ws": SpectralWorkspace(small), "concave": np.zeros(small.shape)}
        args = {"phi_n": phi, "ws": ws, name: bad[name]}
        with pytest.raises(ValueError, match=name):
            psd_solve(dt=dt, grid=g, pp=PP, cfg=CFG, **args)

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
    def test_rejects_a_bad_time_step(self, dt):
        g, ws, phi, rng, _ = make_instance(Grid.square(8), 59)
        with pytest.raises(ValueError, match="time step must be positive and finite"):
            psd_solve(phi, dt, g, PP, CFG, ws)

    def test_stalled_line_search_diverges(self, monkeypatch):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 60)
        monkeypatch.setattr(fchsim.solver, "line_minimize", lambda *a, **k: (0.0, False))
        with pytest.raises(SolverDivergedError, match="stalled"):
            psd_solve(phi, dt, g, PP, CFG, ws)

    def test_handed_concave_gives_the_same_solve(self):
        # var_concave(phi_n) handed in is what the solve would compute itself
        g, ws, phi_n, rng, dt = make_instance(Grid.square(16), 47)
        src = 0.1 * smooth_admissible_field(g, rng, amplitude=0.5)
        src -= src.mean()
        plain = psd_solve(phi_n, dt, g, PP, CFG, ws, source=src)
        handed = psd_solve(phi_n, dt, g, PP, CFG, ws, source=src,
                           concave=var_concave(phi_n, g, PP))
        assert handed[0].tobytes() == plain[0].tobytes()
        assert handed[1] == plain[1]
        assert handed[1].iterations > 0

    @pytest.mark.parametrize("end", ["first", "closing", "unhanded"])
    def test_report_carries_the_pieces_of_both_states(self, end, monkeypatch):
        # whether the solve ends at its first iterate, or later on a beta pair
        # handed by the last line evaluation or on one the residual computed,
        # the report holds the pieces of the returned state with the bits of
        # a rebuild
        from fchsim.energy import var_convex

        g, ws, phi_n, rng, dt = make_instance(Grid.square(16), 46)
        phi_init = None
        if end == "first":
            phi_init, _ = psd_solve(phi_n, dt, g, PP, CFG, ws)
        if end == "unhanded":
            real_search = fchsim.solver.line_minimize

            def search(obj, *args, **kwargs):
                alpha, exhausted = real_search(obj, *args, **kwargs)
                obj(0.5 * alpha)  # the last evaluation is not at the step taken
                return alpha, exhausted

            monkeypatch.setattr(fchsim.solver, "line_minimize", search)
        real_map, handed = fchsim.solver.nonlinear_map, []

        def spy(phi, dt, grid, pp, terms=None):
            handed.append(terms.beta is not None)
            return real_map(phi, dt, grid, pp, terms)

        monkeypatch.setattr(fchsim.solver, "nonlinear_map", spy)
        phi1, report = psd_solve(phi_n, dt, g, PP, CFG, ws, phi_init=phi_init)
        assert (report.iterations == 0) == (end == "first")
        assert handed[-1] == (end == "closing")
        fresh, terms = linear_terms(phi1, g), report.terms
        pairs = [(terms.bilap, fresh.bilap), (terms.gsq, fresh.gsq), (terms.lap, fresh.lap),
                 *zip(terms.dphi, fresh.dphi), (terms.beta, beta(phi1)),
                 (terms.beta_prime, beta_prime(phi1)), (terms.convex, var_convex(phi1, g, PP))]
        assert len(terms.dphi) == g.ndim
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()


class TestObjectivePool:
    """Objectives of a solve after the first take over the fields of the
    spent one; nothing left in those fields may reach a result."""

    @staticmethod
    def spinodal():
        g = Grid.square(32)
        pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
        cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6, ls_tol=1e-4)
        return g, pp, cfg, init_spinodal(g, 1), 2e-4

    @staticmethod
    def held(terms):
        return [terms.bilap, *terms.dphi, terms.gsq, terms.lap, terms.beta, terms.beta_prime]

    @staticmethod
    def owned(obj):
        # the objective's fields by the roles that outlive its construction
        return [*obj._work, obj.lap_d, obj._gsq_2b, obj._gsq_c, *obj._face_p, *obj._face_q]

    def test_chain_matches_fresh_objectives(self):
        # as in a solve: each objective is built, after the residual at its
        # base point, from the fields of the spent one, and each iterate's
        # terms are rebuilt into the arrays of the last; fresh objectives on
        # fresh terms give the same bits
        g, pp, cfg, phi, dt = self.spinodal()
        ws = SpectralWorkspace(g)
        f = rhs_explicit(phi, dt, g, pp)
        rng = np.random.default_rng(7)
        pooled, fresh = linear_terms(phi, g), linear_terms(phi, g)
        arrays = {id(a) for a in self.held(pooled)[:-2]}
        spent = None
        for k in range(6):
            r = f - nonlinear_map(phi, dt, g, pp, pooled)
            assert r.tobytes() == (f - nonlinear_map(phi, dt, g, pp, fresh)).tobytes()
            d = precond_solve(r, dt, pp, cfg, ws)
            if k % 2:
                d *= rng.uniform(0.5, 1.5, g.shape)
                d -= d.mean()
            reused = LineObjective(phi, d, f, dt, g, pp, pooled, _spent=spent)
            assert pooled.beta is None and pooled.beta_prime is None
            assert len({id(a) for a in reused._fields}) == 15
            assert not arrays & {id(a) for a in reused._fields}
            if spent is not None:
                assert all(a is b for a, b in zip(self.owned(reused), self.owned(spent)))
            new = LineObjective(phi, d, f, dt, g, pp, fresh)
            top = min(1.0, admissible_step_cap(phi, d, cfg.ls_margin))
            alphas = [0.0, 0.3 * top, 0.9 * top, 0.6 * top]
            for alpha in alphas:
                assert reused(alpha) == new(alpha)
                assert reused.floor == new.floor
            # k == 3 steps to a point that is not the last evaluated, so no
            # beta pair is handed on
            alpha = alphas[2] if k == 3 else alphas[-1]
            phi = phi + alpha * d
            pooled = _terms_after_step(reused, alpha, phi, pooled, g)
            fresh = linear_terms(phi, g)
            assert {id(a) for a in self.held(pooled)[:-2]} == arrays
            for got, want in zip(self.held(pooled)[:-2], self.held(fresh)):
                assert got.tobytes() == want.tobytes()
            assert (pooled.beta is None) == (k == 3)
            if k != 3:
                assert pooled.beta is reused._work[3] and pooled.beta_prime is reused._work[4]
            spent = reused

    def test_solve_matches_one_without_the_pool(self, monkeypatch):
        g, pp, cfg, phi, dt = self.spinodal()
        phi_pooled, report_pooled = psd_solve(phi, dt, g, pp, cfg, SpectralWorkspace(g))

        class Unpooled(LineObjective):
            def __init__(self, *args, _spent=None, **kwargs):
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(fchsim.solver, "LineObjective", Unpooled)
        phi_fresh, report_fresh = psd_solve(phi, dt, g, pp, cfg, SpectralWorkspace(g))
        assert report_pooled.iterations >= 4
        assert phi_pooled.tobytes() == phi_fresh.tobytes()
        assert report_pooled == report_fresh

    def test_handed_pair_is_beta_of_the_iterate(self, monkeypatch):
        # every residual after the first reads the pair the last objective
        # handed on; it is beta and beta' of the iterate
        g, pp, cfg, phi, dt = self.spinodal()
        real = fchsim.solver.nonlinear_map
        handed = []

        def spy(phi, dt, grid, pp, terms=None):
            if terms is not None and terms.beta is not None:
                assert terms.beta.tobytes() == beta(phi).tobytes()
                assert terms.beta_prime.tobytes() == beta_prime(phi).tobytes()
                handed.append((terms.beta, terms.beta_prime))
            return real(phi, dt, grid, pp, terms)

        monkeypatch.setattr(fchsim.solver, "nonlinear_map", spy)
        _, report = psd_solve(phi, dt, g, pp, cfg, SpectralWorkspace(g))
        assert len(handed) == report.iterations >= 4

    def test_later_objectives_allocate_no_field(self, monkeypatch):
        g, pp, cfg, phi, dt = self.spinodal()
        peaks = []

        class Measured(LineObjective):
            def __init__(self, *args, **kwargs):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                super().__init__(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(fchsim.solver, "LineObjective", Measured)
        tracemalloc.start()
        try:
            _, report = psd_solve(phi, dt, g, pp, cfg, SpectralWorkspace(g))
        finally:
            tracemalloc.stop()
        field = math.prod(g.shape) * 8
        assert len(peaks) == report.iterations >= 4
        assert peaks[0] >= 15 * field
        assert max(peaks[1:]) < field

    def test_solve_peaks_under_33_fields(self):
        g, pp, cfg, phi, dt = self.spinodal()
        ws = SpectralWorkspace(g)
        precond_symbol(ws, dt, pp, cfg)  # kept between solves, so not counted
        tracemalloc.start()
        try:
            _, report = psd_solve(phi, dt, g, pp, cfg, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations >= 4
        assert peak < 33 * math.prod(g.shape) * 8


class TestTracedCallContract:
    """What the benchmark's tracer relies on: it resets its step cap on entry
    to line_minimize, reads the cap returned inside it and compares it with
    element [0] of line_minimize's result."""

    def test_step_cap_is_taken_inside_line_minimize(self, monkeypatch):
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 45)
        events = []
        directions = []
        depth = 0
        real_search = fchsim.solver.line_minimize
        real_cap = fchsim.solver.admissible_step_cap
        real_terms = fchsim.solver.linear_terms

        def search(*args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                result = real_search(*args, **kwargs)
            finally:
                depth -= 1
            events.append(("line_minimize", result))
            return result

        def cap(*args):
            events.append(("cap", depth))
            return real_cap(*args)

        def terms(phi, grid, out=None):
            events.append(("terms", phi.copy()))
            return real_terms(phi, grid, out)

        class Recorded(LineObjective):
            def __init__(self, phi, d, *args, **kwargs):
                directions.append(d.copy())
                super().__init__(phi, d, *args, **kwargs)

        monkeypatch.setattr(fchsim.solver, "line_minimize", search)
        monkeypatch.setattr(fchsim.solver, "admissible_step_cap", cap)
        monkeypatch.setattr(fchsim.solver, "linear_terms", terms)
        monkeypatch.setattr(fchsim.solver, "LineObjective", Recorded)
        _, report = psd_solve(phi, dt, g, PP, CFG, ws)
        assert report.iterations >= 2
        kinds = [kind for kind, _ in events]
        assert kinds == ["terms"] + ["cap", "line_minimize", "terms"] * report.iterations
        _, phi = events[0]
        steps = zip(*[iter(events[1:])] * 3)
        for ((_, cap_depth), (_, result), (_, phi_next)), d in zip(steps, directions):
            assert cap_depth == 1
            assert isinstance(result, tuple) and isinstance(result[0], float)
            # element [0] is the step the solve takes
            assert phi_next.tobytes() == (phi + result[0] * d).tobytes()
            phi = phi_next
