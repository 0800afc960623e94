import numpy as np
import pytest

import fchsim.solver
from fchsim.energy import (
    energy_total,
    linear_terms,
    nonlinear_map,
    rhs_explicit,
    var_concave,
)
from fchsim.grid import Grid, SpectralWorkspace, inner, laplacian, norm
from fchsim.potential import PhysParams
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

from oracles import dense_laplacian, newton_solve, smooth_admissible_field, spectral_norm_hm1

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
         dict(ls_max=0)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestPreconditioner:
    def test_constant_input_gives_zero(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        d = precond_solve(g.full(7.0), 0.1, PP, CFG, ws)
        assert np.max(np.abs(d)) <= 1e-15

    def test_eigenvector_hand_value(self):
        # 1D n=4, r an eigenvector of -lap with sigma = 32; the symbol there is
        # 1/dt + eps^4 s^3 + eps^2 s^2 + (lam^2 + lam eps^p eta + 1) s = 2658
        g = Grid.line(4, 1.0)
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
        eye = np.eye(g.num_cells)
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
        alpha, evals = line_minimize(phi, g.zeros(), f, dt, g, PP, CFG)
        assert alpha == 0.0 and evals == 0

    def test_solved_state_gives_zero(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 34)
        phi_new, _ = psd_solve(phi, dt, g, PP, CFG, ws)
        f = rhs_explicit(phi, dt, g, PP)
        r = f - nonlinear_map(phi_new, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        alpha, _ = line_minimize(phi_new, d, f, dt, g, PP, CFG)
        # at the solution the best step is numerically negligible
        assert abs(alpha) * np.max(np.abs(d)) <= 1e-10

    @pytest.mark.parametrize(
        "g, fed",
        [
            pytest.param(g, fed, id=name + ("-state" if fed else ""))
            for fed in (False, True)
            for g, name in [
                (Grid.square(8), "square8"),
                (Grid.line(16), "line16"),
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
            # the terms a solve carries: built at phi, then moved by one step
            terms = linear_terms(phi, g)
            d = precond_solve(f - nonlinear_map(phi, dt, g, PP), dt, PP, CFG, ws)
            alpha, _ = line_minimize(phi, d, f, dt, g, PP, CFG, terms=terms)
            phi = phi + alpha * d
        r = f - nonlinear_map(phi, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        obj = LineObjective(phi, d, f, dt, g, PP, terms)
        cap = admissible_step_cap(phi, d, CFG.ls_margin)
        for alpha in np.linspace(0.0, min(cap, 2.0), 9):
            naive = inner(nonlinear_map(phi + alpha * d, dt, g, PP) - f, d, g)
            assert obj(alpha) == pytest.approx(naive, rel=1e-12, abs=1e-9)

    def test_step_cap_keeps_margin(self):
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 36)
        d = rng.standard_normal(g.shape)
        cap = admissible_step_cap(phi, d, 1e-4)
        sup0 = np.max(np.abs(phi))
        bound = 1.0 - 1e-4 * (1.0 - sup0)
        assert np.max(np.abs(phi + cap * d)) <= bound * (1 + 1e-12)
        assert np.max(np.abs(phi + 1.01 * cap * d)) > bound

    def test_matches_scan_oracle(self):
        # root position against a brute scan of the naive g plus bisection
        g, ws, phi, rng, dt = make_instance(Grid.square(8), 37)
        f = rhs_explicit(phi, dt, g, PP)
        r = f - nonlinear_map(phi, dt, g, PP)
        d = precond_solve(r, dt, PP, CFG, ws)
        alpha, _ = line_minimize(phi, d, f, dt, g, PP, CFG)

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


class TestPsdSolve:
    def test_constant_is_fixed_point(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        phi0 = g.full(0.3)
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

    def test_carried_terms_match_a_rebuild(self, monkeypatch):
        # a multi-iteration solve on a spinodal state: the terms carried to
        # each iterate agree with the ones rebuilt from it to within 50 ulps
        # of the field's size per iteration
        from fchsim.scenarios import init_spinodal, well_depth

        g = Grid.square(32)
        pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
        cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-9)
        carried = []
        real = fchsim.solver.nonlinear_map

        def spy(phi, dt, grid, pp, terms=None):
            if terms is not None:
                carried.append((phi.copy(), terms.bilap.copy(), [a.copy() for a in terms.dphi],
                                terms.gsq.copy()))
            return real(phi, dt, grid, pp, terms)

        monkeypatch.setattr(fchsim.solver, "nonlinear_map", spy)
        _, report = psd_solve(init_spinodal(g, 3), 2e-4, g, pp, cfg, SpectralWorkspace(g))
        assert report.iterations >= 5 and len(carried) == report.iterations + 1
        for it, (phi, bilap, dphi, gsq) in enumerate(carried):
            fresh = linear_terms(phi, g)
            bound = 50 * np.finfo(float).eps * max(it, 1)
            for got, want in [(bilap, fresh.bilap), (gsq, fresh.gsq), *zip(dphi, fresh.dphi)]:
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))

    def test_only_a_from_scratch_residual_ends_the_solve(self, monkeypatch):
        # the carried residual at the first step reads zero; the residual from
        # scratch misses the tolerance, so the solve goes on
        g, ws, phi, rng, dt = make_instance(Grid.square(16), 46)
        f = rhs_explicit(phi, dt, g, PP)
        tol = CFG.tol_res * max(1.0, norm(f, g, "l2"))
        real = fchsim.solver.nonlinear_map
        calls = {"carried": 0, "scratch": []}

        def lying(phi_, dt_, grid, pp, terms=None):
            if terms is None:
                out = real(phi_, dt_, grid, pp)
                calls["scratch"].append(norm(f - out, g, "l2"))
                return out
            calls["carried"] += 1
            return f.copy() if calls["carried"] == 2 else real(phi_, dt_, grid, pp, terms)

        monkeypatch.setattr(fchsim.solver, "nonlinear_map", lying)
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        assert calls["scratch"][0] > tol
        assert report.iterations > 1
        assert calls["scratch"][-1] <= tol and report.residual == calls["scratch"][-1]
        assert norm(real(phi1, dt, g, PP) - f, g, "l2") <= tol

    def test_scheme_residual_identity(self):
        # the solved step satisfies (phi1 - phi0)/dt = lap mu to the tolerance
        from fchsim.energy import chemical_potential

        g, ws, phi, rng, dt = make_instance(Grid.square(16), 47)
        phi1, report = psd_solve(phi, dt, g, PP, CFG, ws)
        mu = chemical_potential(phi1, phi, g, PP)
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
            alpha, _ = line_minimize(phi, d, f, dt, g, PP, CFG)
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
            alpha, _ = line_minimize(phi, d, f, dt, g, PP, CFG)
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

    def test_rejects_inadmissible_start(self):
        from fchsim.potential import PotentialDomainError

        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        with pytest.raises(PotentialDomainError):
            psd_solve(g.full(1.0), 0.01, g, PP, CFG, ws)

    def test_one_dimensional_solve(self):
        g = Grid.line(16)
        ws = SpectralWorkspace(g)
        x = g.axes()[0]
        phi = 0.4 * np.sin(2 * np.pi * x) + 0.1
        phi1, report = psd_solve(phi, 0.02, g, PP, CFG, ws)
        f = rhs_explicit(phi, 0.02, g, PP)
        res = norm(nonlinear_map(phi1, 0.02, g, PP) - f, g, "l2")
        assert res <= CFG.tol_res * max(1.0, norm(f, g, "l2")) * (1 + 1e-12)
        assert abs(phi1.mean() - phi.mean()) <= 1e-13
