import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fchsim.dynamics
import fchsim.energy
import fchsim.solver
from fchsim.dynamics import (
    ENERGY_SLACK_FACTOR,
    MASS_RTOL,
    AdaptiveConfig,
    StabilityViolationError,
    DiagnosticsRecord,
    _CUBIC_ERROR_RATIO,
    _extrapolate,
    _Trajectory,
    advance_adaptive,
    advance_fixed,
    step,
)
from fchsim.energy import energy_total
from fchsim.grid import Grid, SpectralWorkspace, cell_diff, face_diff, inner, norm
from fchsim.potential import PhysParams, beta_prime
from fchsim.scenarios import (
    init_spinodal,
    manufactured_forcing,
    manufactured_state,
    preset,
    well_depth,
)
from fchsim.solver import LineSearchError, SolverConfig, SolverDivergedError, psd_solve

from oracles import smooth_admissible_field, step_record_from_scratch

PP = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)
CFG = SolverConfig()


def quick_setup(n=16, seed=61):
    g = Grid.square(n)
    ws = SpectralWorkspace(g)
    rng = np.random.default_rng(seed)
    phi = smooth_admissible_field(g, rng, amplitude=0.5) + 0.05
    return g, ws, phi


class TestAdaptiveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt_min=0.0),
            dict(dt_min=1.0, dt_max=0.5),
            dict(rate_lo=0.2, rate_hi=0.1),
            dict(dt_max=0.0),
            dict(rate_lo=0.1, rate_hi=0.1),
            dict(dt_init=0.0),
            dict(dt_init=-1e-3),
            dict(rate_hi=0.0, rate_lo=-1.0),
            dict(dt_max=float("inf")),
            dict(dt_min=float("inf"), dt_max=float("inf")),
            dict(dt_init=float("inf")),
            dict(rate_hi=float("inf")),
            dict(rate_lo=float("-inf")),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)


class TestStep:
    def test_constant_state_unchanged(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        phi = np.full(g.shape, 0.25)
        phi1, rec, _ = step(phi, 0.01, g, PP, CFG, ws)
        assert np.array_equal(phi1, phi)
        assert rec.psd_iters <= 1
        e = energy_total(phi, g, PP).total
        assert rec.e_fch == pytest.approx(e, rel=1e-12)

    def test_record_fields(self):
        g, ws, phi = quick_setup()
        phi1, rec, _ = step(phi, 0.01, g, PP, CFG, ws, t_new=1.51, index=7)
        assert rec.step == 7
        assert rec.t == 1.51
        assert rec.dt == 0.01
        assert -1.0 < rec.phi_min <= rec.phi_max < 1.0
        assert rec.mass == pytest.approx(phi.mean(), abs=1e-12)
        assert rec.grad_mu >= 0.0
        assert rec.residual >= 0.0

    def test_energy_decay_assertion_fires(self):
        g, ws, phi = quick_setup()
        with pytest.raises(StabilityViolationError) as info:
            step(phi, 0.01, g, PP, CFG, ws, prev_total=-1e9)
        assert info.value.quantity == "energy increase"

    def test_mass_assertion_fires(self):
        g, ws, phi = quick_setup()
        with pytest.raises(StabilityViolationError) as info:
            step(phi, 0.01, g, PP, CFG, ws, mass_ref=0.77)
        assert info.value.quantity == "mass drift"

    def test_separation_assertion_fires(self, monkeypatch):
        g, ws, phi = quick_setup()

        def solve(phi_n, *args, **kwargs):
            touching = phi_n.copy()
            touching[0, 0] = 1.0
            return touching, None

        monkeypatch.setattr(fchsim.dynamics, "psd_solve", solve)
        with pytest.raises(StabilityViolationError) as info:
            step(phi, 0.01, g, PP, CFG, ws)
        assert info.value.quantity == "sup norm of phi"

    def test_forced_step_skips_energy_assertion(self):
        # a strong source can push energy up; with source given this must not raise
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        phi = manufactured_state(g, 0.0)
        src = manufactured_forcing(g, 0.0, PP, 4)
        phi1, rec, _ = step(phi, 0.01, g, PP, CFG, ws, source=src)
        assert np.max(np.abs(phi1)) < 1.0


# 1D, non-square 2D and odd-n 2D, each at most 16 cells per axis
PROPERTY_GRIDS = (Grid((16,), (1.0,)), Grid((12, 16), (1.0, 1.5)), Grid.square(15))


def _field(grid: Grid, bound: float):
    return arrays(np.float64, grid.shape, elements=st.floats(-bound, bound))


@st.composite
def admissible_steps(draw):
    """A grid, a random state with |phi| <= 0.9 on it, and a time step."""
    grid = draw(st.sampled_from(PROPERTY_GRIDS))
    phi = draw(_field(grid, 0.9))
    dt = draw(st.floats(1e-5, 1e-2))
    return grid, phi, dt


@st.composite
def cell_and_face_fields(draw):
    grid = draw(st.sampled_from(PROPERTY_GRIDS))
    psi = draw(_field(grid, 1e3))
    F = [draw(_field(grid, 1e3)) for _ in range(grid.ndim)]
    return grid, psi, F


class TestStepProperties:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(admissible_steps())
    def test_one_step_guarantees(self, case):
        g, phi, dt = case
        e0 = energy_total(phi, g, PP).total
        phi1, rec, _ = step(phi, dt, g, PP, CFG, SpectralWorkspace(g))
        mass0 = float(np.mean(phi))
        assert abs(np.mean(phi1) - mass0) <= MASS_RTOL * max(1.0, abs(mass0))
        assert np.max(np.abs(phi1)) < 1.0
        slack = ENERGY_SLACK_FACTOR * CFG.tol_res * max(1.0, abs(e0))
        assert energy_total(phi1, g, PP).total + dt * rec.grad_mu**2 <= e0 + slack

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(cell_and_face_fields())
    def test_summation_by_parts(self, case):
        # <psi, div F> = -[grad psi, F]
        g, psi, F = case
        lhs = inner(psi, sum(cell_diff(Fa, g, a) for a, Fa in enumerate(F)), g)
        rhs = -g.cell_volume * sum(np.sum(face_diff(psi, g, a) * Fa) for a, Fa in enumerate(F))
        # scale / h bounds each side up to a factor 2 * ndim
        scale = g.cell_volume * np.sum(np.abs(psi)) * max(np.max(np.abs(Fa)) for Fa in F)
        assert abs(lhs - rhs) <= 1e-12 * max(scale / min(g.spacing), 1.0)


class TestAdvanceFixed:
    def test_zero_steps(self):
        g, ws, phi = quick_setup()
        records, out = advance_fixed(phi, 0.01, 0, g, PP, CFG, ws)
        assert records == []
        assert out is phi

    def test_shorter_run_is_a_bitwise_prefix(self):
        # a 2 + 2 split is not bitwise a 4-step run: the predictor's history
        # starts empty at each call.  A shorter run is a prefix of a longer one.
        g, ws, phi = quick_setup(seed=62)
        dt = 0.01
        seen = []
        recs_full, _ = advance_fixed(
            phi, dt, 4, g, PP, CFG, ws, sink=lambda r, p: seen.append(p.copy())
        )
        recs_two, phi_two = advance_fixed(phi, dt, 2, g, PP, CFG, ws)
        assert recs_two == recs_full[:2]
        assert np.array_equal(phi_two, seen[1])

    def test_determinism(self):
        g, ws, phi = quick_setup(seed=63)
        _, out1 = advance_fixed(phi, 0.01, 3, g, PP, CFG, ws)
        _, out2 = advance_fixed(phi, 0.01, 3, g, PP, CFG, ws)
        assert np.array_equal(out1, out2)

    def test_energy_monotone_along_run(self):
        g, ws, phi = quick_setup(seed=64)
        records, _ = advance_fixed(phi, 0.02, 10, g, PP, CFG, ws)
        energies = [energy_total(phi, g, PP).total] + [r.e_fch for r in records]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 10 * CFG.tol_res * max(1.0, abs(a))

    def test_forced_run_conserves_mass(self):
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        phi = manufactured_state(g, 0.0)
        records, out = advance_fixed(
            phi, 0.02, 5, g, PP, CFG, ws,
            source_fn=lambda t: manufactured_forcing(g, t, PP, 4),
        )
        assert abs(out.mean() - phi.mean()) <= 1e-12

    def test_sink_receives_records(self):
        g, ws, phi = quick_setup(seed=65)
        seen = []
        advance_fixed(phi, 0.01, 3, g, PP, CFG, ws, sink=lambda r, p: seen.append(r.step))
        assert seen == [1, 2, 3]

    def test_source_times_count_whole_steps(self):
        t0, dt, n = 1.0, 0.003, 10
        exact = [t0 + k * dt for k in range(n)]
        summed = [t0]
        for _ in range(n - 1):
            summed.append(summed[-1] + dt)
        assert summed != exact  # summing dt would drift for this pair
        g, ws, phi = quick_setup(seed=65)
        times = []

        def source_fn(t):
            times.append(t)
            return np.full(g.shape, 0.0)

        records, _ = advance_fixed(phi, dt, n, g, PP, CFG, ws, t0=t0, source_fn=source_fn)
        assert times == exact
        # step k ends where step k + 1 starts: record k reads t0 + k dt too
        assert [r.t for r in records] == exact[1:] + [t0 + n * dt]
        assert all(r.dt == dt for r in records)

    def test_failed_solve_propagates_at_once(self, monkeypatch):
        g, ws, phi = quick_setup(seed=65)
        dts = []

        def spy(phi_n, dt, *args, **kwargs):
            dts.append(dt)
            if len(dts) == 2:
                raise SolverDivergedError("forced", residual=np.nan, iterations=0)
            return psd_solve(phi_n, dt, *args, **kwargs)

        monkeypatch.setattr(fchsim.dynamics, "psd_solve", spy)
        with pytest.raises(SolverDivergedError):
            advance_fixed(phi, 0.01, 4, g, PP, CFG, ws)
        assert dts == [0.01, 0.01]

    def test_far_from_zero_takes_exactly_n_steps(self, monkeypatch):
        # t_end - (t0 + 4 dt) exceeds dt by 4.2e-13 here, round-off of t far
        # above dt's own; the last step is still taken at dt, lands on t_end
        # and is at the floor: its failure propagates at once
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        t0, dt = 1e4, 0.011
        records, _ = advance_fixed(np.full(g.shape, 0.2), dt, 5, g, PP, CFG, ws, t0=t0)
        assert len(records) == 5
        assert records[-1].t == t0 + 5 * dt
        assert all(r.dt == dt for r in records)

        calls = []

        def spy(*args, **kwargs):
            calls.append(args[1])
            if len(calls) > 5:
                raise AssertionError("the last step was retried")
            if len(calls) == 5:
                raise SolverDivergedError("forced", residual=np.nan, iterations=0)
            return psd_solve(*args, **kwargs)

        monkeypatch.setattr(fchsim.dynamics, "psd_solve", spy)
        with pytest.raises(SolverDivergedError):
            advance_fixed(np.full(g.shape, 0.2), dt, 5, g, PP, CFG, ws, t0=t0)
        assert len(calls) == 5


def _cubic_in_time(shape, seed):
    """A field a + b t + c t^2 + d t^3 with random coefficient fields."""
    a, b, c, d = np.random.default_rng(seed).standard_normal((4, *shape))
    return lambda t: a + b * t + c * t * t + d * t * t * t


def _record(t, dt):
    """An accepted record stamped t and dt; the trajectory reads no other field."""
    return DiagnosticsRecord(step=0, t=t, dt=dt, e_fch=0.0, e_ch=0.0, e_pfw=0.0, mass=0.0,
                             phi_min=0.0, phi_max=0.0, h2_norm=0.0, grad_mu=0.0,
                             psd_iters=0, residual=0.0)


def _drive(field, dts, noise=0.0, seed=0):
    """Accept ``field`` at the end of each attempt of dt in ``dts``, with noise.

    Returns the trajectory and, per attempt, the number of states it had and
    its seed.  Each accepted state carries uniform noise of size ``noise``.
    """
    rng = np.random.default_rng(seed)
    run = _Trajectory(field(0.0), 0.0, sum(dts), dts[0], 0.0, None)
    seeds = []
    for (_, dt, t_new, seed_), dt_next in zip(run.attempts(), [*dts[1:], dts[-1]]):
        seeds.append((len(run.states), seed_))
        state = field(t_new) + noise * rng.uniform(-1.0, 1.0, size=run.phi.shape)
        run.accept(state, _record(t_new, dt), None)
        run.dt = dt_next
    return run, seeds


# unequal steps, as the controller makes them after halving and doubling
DTS = [1e-3, 5e-4, 5e-4, 1e-3, 2e-3, 1e-3, 5e-4, 1e-3]


class TestPredictor:
    def test_reproduces_quadratic_in_time(self):
        rng = np.random.default_rng(70)
        a, b, c = (rng.standard_normal((8, 8)) for _ in range(3))

        def field(t):
            return a + b * t + c * t * t

        h1, h2, tau = 0.3, 0.7, 0.45
        t_n = 1.1
        states = [field(t_n), field(t_n - h1), field(t_n - h1 - h2)]
        got = _extrapolate(states, [h1, h2], tau)
        want = field(t_n + tau)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_linear_then_none(self):
        rng = np.random.default_rng(71)
        a, b = rng.standard_normal((2, 8, 8))
        got = _extrapolate([a + 0.2 * b, a], [0.2], 0.05)
        assert np.max(np.abs(got - (a + 0.25 * b))) <= 1e-14 * np.max(np.abs(a + 0.25 * b))
        assert _extrapolate([a], [], 0.05) is None

    def test_cubic_seed_reproduces_cubic_in_time(self):
        field = _cubic_in_time((8, 8), 72)
        h1, h2, h3, tau, t_n = 0.3, 0.7, 0.2, 0.45, 1.1
        times = [t_n, t_n - h1, t_n - h1 - h2, t_n - h1 - h2 - h3]
        run = _Trajectory(field(times[-1]), times[-1], t_n + tau, tau, 0.0, None)
        run.states, run.gaps, run.order, run.t = [field(t) for t in times], [h1, h2, h3], 3, t_n
        _, dt, t_new, got = next(run.attempts())
        assert (dt, t_new) == (tau, t_n + tau)
        want = field(t_n + tau)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # at order 2 the same history gives the quadratic, with _extrapolate's bits
        run.order = 2
        quadratic = next(run.attempts())[3]
        assert quadratic.tobytes() == _extrapolate(run.states[:3], run.gaps[:2], tau).tobytes()
        assert np.max(np.abs(quadratic - want)) > 1e-3 * np.max(np.abs(want))

    def test_rule_picks_cubic_on_a_cubic_trajectory(self):
        run, seeds = _drive(_cubic_in_time((16, 16), 73), DTS)
        assert run.order == 3
        assert [k for k, _ in seeds] == [1, 2, 3, 4, 4, 4, 4, 4]

    def test_rule_picks_quadratic_on_noise_at_the_solver_tolerance(self):
        # the same trajectory, each state off by 1e-6, the acceptance run's
        # tol_res: the cubic weights amplify the noise more than the
        # quadratic's, so the cubic misses by more than half the quadratic
        orders = []
        for seed in range(5):
            run, _ = _drive(_cubic_in_time((16, 16), 73), DTS, noise=1e-6, seed=seed)
            orders.append(run.order)
        assert orders == [2] * 5

    def test_few_states_seed_as_before(self):
        # one, two and three states give no seed, the line and the parabola,
        # whatever the order says; the order takes effect with four
        field = _cubic_in_time((8, 8), 74)
        for order in (2, 3):
            run = _Trajectory(field(0.0), 0.0, 1.0, DTS[0], 0.0, None)
            run.order = order
            for n, (_, dt, t_new, seed_) in zip(range(1, 4), run.attempts()):
                assert len(run.states) == n
                want = _extrapolate(run.states, run.gaps, dt)
                if want is None:
                    assert seed_ is None
                else:
                    assert seed_.tobytes() == want.tobytes()
                run.accept(field(t_new), _record(t_new, dt), None)
                run.dt = DTS[n]
            assert run.order == order  # no fourth state yet: no choice made

    def test_rejected_attempts_stay_out_of_the_history(self, monkeypatch):
        # the shrink-and-redo set-up, with a growth bound dt can meet: the
        # first attempts are rejected by the rate bound, two later solves are
        # made to fail, and dt varies.  Every seed must be the extrapolation
        # of the states the sink saw accepted, with their dt, at the order
        # this test derives from those states alone: cubic when the cubic
        # extrapolation of the four states before an accepted one missed it
        # by less than the ratio times the quadratic's miss.  A fixed run
        # from the same state goes through the same loop.
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=68)
        probe, _, _ = step(phi, 2e-3, g, pp, CFG, ws)
        full_change = norm(probe - phi, g, "l2")
        acfg = AdaptiveConfig(
            dt_max=2e-3, rate_hi=full_change / 4, rate_lo=full_change / 8, dt_min=1e-10
        )

        def extrapolation(accepted, k, dt, order):
            """The order's extrapolation of the first k accepted states to dt past them."""
            history = accepted[:k][::-1][:order + 1]
            return _extrapolate([s for s, _ in history], [h for _, h in history[:-1]], dt)

        def derived_orders(accepted):
            """The order in force while k states are accepted, for each k."""
            orders = [2] * (len(accepted) + 1)
            for k in range(5, len(accepted) + 1):
                new, dt = accepted[k - 1]
                quadratic, cubic = (np.max(np.abs(new - extrapolation(accepted, k - 1, dt, o)))
                                    for o in (2, 3))
                orders[k] = 3 if cubic < _CUBIC_ERROR_RATIO * quadratic else 2
            return orders

        def checked_seeds(run, failing=()):
            """Run with a spy on the solver; check and return its seeds and orders."""
            accepted = [(phi, None)]
            seeds = []

            def spy(phi_n, dt, *args, phi_init=None, **kwargs):
                seeds.append((len(accepted), dt, phi_init))
                if len(seeds) in failing:
                    raise SolverDivergedError("forced", residual=np.nan, iterations=0)
                return psd_solve(phi_n, dt, *args, phi_init=phi_init, **kwargs)

            monkeypatch.setattr(fchsim.dynamics, "psd_solve", spy)
            records, _ = run(lambda rec, phi_now: accepted.append((phi_now.copy(), rec.dt)))
            orders = derived_orders(accepted)
            for k, dt, phi_init in seeds:
                want = extrapolation(accepted, k, dt, orders[k])
                if want is None:
                    assert phi_init is None
                else:
                    assert np.array_equal(phi_init, want)
            return seeds, records, [orders[k] for k, _, _ in seeds]

        failing = (20, 30)
        seeds, records, orders = checked_seeds(
            lambda sink: advance_adaptive(phi, 1e-3, g, pp, acfg, CFG, ws, sink=sink),
            failing,
        )
        assert seeds[0][0] == seeds[1][0] == 1  # rejected by the rate bound
        assert all(seeds[n - 1][0] >= 4 for n in failing)  # failed with four states
        assert len({rec.dt for rec in records}) > 2
        assert set(orders) == {2, 3}  # both orders seeded some attempt

        seeds, _, _ = checked_seeds(
            lambda sink: advance_fixed(phi, 1e-4, 6, g, pp, CFG, ws, sink=sink)
        )
        # unseeded, then linear, then quadratic, then the chosen order
        assert [k for k, _, _ in seeds] == [1, 2, 3, 4, 5, 6]
        assert seeds[0][2] is None and seeds[1][2] is not None


def _raise_on_solve(*args, **kwargs):
    raise AssertionError("a solve started despite a bad argument")


class TestDriverArguments:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_steps", -1),
            ("n_steps", 2.5),
            ("dt", 0.0),
            ("dt", -0.01),
            ("dt", np.nan),
            ("dt", np.inf),
            ("t0", np.nan),
            ("t0", -np.inf),
            ("t_end", -1.0),
            ("t_end", np.nan),
            ("t_end", np.inf),
        ],
    )
    def test_bad_argument_fails_before_any_solve(self, monkeypatch, name, value):
        monkeypatch.setattr(fchsim.dynamics, "psd_solve", _raise_on_solve)
        g, ws, phi = quick_setup()
        with pytest.raises(ValueError, match=f"^{name} must"):
            if name == "t_end":
                advance_adaptive(phi, value, g, PP, AdaptiveConfig(), CFG, ws)
            else:
                args = dict(dt=0.01, n_steps=2, t0=0.0)
                args[name] = value
                advance_fixed(phi, args["dt"], args["n_steps"], g, PP, CFG, ws, t0=args["t0"])

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_a_state_of_any_dtype_runs_in_float64(self, dtype):
        # a float32 spinodal state, and the zero state as ints under a
        # forcing, give the bits of the same values passed as float64
        if dtype is np.float32:
            g, pp, _, phi0 = _spinodal_32()
            cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6)
            dt, n_steps, source_fn = 2e-4, 3, None
        else:
            scn = preset("convergence", n=16)
            g, pp, cfg, phi0 = scn.grid, scn.phys, CFG, np.zeros(scn.grid.shape)
            dt, n_steps = 16.0 * g.spacing[0] ** 2, 2
            source_fn = lambda t: manufactured_forcing(g, t, pp, 4)
        state = phi0.astype(dtype)
        runs = [advance_fixed(phi, dt, n_steps, g, pp, cfg, SpectralWorkspace(g),
                              source_fn=source_fn)
                for phi in (state, state.astype(float))]
        (got, phi_got), (want, phi_want) = runs
        assert max(rec.psd_iters for rec in want) > 0
        assert phi_got.dtype == np.float64 and phi_got.tobytes() == phi_want.tobytes()
        assert [_record_bytes(r) for r in got] == [_record_bytes(r) for r in want]


class TestAdvanceAdaptive:
    def test_zero_horizon(self):
        g, ws, phi = quick_setup()
        records, out = advance_adaptive(phi, 0.0, g, PP, AdaptiveConfig(), CFG, ws)
        assert records == []
        assert out is phi

    def test_quiescent_constant_stays_at_dt_max(self):
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        acfg = AdaptiveConfig(dt_max=2e-3)
        records, out = advance_adaptive(np.full(g.shape, 0.2), 0.01, g, PP, acfg, CFG, ws)
        assert all(r.dt <= 2e-3 + 1e-18 for r in records)
        # both monitors are zero for a constant state, so dt sits at the cap
        assert records[0].dt == pytest.approx(2e-3)
        assert np.array_equal(out, np.full(g.shape, 0.2))

    def test_dt_never_exceeds_cap(self):
        g = Grid.square(32)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=5)
        acfg = AdaptiveConfig()
        records, _ = advance_adaptive(phi, 0.02, g, pp, acfg, CFG, ws)
        assert all(r.dt <= acfg.dt_max * (1 + 1e-12) for r in records)

    def test_exact_landing(self):
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=66)
        t_end = 0.0173
        records, _ = advance_adaptive(phi, t_end, g, pp, AdaptiveConfig(), CFG, ws)
        assert records[-1].t == t_end

    def test_growth_needs_both_rates_low(self):
        # with the growth threshold effectively unreachable, dt must not grow
        # even though the step monitors stay far below the shrink bound
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=67)
        acfg = AdaptiveConfig(dt_max=2e-3, dt_init=1e-3, rate_lo=1e-30)
        records, _ = advance_adaptive(phi, 5e-3, g, pp, acfg, CFG, ws)
        assert all(r.dt <= 1e-3 * (1 + 1e-12) for r in records)

    def test_shrink_and_redo_fires(self):
        # an engineered shrink bound makes the first full-size step oversized;
        # it must be redone at a reduced dt, never accepted
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=68)
        probe, _, _ = step(phi, 2e-3, g, pp, CFG, ws)
        full_change = norm(probe - phi, g, "l2")
        acfg = AdaptiveConfig(
            dt_max=2e-3, rate_hi=full_change / 4, rate_lo=full_change / 1e6, dt_min=1e-10
        )
        records, _ = advance_adaptive(phi, 1e-3, g, pp, acfg, CFG, ws)
        assert records[0].dt < acfg.dt_max

    def test_floor_step_is_accepted(self):
        # with an unreachable shrink bound the controller clamps at dt_min
        # and takes the step rather than deadlocking
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=69)
        acfg = AdaptiveConfig(dt_max=2e-3, dt_min=1e-3, rate_hi=1e-12, rate_lo=1e-13)
        records, _ = advance_adaptive(phi, 5e-3, g, pp, acfg, CFG, ws)
        assert records
        assert all(r.dt == pytest.approx(1e-3) for r in records)

    def test_solver_failure_is_retried_at_smaller_dt(self):
        # a one-evaluation line search fails on the pearling ring at dt_max;
        # the attempt is redone at a shrunk dt instead of ending the run
        scn = preset("pearling", n=16)
        ws = SpectralWorkspace(scn.grid)
        phi = scn.initial_condition()
        cfg = SolverConfig(ls_max=1)
        acfg = AdaptiveConfig(dt_max=2e-6)
        records, _ = advance_adaptive(phi, 2e-6, scn.grid, scn.phys, acfg, cfg, ws)
        assert records and all(r.dt < acfg.dt_max for r in records)
        assert records[-1].t == 2e-6
        floor = AdaptiveConfig(dt_max=2e-6, dt_min=2e-6)
        with pytest.raises(LineSearchError):
            advance_adaptive(phi, 2e-6, scn.grid, scn.phys, floor, cfg, ws)

    @pytest.mark.parametrize("excess", [0.0, 1e-13])
    def test_no_round_off_sliver_step(self, excess):
        # summing dt would reach t_end - 7.1e-15 after 217 steps and take a
        # 218th step of that size.  An excess far below the round-off of t in
        # a long run must join the last step too.
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        t_end = 217 * 0.007 + excess
        acfg = AdaptiveConfig(dt_max=0.007)
        records, _ = advance_adaptive(np.full(g.shape, 0.2), t_end, g, PP, acfg, CFG, ws)
        assert len(records) == 217
        assert records[-1].t == t_end

    def test_every_step_is_a_whole_dt(self):
        # t_end - 59 dt exceeds dt by 5.1e-19 of round-off; the last step is
        # still a whole dt, not the remainder, and lands on t_end
        g = Grid.square(8)
        ws = SpectralWorkspace(g)
        t_end = 60 * 2e-4
        acfg = AdaptiveConfig(dt_max=2e-4)
        records, _ = advance_adaptive(np.full(g.shape, 0.2), t_end, g, PP, acfg, CFG, ws)
        assert len(records) == 60
        assert all(r.dt == 2e-4 for r in records)
        assert records[-1].t == t_end

    def test_determinism(self):
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=9)
        acfg = AdaptiveConfig()
        recs1, out1 = advance_adaptive(phi, 0.01, g, pp, acfg, CFG, ws)
        recs2, out2 = advance_adaptive(phi, 0.01, g, pp, acfg, CFG, ws)
        assert np.array_equal(out1, out2)
        assert recs1 == recs2

    def test_mass_conserved_along_run(self):
        g = Grid.square(16)
        ws = SpectralWorkspace(g)
        pp = PhysParams(eps=0.1, eta=2.0, lam=well_depth(0.9), p=1)
        phi = init_spinodal(g, seed=10)
        records, _ = advance_adaptive(phi, 0.05, g, pp, AdaptiveConfig(), CFG, ws)
        m0 = phi.mean()
        assert all(abs(r.mass - m0) <= 1e-10 * max(1.0, abs(m0)) for r in records)


def _spinodal_32():
    """A 32^2 spinodal run whose solves end both at their first residual and later."""
    g = Grid.square(32)
    pp = PhysParams(eps=0.016, eta=8.0, lam=well_depth(0.9), p=1)
    cfg = SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-4, ls_tol=1e-4)
    return g, pp, cfg, init_spinodal(g, 1)


def _record_bytes(rec):
    return [np.float64(v).tobytes() if isinstance(v, float) else v
            for v in dataclasses.astuple(rec)]


class TestEachStateEvaluatedOnce:
    """The step reuses what its solve computed; its records must not move."""

    def _assert_records_from_scratch(self, records, states, g, pp):
        assert len(states) == len(records) + 1
        for rec, phi_old, phi_new in zip(records, states, states[1:]):
            want = step_record_from_scratch(
                phi_old, phi_new, g, pp, step=rec.step, t=rec.t, dt=rec.dt,
                psd_iters=rec.psd_iters, residual=rec.residual,
            )
            assert _record_bytes(rec) == _record_bytes(want)

    def test_adaptive_records_match_a_from_scratch_oracle(self):
        g, pp, cfg, phi0 = _spinodal_32()
        states = [phi0]
        records, _ = advance_adaptive(
            phi0, 0.004, g, pp, AdaptiveConfig(dt_max=2e-4), cfg, SpectralWorkspace(g),
            sink=lambda rec, phi: states.append(phi.copy()),
        )
        iters = {rec.psd_iters for rec in records}
        assert 0 in iters and max(iters) > 0
        self._assert_records_from_scratch(records, states, g, pp)

    def test_forced_fixed_records_match_a_from_scratch_oracle(self):
        scn = preset("convergence", n=16)
        g, pp = scn.grid, scn.phys
        phi0 = manufactured_state(g, 0.0)
        states = [phi0]
        records, _ = advance_fixed(
            phi0, 16.0 * g.spacing[0] ** 2, 4, g, pp, CFG, SpectralWorkspace(g),
            source_fn=lambda t: manufactured_forcing(g, t, pp, 4),
            sink=lambda rec, phi: states.append(phi.copy()),
        )
        self._assert_records_from_scratch(records, states, g, pp)

    def test_each_piece_is_computed_once_per_step(self, monkeypatch):
        # per step: var_convex on terms built from the accepted state itself
        # runs once (the solve's last residual), var_concave once (the new
        # state's, on the solve's terms, with the bits of one from scratch;
        # phi_n's came from the step before) and chemical_potential once; a
        # residual on handed beta terms calls no beta
        g, pp, cfg, phi0 = _spinodal_32()
        real_terms, real_convex = fchsim.energy.linear_terms, fchsim.energy.var_convex
        real_concave, real_beta = fchsim.energy.var_concave, fchsim.energy.beta
        real_mu, real_step = fchsim.dynamics.chemical_potential, fchsim.dynamics.step
        built = {}  # id -> (terms, bytes of the phi they were built from)
        calls = {"convex": [], "concave": [], "mu": 0, "beta": 0, "handed": 0}
        per_step = []

        def linear_terms(phi, grid, out=None):
            terms = real_terms(phi, grid, out)
            built[id(terms)] = (terms, phi.tobytes())
            return terms

        def var_convex(phi, grid, pp, terms=None):
            scratch = terms is None or built.get(id(terms), (None, b""))[1] == phi.tobytes()
            calls["convex"].append((phi.tobytes(), scratch))
            handed = terms is not None and terms.beta is not None
            before = calls["beta"]
            out = real_convex(phi, grid, pp, terms)
            if handed:
                calls["handed"] += 1
                assert calls["beta"] == before
                assert terms.beta.tobytes() == real_beta(phi).tobytes()
                assert terms.beta_prime.tobytes() == beta_prime(phi).tobytes()
            return out

        def var_concave(phi, grid, pp, terms=None):
            out = real_concave(phi, grid, pp, terms)
            same = out.tobytes() == real_concave(phi, grid, pp).tobytes()
            calls["concave"].append((phi.tobytes(), terms is not None, same))
            return out

        def count(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)
            return wrapper

        def step(phi, *args, **kwargs):
            calls.update(convex=[], concave=[], mu=0)
            phi_new, rec, concave_new = real_step(phi, *args, **kwargs)
            at_new = sum(scratch for b, scratch in calls["convex"] if b == phi_new.tobytes())
            on_terms = calls["concave"] == [(phi_new.tobytes(), True, True)]
            per_step.append((at_new, on_terms, calls["mu"]))
            return phi_new, rec, concave_new

        monkeypatch.setattr(fchsim.energy, "linear_terms", linear_terms)
        monkeypatch.setattr(fchsim.solver, "linear_terms", linear_terms)
        monkeypatch.setattr(fchsim.energy, "var_convex", var_convex)
        monkeypatch.setattr(fchsim.energy, "var_concave", var_concave)
        monkeypatch.setattr(fchsim.dynamics, "var_concave", var_concave)
        monkeypatch.setattr(fchsim.energy, "beta", count("beta", real_beta))
        monkeypatch.setattr(fchsim.dynamics, "chemical_potential", count("mu", real_mu))
        monkeypatch.setattr(fchsim.dynamics, "step", step)
        records, _ = advance_adaptive(
            phi0, 0.002, g, pp, AdaptiveConfig(dt_max=2e-4), cfg, SpectralWorkspace(g)
        )
        assert len(per_step) >= len(records) == 10
        assert per_step == [(1, True, 1)] * len(per_step)
        assert calls["handed"] > 0
