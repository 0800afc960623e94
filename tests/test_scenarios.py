import math
import tracemalloc

import numpy as np
import pytest

from fchsim import scenarios
from fchsim.energy import energy_total
from fchsim.grid import Grid, SpectralWorkspace, norm
from fchsim.potential import PhysParams, mixing_family
from fchsim.scenarios import (
    PEARLING_RADIUS,
    init_meandering,
    init_pearling,
    init_spinodal,
    manufactured_forcing,
    manufactured_state,
    preset,
    well_depth,
)
from fchsim.solver import SolverConfig, psd_solve

from oracles import manufactured_forcing_reference, whole_lattice_forcing

PP_CONV = PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2)


class TestWellDepth:
    def test_reference_value(self):
        assert well_depth(0.9) == pytest.approx(math.log(19.0) / 0.9, rel=1e-15)

    def test_places_minima(self):
        lam = well_depth(0.9)
        pp = PhysParams(eps=0.03, eta=4.0, lam=lam, p=1)
        for r in (0.9, -0.9):
            _, _, b = mixing_family(r, pp)
            f = b - pp.lam * r
            assert abs(float(f)) <= 1e-14

    def test_rejects_bad_location(self):
        with pytest.raises(ValueError):
            well_depth(1.0)


class TestPearling:
    def test_crest_value_on_ring(self):
        # place the ring center so one cell center sits exactly on the crest
        g = Grid.square(100)
        cx = (50 + 0.5) / 100 - PEARLING_RADIUS
        phi = init_pearling(g, ell=0.35, eps=0.03, center=(cx, 0.505))
        assert phi[50, 50] == pytest.approx(0.9, abs=1e-15)

    def test_center_value(self):
        # odd cell count puts a sample exactly at the domain center
        g = Grid.square(25)
        phi = init_pearling(g, ell=0.35, eps=0.03)
        center = phi[12, 12]
        assert center == pytest.approx(-0.9, abs=1e-15)

    def test_range_and_margin(self):
        g = Grid.square(128)
        for ell in (0.35, 0.39, 0.5):
            phi = init_pearling(g, ell=ell, eps=0.03)
            assert np.max(np.abs(phi)) <= 0.95
            assert np.min(phi) > -0.9 - 1e-12
            assert np.max(phi) <= 0.9 + 1e-12

    def test_rejects_bad_args(self):
        for ell in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ell must be positive"):
                init_pearling(Grid.square(16), ell=ell, eps=0.03)
        for eps in (np.nan, 0.0, np.inf, -0.03):
            with pytest.raises(ValueError, match="eps must be positive"):
                init_pearling(Grid.square(16), ell=0.35, eps=eps)
        for center in ((np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf)):
            with pytest.raises(ValueError, match="center must be finite"):
                init_pearling(Grid.square(16), ell=0.35, eps=0.03, center=center)
        with pytest.raises(ValueError):
            init_pearling(Grid((16, 16), (2.0, 2.0)), ell=0.3, eps=0.03)


class TestMeandering:
    def test_stripe_values(self):
        g = Grid((25, 75), (30.0, 15.0))
        phi = init_meandering(g)
        x, y_raw = g.mesh()
        y = y_raw - 7.5
        # far above the upper edge -> background
        assert np.all(phi[:, np.abs(y[0] - 7.0) < 1e-9] == -0.9)
        # mid-stripe -> interior
        j0 = np.argmin(np.abs(y[0] - 0.1))
        assert np.all(phi[:, j0] == 0.9)

    def test_sine_zero_threshold_point(self):
        # at x = 3 the upper edge sits exactly at y = 6.4; the strict
        # inequality keeps that point inside the stripe
        g = Grid((25, 75), (30.0, 15.0))
        phi = init_meandering(g)
        x, y_raw = g.mesh()
        y = y_raw - 7.5
        i = int(np.argmin(np.abs(x[:, 0] - 3.0)))
        j = int(np.argmin(np.abs(y[0] - 6.4)))
        assert x[i, 0] == pytest.approx(3.0, abs=1e-12)
        assert y[i, j] == pytest.approx(6.4, abs=1e-12)
        assert phi[i, j] == 0.9

    def test_periodic_continuity_requires_common_period(self):
        with pytest.raises(ValueError):
            init_meandering(Grid((16, 16), (12.0, 15.0)))

    def test_needs_a_2d_grid(self):
        with pytest.raises(ValueError, match="2D"):
            init_meandering(Grid((30,), (30.0,)))

    def test_values_are_two_level(self):
        g = Grid((60, 30), (30.0, 15.0))
        phi = init_meandering(g)
        assert set(np.unique(phi)) == {-0.9, 0.9}


class TestSpinodal:
    def test_range(self):
        g = Grid.square(64)
        phi = init_spinodal(g, seed=3)
        assert np.all(phi >= 0.49) and np.all(phi <= 0.51)

    def test_determinism(self):
        g = Grid.square(32)
        assert np.array_equal(init_spinodal(g, seed=5), init_spinodal(g, seed=5))
        assert not np.array_equal(init_spinodal(g, seed=5), init_spinodal(g, seed=6))

    def test_sample_mean(self):
        g = Grid.square(256)
        phi = init_spinodal(g, seed=7)
        bound = 3.0 * 0.01 / math.sqrt(3.0 * math.prod(g.shape))
        assert abs(phi.mean() - 0.5) <= bound


class TestManufacturedState:
    def test_zero_at_quarter_period(self):
        g = Grid.square(16)
        assert np.max(np.abs(manufactured_state(g, math.pi / 2))) <= 1e-16

    def test_point_value(self):
        # grid chosen so (0.25, 0.5) is a cell center
        g = Grid((2, 5), (1.0, 1.0))
        phi = manufactured_state(g, 0.0)
        assert phi[0, 2] == pytest.approx(-1.0 / math.pi, rel=1e-15)

    def test_amplitude_bound(self):
        g = Grid.square(64)
        for t in (0.0, 0.3, 1.7):
            assert np.max(np.abs(manufactured_state(g, t))) <= 1.0 / math.pi + 1e-15

    def test_needs_unit_square(self):
        with pytest.raises(ValueError):
            manufactured_state(Grid((8, 8), (2.0, 1.0)), 0.0)


class TestManufacturedForcing:
    def test_reduces_to_time_derivative_at_zero_state(self):
        # at t = pi/2 the state vanishes, mu(0) = 0, and S is just dPhi/dt
        g = Grid.square(32)
        S = manufactured_forcing(g, math.pi / 2, PP_CONV, 4)
        x, y = g.mesh()
        expected = -np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) / math.pi
        assert np.max(np.abs(S - expected)) <= 1e-10

    def test_mean_zero(self):
        g = Grid.square(32)
        for t in (0.0, 0.37, 1.1):
            assert abs(np.mean(manufactured_forcing(g, t, PP_CONV, 4))) <= 1e-10

    @pytest.mark.parametrize("n", [16, 32])
    def test_refinement_insensitivity(self, n):
        g = Grid.square(n)
        S4 = manufactured_forcing(g, 0.37, PP_CONV, 4)
        S8 = manufactured_forcing(g, 0.37, PP_CONV, 8)
        assert np.max(np.abs(S4 - S8)) <= 1e-9

    @pytest.mark.parametrize(
        "grid, refine, message",
        [
            (Grid.square(16), 2, "refine_factor"),
            (Grid.square(2), 4, "at least 4 cells"),
            (Grid.square(3), 4, "at least 4 cells"),
            (Grid.square(16), 4.5, "refine_factor must be an integer, got 4.5"),
        ],
        ids=["refine2", "n2", "n3", "refine4.5"],
    )
    def test_rejects_low_refinement(self, grid, refine, message):
        with pytest.raises(ValueError, match=message):
            manufactured_forcing(grid, 0.0, PP_CONV, refine)

    @pytest.mark.parametrize(
        "shape", [(16, 16), (32, 32), (15, 15), (16, 24)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    @pytest.mark.parametrize("refine", [4, 5, 8])
    def test_matches_full_lattice_reference(self, shape, refine):
        g = Grid(shape, (1.0, 1.0))
        for t in (0.0, 0.37, 1.1, math.pi / 2):
            S = manufactured_forcing(g, t, PP_CONV, refine)
            S_ref = manufactured_forcing_reference(g, t, PP_CONV, refine)
            assert np.max(np.abs(S - S_ref)) <= 1e-13 * np.max(np.abs(S_ref))

    @pytest.mark.parametrize(
        "shape, refine",
        [pytest.param(shape, refine, id=f"{label}-{shape[0]}x{shape[1]}")
         for refine, label in ((4, "R4"), (np.int64(5), "R5-int64"), (8, "R8"))
         for shape in ((5, 7), (15, 15), (16, 24), (33, 17), (16, 15), (16, 16), (6, 6))]
        + [pytest.param((128, 128), 4, id="R4-128x128")]
        + [pytest.param(shape, refine, id=f"R{refine}-{shape[0]}x{shape[1]}")
           for refine in (6, 7)
           for shape in ((5, 7), (15, 15), (16, 24), (33, 17), (16, 15), (16, 16), (6, 6))]
        + [pytest.param((4, shape_1), refine, id=f"R{refine}-4x{shape_1}")
           for refine in (4, 5, 8) for shape_1 in (4, 9)],
    )
    def test_matches_whole_lattice_bit_for_bit(self, shape, refine):
        # odd and unequal sizes; 16 x 16 at R = 5 puts the lattice half a
        # point off the reflection's axis (m = 80, no fixed point), 15 x 15
        # at R = 4 has odd cell counts on an even lattice, 6 x 6 at R = 4 a
        # first half of only 12 points and 128 x 128 at R = 4 is the bench's
        # size; R = 6 is even but not a power of two and R = 7 gives an even
        # lattice on an even axis from an odd factor; 4 cells is the fewest
        # the forcing takes (4 x 4 at R = 4: k = 2 and only 6 evaluated rows);
        # eps = 0.3 makes powers of eps inexact, so folded constants show
        g = Grid(shape, (1.0, 1.0))
        for pp in (PP_CONV, PhysParams(eps=0.3, eta=2.0, lam=2.5, p=1)):
            for t in (0.0, 0.37, 1.1, math.pi / 2):
                S = manufactured_forcing(g, t, pp, refine)
                assert S.tobytes() == whole_lattice_forcing(g, t, pp, refine).tobytes()

    # (shape, R, evaluated rows, evaluated columns): an even axis of m
    # points evaluates [k, m/2) with k = (m/2 - R + 1) // 2, an odd one all
    # of it
    UNMIRRORED = [
        ((16, 16), 4, 32 - 14, 32 - 14),  # m = 64: k = 14
        ((16, 16), 5, 40 - 18, 40 - 18),  # m = 80: k = 18, no fixed point
        ((5, 7), 5, 25, 35),  # odd x odd: the whole lattice
        ((16, 15), 5, 40 - 18, 75),  # 80 x 75: every column
        ((15, 15), 4, 30 - 13, 30 - 13),  # odd cell counts, m = 60: k = 13
        ((6, 6), 4, 12 - 4, 12 - 4),  # m = 24: k = 4
        ((128, 128), 4, 256 - 126, 256 - 126),  # m = 512: k = 126
        ((4, 4), 4, 8 - 2, 8 - 2),  # m = 16: k = 2
        ((16, 16), 7, 56 - 25, 56 - 25),  # m = 112: k = 25
    ]
    UNMIRRORED_IDS = ["16x16-R4", "16x16-R5", "5x7-R5", "16x15-R5", "15x15-R4", "6x6-R4", "128x128-R4",
                      "4x4-R4", "16x16-R7"]

    @pytest.mark.parametrize("shape, refine, rows, cols", UNMIRRORED, ids=UNMIRRORED_IDS)
    def test_mu_is_evaluated_on_the_unmirrored_part(self, shape, refine, rows, cols, monkeypatch):
        evaluated = []
        mu_rows = scenarios._mu_rows

        def spy(*args):
            evaluated.append(args[-1].shape)
            mu_rows(*args)

        monkeypatch.setattr(scenarios, "_mu_rows", spy)
        manufactured_forcing(Grid(shape, (1.0, 1.0)), 0.37, PP_CONV, refine)
        assert sum(r for r, _ in evaluated) == rows
        assert {c for _, c in evaluated} == {cols}

    @pytest.mark.parametrize("shape, refine, rows, cols", UNMIRRORED, ids=UNMIRRORED_IDS)
    def test_row_transform_sees_only_unmirrored_rows(self, shape, refine, rows, cols, monkeypatch):
        transformed = []
        rfft = np.fft.rfft

        def spy(a, *args, **kwargs):
            transformed.append(a.shape)
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        manufactured_forcing(Grid(shape, (1.0, 1.0)), 0.37, PP_CONV, refine)
        assert sum(r for r, _ in transformed) == rows
        assert {c for _, c in transformed} == {refine * shape[1]}

    @pytest.mark.parametrize(
        "n, refine",
        [(16, 4), (15, 4), (16, 5), (15, 5), (7, 5), (6, 4), (128, 4), (4, 4), (16, 6), (16, 7)],
    )
    def test_axis_samples_are_antisymmetric(self, n, refine):
        m = n * refine
        samples = scenarios._axis_samples(n, 1.0, refine)
        assert samples.shape == (2, m)
        x = np.arange(m) / m + 0.5 / n
        exact = np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)])
        if m % 2:
            assert samples.tobytes() == exact.tobytes()
            return
        assert np.max(np.abs(samples - exact)) <= 1e-14
        assert samples[:, m // 2:].tobytes() == np.negative(samples[:, : m // 2]).tobytes()
        # x -> 1/2 - x maps point i to r - i: below their midpoint a
        # sample is a copy of its image's, sin equal and cos negated
        r = m // 2 - refine
        low = np.arange((r + 1) // 2)
        assert low.size and np.all(low < r - low)
        assert samples[0, low].tobytes() == samples[0, r - low].tobytes()
        assert samples[1, low].tobytes() == np.negative(samples[1, r - low]).tobytes()
        if r % 2 == 0:
            # the fixed point's cos is a rounded zero, evaluated and kept
            assert samples[1, r // 2] == exact[1, r // 2] != 0.0

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        g = Grid.square(16)
        with pytest.raises(ValueError, match="t must be finite"):
            manufactured_forcing(g, t, PP_CONV, 4)
        with pytest.raises(ValueError, match="t must be finite"):
            manufactured_state(g, t)

    def test_peak_memory_is_a_few_coarse_fields(self):
        # the 512^2 lattice at n = 128 is never held whole: one lattice
        # field alone would be 16 coarse fields
        g = Grid.square(128)
        manufactured_forcing(g, 0.37, PP_CONV, 4)
        tracemalloc.start()
        try:
            manufactured_forcing(g, 0.37, PP_CONV, 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * math.prod(g.shape) * 8

    def test_one_step_error_ratio(self):
        # one forced step from the sampled exact state: halving h with
        # dt = 16 h^2 cuts the error by about 4
        cfg = SolverConfig()
        errs = {}
        for n in (16, 32):
            g = Grid.square(n)
            ws = SpectralWorkspace(g)
            h = g.spacing[0]
            dt = 16.0 * h * h
            phi = manufactured_state(g, 0.0)
            S = manufactured_forcing(g, 0.0, PP_CONV, 4)
            phi1, _ = psd_solve(phi, dt, g, PP_CONV, cfg, ws, source=S)
            errs[n] = norm(phi1 - manufactured_state(g, dt), g, "l2")
        ratio = errs[16] / errs[32]
        assert 3.3 <= ratio <= 4.7


class TestPresets:
    def test_all_presets_admissible_with_finite_energy(self):
        for name, n in (("pearling", 64), ("spinodal", 64), ("convergence", 16), ("meandering", 60)):
            scn = preset(name, n=n)
            phi = scn.initial_condition()
            assert np.max(np.abs(phi)) <= 0.95
            eb = energy_total(phi, scn.grid, scn.phys)
            assert np.isfinite(eb.total)

    def test_paper_parameter_sets(self):
        lam_star = well_depth(0.9)
        pearl = preset("pearling")
        assert (pearl.phys.eps, pearl.phys.eta, pearl.phys.p) == (0.03, 4.0, 1)
        assert pearl.phys.lam == pytest.approx(lam_star)
        assert pearl.grid.shape == (256, 256)
        meander = preset("meandering", n=512)
        assert (meander.phys.eps, meander.phys.eta, meander.phys.p) == (0.01, 10.0, 1)
        assert meander.grid.lengths == (30.0, 15.0)
        spin = preset("spinodal")
        assert (spin.phys.eps, spin.phys.eta, spin.phys.p) == (0.008, 8.0, 1)
        conv = preset("convergence")
        assert (conv.phys.eps, conv.phys.eta, conv.phys.lam, conv.phys.p) == (0.5, 1.0, 3.0, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("vortex")
