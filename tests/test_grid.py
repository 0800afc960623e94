import math
import tracemalloc

import numpy as np
import pytest

from fchsim.grid import (
    Grid,
    SpectralWorkspace,
    cell_avg,
    cell_diff,
    face_avg,
    face_diff,
    grad_norm_sq,
    inner,
    laplacian,
    norm,
)

from oracles import (
    dense_laplacian,
    roll_cell_avg,
    roll_cell_diff,
    roll_face_avg,
    roll_face_diff,
    roll_laplacian,
)

G4 = Grid((4,), (1.0,))
F4 = np.array([1.0, 0.0, -1.0, 0.0])


class TestGridConstruction:
    def test_spacing_and_volume(self):
        g = Grid((8, 4), (2.0, 1.0))
        assert g.spacing == (0.25, 0.25)
        assert g.cell_volume == pytest.approx(0.0625)
        assert g.cell_volume * math.prod(g.shape) == pytest.approx(math.prod(g.lengths))

    def test_cached_values_leave_repr_and_equality(self):
        # output.params_digest hashes repr(grid) into every snapshot header
        g = Grid((8, 4), (2.0, 1.0))
        assert g.spacing is g.spacing and g.cell_volume == 0.0625
        assert repr(g) == "Grid(shape=(8, 4), lengths=(2.0, 1.0))"
        assert g == Grid((8, 4), (2.0, 1.0)) and hash(g) == hash(Grid((8, 4), (2.0, 1.0)))

    def test_cell_centers(self):
        g = Grid((4,), (1.0,))
        assert np.allclose(g.axes()[0], [0.125, 0.375, 0.625, 0.875])

    @pytest.mark.parametrize(
        "shape,lengths",
        [
            ((1,), (1.0,)),
            ((4, 4, 4), (1.0, 1.0, 1.0)),
            ((4,), (-1.0,)),
            ((4, 2), (1.0,)),
            ((64.7, 64), (1.0, 1.0)),
            ((4.0,), (1.0,)),
            ((4,), (0.0,)),
            ((4,), (math.nan,)),
            ((4, 4), (1.0, math.inf)),
        ],
    )
    def test_invalid_grids(self, shape, lengths):
        with pytest.raises(ValueError):
            Grid(shape, lengths)

    def test_numpy_integer_counts(self):
        g = Grid((np.int64(8), np.int32(4)), (np.float64(2.0), 1))
        assert g == Grid((8, 4), (2.0, 1.0))
        assert all(type(n) is int for n in g.shape)


class TestStencils:
    def test_face_diff_constant(self):
        g = Grid.square(6)
        assert np.all(face_diff(np.full(g.shape, 3.7), g, 0) == 0.0)
        assert np.all(face_diff(np.full(g.shape, 3.7), g, 1) == 0.0)

    def test_face_diff_hand_values(self):
        assert np.allclose(face_diff(F4, G4, 0), [-4.0, -4.0, 4.0, 4.0])

    def test_face_diff_ramp_wraps(self):
        g = Grid((8,), (1.0,))
        ramp = np.arange(8) * g.spacing[0]
        d = face_diff(ramp, g, 0)
        assert np.allclose(d[:-1], 1.0)
        assert d[-1] == pytest.approx(1.0 - 8.0)  # wrap face sees the full drop

    def test_face_avg_hand_values(self):
        assert np.allclose(face_avg(F4, G4, 0), [0.5, -0.5, -0.5, 0.5])

    def test_cell_ops_on_constant(self):
        g = Grid.square(5)
        c = np.full(g.shape, -2.0)
        assert np.all(cell_avg(c, g, 0) == -2.0)
        assert np.all(cell_diff(c, g, 1) == 0.0)

    def test_div_of_grad_is_laplacian(self):
        rng = np.random.default_rng(11)
        for g in (Grid((7,), (1.0,)), Grid.square(6)):
            f = rng.standard_normal(g.shape)
            composed = sum(cell_diff(face_diff(f, g, a), g, a) for a in range(g.ndim))
            assert np.allclose(composed, laplacian(f, g), rtol=0, atol=1e-12)


ROLL_GRIDS = [
    Grid((2,), (1.0,)),
    Grid((7,), (1.0,)),
    Grid((8,), (3.0,)),
    Grid.square(2),
    Grid((2, 5), (1.0, 2.5)),
    Grid((7, 3), (0.7, 1.3)),
    Grid((16, 24), (1.0, 3.0)),
]
ROLL_IDS = ["x".join(map(str, g.shape)) for g in ROLL_GRIDS]
FACE_CELL = [
    (face_diff, roll_face_diff),
    (face_avg, roll_face_avg),
    (cell_diff, roll_cell_diff),
    (cell_avg, roll_cell_avg),
]


class TestStencilsMatchRoll:
    """The slice-based stencils against their np.roll forms, byte for byte."""

    @staticmethod
    def field(g):
        f = np.random.default_rng(sum(g.shape)).standard_normal(g.shape)
        f.flat[::3] = 0.0  # equal neighbours: differences of exactly zero
        f.flat[1::5] = -0.0
        return f

    @pytest.mark.parametrize("g", ROLL_GRIDS, ids=ROLL_IDS)
    @pytest.mark.parametrize("stencil,reference", FACE_CELL, ids=lambda x: x.__name__)
    def test_face_cell_ops(self, g, stencil, reference):
        f = self.field(g)
        for a in range(g.ndim):
            assert stencil(f, g, a).tobytes() == reference(f, g, a).tobytes()

    @pytest.mark.parametrize("g", ROLL_GRIDS, ids=ROLL_IDS)
    def test_laplacian(self, g):
        f = self.field(g)
        assert laplacian(f, g).tobytes() == roll_laplacian(f, g).tobytes()

    @pytest.mark.parametrize("g", ROLL_GRIDS, ids=ROLL_IDS)
    def test_face_avg_into_out(self, g):
        f = self.field(g)
        out = np.full(g.shape, np.nan)
        for a in range(g.ndim):
            assert face_avg(f, g, a, out=out) is out
            assert out.tobytes() == roll_face_avg(f, g, a).tobytes()

    def test_face_avg_rejects_bad_out(self):
        g = Grid((6, 4), (1.0, 1.0))
        f = self.field(g)
        for out in (np.empty((4, 6)), np.empty((4, 6)).T, np.empty(24)):
            with pytest.raises(ValueError):
                face_avg(f, g, 0, out=out)

    @pytest.mark.parametrize("g", ROLL_GRIDS, ids=ROLL_IDS)
    @pytest.mark.parametrize(
        "stencil,reference",
        [(face_diff, roll_face_diff), (cell_avg, roll_cell_avg)],
        ids=lambda x: x.__name__,
    )
    def test_into_out(self, g, stencil, reference):
        f = self.field(g)
        out = np.full(g.shape, np.nan)
        for a in range(g.ndim):
            assert stencil(f, g, a, out=out) is out
            assert out.tobytes() == reference(f, g, a).tobytes()

    @pytest.mark.parametrize("g", ROLL_GRIDS, ids=ROLL_IDS)
    def test_laplacian_into_out_with_scratch(self, g):
        f = self.field(g)
        out, *scratch = (np.full(g.shape, np.nan) for _ in range(3))
        for kwargs in ({"out": out}, {"out": out, "scratch": scratch}, {"scratch": scratch}):
            out.fill(np.nan)
            got = laplacian(f, g, **kwargs)
            assert (got is out) == ("out" in kwargs)
            assert got.tobytes() == roll_laplacian(f, g).tobytes()

    @pytest.mark.parametrize("stencil", [face_diff, cell_avg])
    def test_rejects_bad_out(self, stencil):
        g = Grid((6, 4), (1.0, 1.0))
        f = self.field(g)
        for out in (np.empty((4, 6)), np.empty((4, 6)).T, np.empty(24), np.empty((6, 4), np.float32)):
            with pytest.raises(ValueError):
                stencil(f, g, 0, out=out)
            with pytest.raises(ValueError):
                laplacian(f, g, out=out)
            with pytest.raises(ValueError):
                laplacian(f, g, scratch=(np.empty((6, 4)), out))


class TestLaplacian:
    def test_constant(self):
        g = Grid.square(8)
        assert np.all(laplacian(np.full(g.shape, 4.2), g) == 0.0)

    def test_hand_values_1d(self):
        assert np.allclose(laplacian(F4, G4), [-32.0, 0.0, 32.0, 0.0])

    def test_checkerboard_2d(self):
        g = Grid.square(2)
        i, j = np.indices((2, 2))
        f = (-1.0) ** (i + j)
        assert np.allclose(laplacian(f, g), -32.0 * f)

    @pytest.mark.parametrize("g", [Grid((8,), (1.0,)), Grid.square(8), Grid((6, 8), (2.0, 1.0))])
    def test_against_dense_oracle(self, g):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(g.shape)
        expected = (dense_laplacian(g) @ f.ravel()).reshape(g.shape)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(laplacian(f, g) - expected)) <= 1e-13 * scale

    def test_mean_free(self):
        rng = np.random.default_rng(6)
        g = Grid.square(16)
        f = rng.standard_normal(g.shape)
        assert abs(np.mean(laplacian(f, g))) <= 1e-12 * np.max(np.abs(f)) / min(g.spacing) ** 2


class TestInnerProductsAndNorms:
    def test_inner_unit(self):
        g = Grid.square(4)
        one = np.full(g.shape, 1.0)
        assert inner(one, one, g) == pytest.approx(1.0)

    def test_inner_hand_value(self):
        assert inner(F4, F4, G4) == pytest.approx(0.5)

    def test_inner_forms_no_product_field(self):
        g = Grid.square(64)
        f, h = np.full(g.shape, 1.0), np.full(g.shape, 2.0)
        inner(f, h, g)
        tracemalloc.start()
        try:
            assert inner(f, h, g) == 2.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.prod(g.shape) * 8

    def test_inner_grid_mismatch(self):
        g = Grid((4,), (1.0,))
        with pytest.raises(ValueError):
            inner(np.zeros(5), np.zeros(5), g)

    def test_summation_by_parts_gradient(self):
        # <psi, lap phi> = -[grad psi, grad phi]
        rng = np.random.default_rng(7)
        for g in (Grid((32,), (1.0,)), Grid.square(32), Grid((16, 24), (1.0, 3.0))):
            psi = rng.standard_normal(g.shape)
            phi = rng.standard_normal(g.shape)
            lhs = inner(psi, laplacian(phi, g), g)
            rhs = -g.cell_volume * sum(
                np.sum(face_diff(psi, g, a) * face_diff(phi, g, a)) for a in range(g.ndim)
            )
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_summation_by_parts_divergence(self):
        # <psi, div F> = -[grad psi, F] for arbitrary face fields
        rng = np.random.default_rng(8)
        g = Grid.square(24)
        psi = rng.standard_normal(g.shape)
        F = [rng.standard_normal(g.shape) for _ in range(2)]
        lhs = inner(psi, sum(cell_diff(F[a], g, a) for a in range(2)), g)
        rhs = -g.cell_volume * sum(np.sum(face_diff(psi, g, a) * F[a]) for a in range(2))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_norms_hand_values(self):
        g = Grid.square(4)
        assert norm(np.full(g.shape, 1.0), g, "l2") == pytest.approx(1.0)
        assert norm(F4, G4, "l2") == pytest.approx(np.sqrt(0.5))

    def test_h2_from_parts(self):
        rng = np.random.default_rng(10)
        g = Grid.square(10)
        f = rng.standard_normal(g.shape)
        lap = laplacian(f, g)
        expected = np.sqrt(inner(f, f, g) + grad_norm_sq(f, g) + inner(lap, lap, g))
        assert norm(f, g, "h2") == pytest.approx(expected, rel=1e-12)

    def test_unknown_norm_kind(self):
        with pytest.raises(ValueError):
            norm(F4, G4, "bogus")


class TestSpectral:
    def test_sigma_basic_structure(self):
        ws = SpectralWorkspace(Grid((4,), (1.0,)))
        assert np.allclose(ws.sigma, [0.0, 32.0, 64.0])

    def test_sigma_sign_and_negation_symmetry(self):
        ws = SpectralWorkspace(Grid.square(12))
        sigma = ws.sigma
        assert sigma[0, 0] == 0.0
        flat = sigma.ravel()
        assert np.all(flat[1:] >= 0.0) and np.count_nonzero(flat) == flat.size - 1
        # the full-range axis must be symmetric under k -> -k
        for k in range(1, 12):
            assert np.array_equal(sigma[k, :], sigma[12 - k, :])

    @pytest.mark.parametrize("g", [Grid((12,), (1.0,)), Grid.square(8), Grid((8, 12), (2.0, 1.5))])
    def test_sigma_matches_applied_laplacian(self, g):
        # every sigma entry must equal the eigenvalue recovered by applying
        # the stencil Laplacian to the corresponding discrete Fourier mode
        ws = SpectralWorkspace(g)
        mesh = g.mesh()
        rng = np.random.default_rng(3)
        for _ in range(6):
            ks = [int(rng.integers(0, n // 2 + 1)) for n in g.shape]
            arg = np.zeros(g.shape)
            for a in range(g.ndim):
                arg = arg + 2.0 * np.pi * ks[a] * mesh[a] / g.lengths[a]
            f = np.cos(arg)
            sigma_expected = sum(
                (4.0 / g.spacing[a] ** 2) * np.sin(np.pi * ks[a] / g.shape[a]) ** 2
                for a in range(g.ndim)
            )
            applied = -laplacian(f, g)
            assert np.max(np.abs(applied - sigma_expected * f)) <= 1e-12 * max(
                sigma_expected, 1.0
            )
            assert ws.sigma[tuple(ks)] == pytest.approx(sigma_expected, rel=1e-12)
