import math
import tracemalloc

import numpy as np
import pytest

from bgkmix import grid as gridmod
from bgkmix.chapman import heat_flux_check
from bgkmix.errors import (DegenerateDensityError, NoConvergenceError,
                           NotSpdError)
from bgkmix.grid import (VelocityGrid, _family, _gaussian_derivs,
                         _gaussian_fill, _gaussian_sample, _maxwellian_derivs,
                         _maxwellian_sample, _monomials, _newton_system,
                         gaussian_on_grid, h_functional, match_gaussian,
                         match_moments, maxwellian_on_grid, moments,
                         spd_factor)


def uneven_grid(dim):
    """A different point count and range per axis, so a transposed
    outer product cannot hide behind the symmetry of a cubic lattice."""
    return VelocityGrid(dim=dim, vmin=(-7.0, -6.0, -8.0)[:dim],
                        vmax=(6.5, 7.5, 8.0)[:dim], points=(12, 16, 20)[:dim])


# A temperature tensor with every off-diagonal entry nonzero; its leading
# 1x1 and 2x2 blocks serve the lower dimensions.
SHEARED = np.array([[1.2, 0.3, -0.1],
                    [0.3, 0.9, 0.2],
                    [-0.1, 0.2, 0.7]])


class TestGridConstruction:
    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError, match="at least 8"):
            VelocityGrid(dim=1, points=4)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            VelocityGrid(dim=1, vmin=2.0, vmax=-2.0)

    def test_node_count(self, small_grid):
        assert small_grid.nnodes == 8 ** 3

    def test_symmetric_nodes_pair_up(self, small_grid):
        total = np.sum(small_grid.nodes, axis=0)
        assert np.max(np.abs(total)) < 1e-12


class TestMoments:
    def test_maxwellian_recovery(self, ref_grid):
        f = maxwellian_on_grid(1.0, (0.0, 0.0, 0.0), 1.0, 1.0, ref_grid)
        mom = moments(f, 1.0, ref_grid)
        assert abs(mom.n - 1.0) < 1e-8
        assert np.linalg.norm(mom.u) < 1e-10
        assert abs(mom.T - 1.0) < 1e-6

    def test_zero_distribution(self, small_grid):
        with pytest.raises(DegenerateDensityError):
            moments(np.zeros(small_grid.nnodes), 1.0, small_grid)

    def test_shifted_maxwellian(self, ref_grid):
        f = maxwellian_on_grid(1.0, (1.0, 0.0, 0.0), 1.0, 1.0, ref_grid)
        mom = moments(f, 1.0, ref_grid)
        assert np.linalg.norm(mom.u - [1.0, 0.0, 0.0]) < 1e-8

    def test_trace_identity_is_exact(self, mid_grid):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.uniform(0.0, 1.0, mid_grid.nnodes)
            mom = moments(f, 1.7, mid_grid)
            assert abs(np.trace(mom.P) - 3 * mom.n * mom.T) <= 1e-10

    def test_pressure_tensor_symmetric(self, mid_grid):
        f = np.random.default_rng(4).uniform(0.0, 1.0, mid_grid.nnodes)
        mom = moments(f, 1.0, mid_grid)
        assert np.array_equal(mom.P, mom.P.T)

    def test_lower_dimension_uses_factor_d(self):
        g1 = VelocityGrid(dim=1, vmin=-8.0, vmax=8.0, points=64)
        f = maxwellian_on_grid(1.0, (0.0,), 0.9, 1.0, g1)
        mom = moments(f, 1.0, g1)
        assert abs(mom.T - 0.9) < 1e-8
        g2 = VelocityGrid(dim=2, vmin=-8.0, vmax=8.0, points=32)
        f = maxwellian_on_grid(0.8, (0.2, -0.1), 1.1, 1.3, g2)
        mom = moments(f, 1.3, g2)
        assert abs(mom.n - 0.8) < 1e-8
        assert np.linalg.norm(mom.u - [0.2, -0.1]) < 1e-8
        assert abs(mom.T - 1.1) < 1e-6

    @staticmethod
    def longdouble_moments(f, mass, grid):
        """Node-level reference in extended precision: (n, u, T, P, Q,
        Qtilde) by their defining sums over all nodes."""
        ld = np.longdouble
        f, v, w = f.astype(ld), grid.nodes.astype(ld), ld(grid.weight)
        n = w * np.sum(f)
        u = w * (f @ v) / n
        c = v - u
        P = mass * w * np.einsum("n,ni,nj->ij", f, c, c)
        Q = w / 2 * ((np.sum(v * v, axis=1) * f) @ v)
        Qt = mass * w * ((np.sum(c * c, axis=1) * f) @ c)
        return n, u, np.trace(P) / (grid.dim * n), P, Q, Qt

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_match_extended_precision_reference(self, dim):
        grid = uneven_grid(dim)
        mass = 1.7
        rng = np.random.default_rng(20 + dim)
        f = rng.uniform(0.0, 1.0, grid.nnodes) * maxwellian_on_grid(
            1.3, np.array([0.4, -0.3, 0.2])[:dim], 0.9, mass, grid)
        mom = moments(f, mass, grid)
        n, u, T, P, Q, Qt = self.longdouble_moments(f, mass, grid)
        vth = math.sqrt(float(T) / mass)
        for got, ref, scale in ((mom.n, n, n), (mom.u, u, vth),
                                (mom.T, T, T), (mom.P, P, n * T),
                                (heat_flux_check(f, mass, grid).quadrature,
                                 Q, n * T * vth),
                                (mom.Qtilde, Qt, n * T * vth)):
            err = np.max(np.abs(np.asarray(got, dtype=np.longdouble) - ref))
            assert err <= 1e-13 * float(scale)
        assert np.array_equal(mom.P, mom.P.T)

    FIELDS = ("n", "u", "T", "P", "Qtilde")

    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_with_their_own_mass_equal_solo_calls(self, dim, cells):
        """Both species' cells in one call, each row with its species'
        mass, give every row's solo moments bitwise."""
        grid = uneven_grid(dim)
        rng = np.random.default_rng(40 + dim)
        f = rng.uniform(0.5, 1.0, (2 * cells, grid.nnodes)) * maxwellian_on_grid(
            1.0, np.array([0.3, -0.2, 0.1])[:dim], 0.8, 1.0, grid)
        mass = np.repeat([1.0, 2.3], cells)
        mom = moments(f, mass, grid)
        assert mom.n.shape == (2 * cells,)
        assert mom.P.shape == (2 * cells, dim, dim)
        for k in range(2 * cells):
            solo = moments(f[k], mass[k], grid)
            assert isinstance(solo.n, float) and isinstance(solo.T, float)
            for name in self.FIELDS:
                assert np.array_equal(getattr(mom, name)[k],
                                      getattr(solo, name)), (k, name)

    def test_scalar_mass_applies_to_every_row(self, mid_grid):
        rng = np.random.default_rng(7)
        f = rng.uniform(0.5, 1.0, (3, mid_grid.nnodes)) * maxwellian_on_grid(
            1.0, (0.2, 0.0, -0.1), 1.1, 1.0, mid_grid)
        one, each = moments(f, 1.7, mid_grid), moments(f, [1.7] * 3, mid_grid)
        for name in self.FIELDS:
            assert np.array_equal(getattr(one, name), getattr(each, name))
        flat = moments(f[0], 1.7, mid_grid)
        assert isinstance(flat.n, float) and flat.u.shape == (3,)
        assert np.array_equal(moments(f[0], [1.7], mid_grid).P, flat.P)

    def test_rejects_mass_of_wrong_length(self, mid_grid):
        f = np.ones((3, mid_grid.nnodes))
        for mass in ([1.0, 2.0], [[1.0, 1.0, 1.0]]):
            with pytest.raises(ValueError, match="one value per row"):
                moments(f, mass, mid_grid)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_non_finite_row_gives_nan_moments(self, dim, value):
        """With no warning (the suite turns warnings into errors), and
        the finite row beside it keeps its solo moments."""
        grid = uneven_grid(dim)
        f = maxwellian_on_grid(1.0, np.zeros(dim), 1.0, 1.0, grid)
        bad = f.copy()
        bad[grid.nnodes // 3] = value
        mom = moments(np.array([f, bad]), 1.0, grid)
        for name in ("u", "T", "P", "Qtilde"):
            assert np.all(np.isnan(getattr(mom, name)[1])), name
            assert np.array_equal(getattr(mom, name)[0],
                                  getattr(moments(f, 1.0, grid), name))


class TestMaxwellianOnGrid:
    def test_peak_value(self):
        grid = VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=32)
        n, T, m = 1.3, 0.9, 1.1
        u = grid.nodes[grid.nnodes // 2 + 5]  # a node, so the peak is sampled
        f = maxwellian_on_grid(n, u, T, m, grid)
        assert f.max() == pytest.approx(n / (2 * math.pi * T / m) ** 1.5,
                                        rel=1e-14)

    def test_odd_moments_vanish(self, ref_grid):
        f = maxwellian_on_grid(1.0, (0.0, 0.0, 0.0), 1.0, 1.0, ref_grid)
        odd = ref_grid.weight * (f @ ref_grid.nodes)
        assert np.max(np.abs(odd)) < 1e-14

    def test_quadrature_mass(self, ref_grid):
        f = maxwellian_on_grid(0.7, (0.2, -0.1, 0.0), 1.1, 1.0, ref_grid)
        assert abs(ref_grid.density(f) - 0.7) < 1e-8

    def test_rejects_nonpositive_temperature(self, small_grid):
        with pytest.raises(ValueError):
            maxwellian_on_grid(1.0, (0, 0, 0), 0.0, 1.0, small_grid)

    def test_rejects_velocity_of_wrong_length(self, small_grid):
        # every sampler and matcher, with a short and a long u
        calls = (lambda u: maxwellian_on_grid(1.0, u, 1.0, 1.0, small_grid),
                 lambda u: match_moments(1.0, u, 1.0, 1.0, small_grid),
                 lambda u: gaussian_on_grid(1.0, u, np.eye(3), 1.0,
                                            small_grid),
                 lambda u: match_gaussian(1.0, u, np.eye(3), 1.0,
                                          small_grid))
        for call in calls:
            for u in ((0.1, 0.0), (0.3,), (0.1, 0.0, 0.0, 0.2)):
                with pytest.raises(ValueError, match="length 3"):
                    call(u)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_outer_product_matches_direct_formula(self, dim):
        grid = uneven_grid(dim)
        n, u, T, m = 0.9, np.array([0.3, -0.2, 0.15])[:dim], 0.8, 1.3
        theta = T / m
        c = grid.nodes - u
        direct = (n / (2 * math.pi * theta) ** (dim / 2)
                  * np.exp(-np.sum(c * c, axis=1) / (2 * theta)))
        f = maxwellian_on_grid(n, u, T, m, grid)
        assert np.max(np.abs(f - direct)) <= 1e-14 * np.max(direct)


class TestSeparableRawMoments:
    """Raw moments q and Jacobian dq/dp of both target families from the
    shared Newton system, against node-level sums on uneven lattices."""

    MASS = 1.3
    CASES = pytest.mark.parametrize(
        "family,dim",
        [("maxwellian", 1), ("maxwellian", 2), ("maxwellian", 3),
         ("gaussian", 1), ("gaussian", 2), ("gaussian", 3)],
        ids=["1", "2", "3", "gaussian1", "gaussian2", "gaussian3"])

    def family(self, name, dim):
        """Parameters (n, u, s), sampler, raw-moment selection
        diag(1, I_d, J^T) and the node-level raw basis of one family on
        uneven_grid(dim).  The sampler maps one parameter row to
        (M, B, f), each for a stack of one."""
        grid = uneven_grid(dim)
        u = [0.3, -0.2, 0.15][:dim]
        ones = np.ones((grid.nnodes, 1))
        select = _family(dim, name == "maxwellian")[1]
        if name == "maxwellian":
            basis = np.column_stack([ones, grid.nodes,
                                     np.sum(grid.nodes ** 2, axis=1)])

            def sample(p):
                factors = np.empty((1, len(grid.axis_nodes)))
                return (_maxwellian_sample(p, grid, factors, [0]),
                        _maxwellian_derivs(p, dim),
                        maxwellian_on_grid(p[:, 0], p[:, 1:1 + dim],
                                           p[:, 1 + dim], 1.0, grid))

            return (grid, np.concatenate([[0.9], u, [0.8 / self.MASS]]),
                    sample, select, basis)
        ti, tj = _monomials(dim)[:2]
        cov = SHEARED[:dim, :dim] / self.MASS
        basis = np.column_stack([ones, grid.nodes,
                                 grid.nodes[:, ti] * grid.nodes[:, tj]])

        def sample(p):
            f = np.empty((1, grid.nnodes))
            M = _gaussian_sample(p, grid, f, [0])
            return M, _gaussian_derivs(p, dim), f

        return (grid, np.concatenate([[0.9], u, cov[ti, tj]]), sample,
                select, basis)

    def system(self, p, sample, select, grid):
        M, B, f = sample(p[None])
        SAG = _newton_system(p[None, 1:1 + grid.dim], select, M)
        return SAG[0, :, 0], (SAG @ B.transpose(0, 2, 1))[0], f[0]

    @CASES
    def test_match_lattice_sums(self, family, dim):
        grid, p, sample, select, basis = self.family(family, dim)
        q, _, f = self.system(p, sample, select, grid)
        lattice = grid.weight * (f @ basis)
        assert np.max(np.abs(q - lattice)) <= 1e-14 * np.max(np.abs(lattice))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gaussian_contraction_matches_einsum(self, dim):
        """The per-axis matrix products give w sum f prod_i c_i^a_i as
        one einsum of the lattice sample with the power tables does,
        each entry to 1e-14 of its own round-off scale (the same sum
        over |f| and |c_i|^a_i)."""
        grid, p = self.family("gaussian", dim)[:2]
        f = np.empty((1, grid.nnodes))
        M = _gaussian_sample(p[None], grid, f, [0])[0]
        powers = [np.vander(x - ui, 5, increasing=True)
                  for x, ui in zip(grid.axes, p[1:1 + dim])]
        axes = "abc"[:dim]
        spec = (axes + "," + ",".join(f"{a}{a.upper()}" for a in axes)
                + "->" + axes.upper())
        lattice = f[0].reshape(grid.points)
        ref = grid.weight * np.einsum(spec, lattice, *powers)
        scale = grid.weight * np.einsum(spec, np.abs(lattice),
                                        *map(np.abs, powers))
        assert np.all(np.abs(M - ref) <= 1e-14 * scale)

    @CASES
    def test_jacobian_matches_central_differences(self, family, dim):
        grid, p, sample, select, _ = self.family(family, dim)
        jac = self.system(p, sample, select, grid)[1]
        fd = np.empty_like(jac)
        for k in range(len(p)):
            h = 1e-6 * max(1.0, abs(p[k]))
            step = np.zeros_like(p)
            step[k] = h
            hi = self.system(p + step, sample, select, grid)[0]
            lo = self.system(p - step, sample, select, grid)[0]
            fd[:, k] = (hi - lo) / (2 * h)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestGaussianOnGrid:
    def test_isotropic_tensor_reproduces_maxwellian(self, ref_grid):
        T, m = 0.8, 1.4
        f_g = gaussian_on_grid(1.0, (0.3, 0, 0), T * np.eye(3), m, ref_grid)
        f_m = maxwellian_on_grid(1.0, (0.3, 0, 0), T, m, ref_grid)
        assert np.max(np.abs(f_g - f_m)) < 1e-14

    def test_diagonal_tensor_pressure(self):
        grid = VelocityGrid(dim=3, vmin=-10.0, vmax=10.0, points=40)
        tensor = np.diag([1.0, 2.0, 3.0])
        f = gaussian_on_grid(1.0, (0.0, 0.0, 0.0), tensor, 1.0, grid)
        mom = moments(f, 1.0, grid)
        assert np.max(np.abs(mom.P - mom.n * tensor)) < 1e-6

    def test_quadrature_mass(self):
        grid = VelocityGrid(dim=3, vmin=-10.0, vmax=10.0, points=40)
        f = gaussian_on_grid(0.9, (0.1, 0.0, -0.2), np.diag([1.0, 2.0, 3.0]),
                             1.0, grid)
        assert abs(grid.density(f) - 0.9) < 1e-8

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lattice_sampler_matches_direct_formula(self, dim):
        grid = uneven_grid(dim)
        n, u, m = 0.9, np.array([0.3, -0.2, 0.15])[:dim], 1.3
        cov = SHEARED[:dim, :dim] / m
        c = grid.nodes - u
        direct = (n / math.sqrt(np.linalg.det(2 * math.pi * cov))
                  * np.exp(-0.5 * np.einsum("ni,ij,nj->n", c,
                                            np.linalg.inv(cov), c)))
        f = gaussian_on_grid(n, u, SHEARED[:dim, :dim], m, grid)
        assert np.max(np.abs(f - direct)) <= 1e-14 * np.max(direct)

    @staticmethod
    def longdouble_gaussian(n, u, tensor, mass, grid):
        """n / sqrt(det(2 pi S)) exp(-c . S^-1 . c / 2), S = tensor / mass,
        in extended precision through the Cholesky factor of S."""
        ld, d = np.longdouble, grid.dim
        S = np.asarray(tensor, dtype=ld) / ld(mass)
        L = np.zeros((d, d), dtype=ld)
        for j in range(d):
            L[j, j] = np.sqrt(S[j, j] - np.sum(L[j, :j] ** 2))
            for i in range(j + 1, d):
                L[i, j] = (S[i, j] - np.sum(L[i, :j] * L[j, :j])) / L[j, j]
        c, w = grid.nodes.astype(ld) - np.asarray(u, dtype=ld), []
        for i in range(d):
            w.append((c[:, i] - sum(L[i, k] * w[k] for k in range(i)))
                     / L[i, i])
        return (ld(n) / (np.prod(np.diag(L)) * (2 * ld(math.pi)) ** (d / 2))
                * np.exp(-sum(x * x for x in w) / 2))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fill_matches_direct_formula_near_singular(self, dim):
        """Correlation 0.999 between every pair of axes, on a lattice
        with nodes on the ridge so the peak is sampled."""
        grid = VelocityGrid(dim=dim, vmin=-6.0, vmax=6.0, points=24)
        tensor = 0.8 * np.full((dim, dim), 0.999)
        np.fill_diagonal(tensor, 0.8)
        n, u, m = 0.9, np.full(dim, 0.5), 1.3
        direct = self.longdouble_gaussian(n, u, tensor, m, grid)
        f = gaussian_on_grid(n, u, tensor, m, grid)
        assert np.max(np.abs(f - direct)) <= 3e-14 * np.max(direct)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_density_gives_zero_row(self, dim):
        grid = uneven_grid(dim)
        u, tensor = np.array([0.3, -0.2, 0.15])[:dim], SHEARED[:dim, :dim]
        assert np.array_equal(gaussian_on_grid(0.0, u, tensor, 1.3, grid),
                              np.zeros(grid.nnodes))
        stack = gaussian_on_grid([0.9, 0.0, 1.1], u, tensor, 1.3, grid)
        assert np.array_equal(stack[1], np.zeros(grid.nnodes))
        for k in (0, 2):
            solo = gaussian_on_grid([0.9, 0.0, 1.1][k], u, tensor, 1.3, grid)
            assert np.array_equal(stack[k], solo)

    def test_fill_allocates_no_row_sized_block(self, ref_grid):
        """The row is written in place: while `_gaussian_fill` runs on
        the 32^3 lattice, traced memory never grows by one row's bytes."""
        out = np.empty(ref_grid.nnodes)
        args = (0.9, np.array([0.3, -0.2, 0.1]), np.linalg.cholesky(SHEARED),
                ref_grid, out)
        _gaussian_fill(*args)  # warm any lazily built state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _gaussian_fill(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < ref_grid.nnodes * out.itemsize

    def test_not_spd_propagates(self, small_grid):
        with pytest.raises(NotSpdError):
            gaussian_on_grid(1.0, (0, 0, 0), np.diag([1.0, 1.0, -0.1]),
                             1.0, small_grid)


class TestMatchMoments:
    def test_already_matching_returns_unchanged(self, ref_grid):
        f, iters = match_moments(1.0, (0.0, 0, 0), 1.0, 1.0, ref_grid,
                                 tol=1e-12, return_info=True)
        assert iters == 0
        ref = maxwellian_on_grid(1.0, (0.0, 0, 0), 1.0, 1.0, ref_grid)
        assert np.array_equal(f, ref)

    def test_converges_quickly(self, ref_grid):
        f, iters = match_moments(1.0, (0.3, 0, 0), 0.8, 1.0, ref_grid,
                                 return_info=True)
        assert iters < 10
        mom = moments(f, 1.0, ref_grid)
        assert abs(mom.n - 1.0) <= 1e-12
        assert np.linalg.norm(mom.u - [0.3, 0, 0]) <= 1e-12
        assert abs(mom.T - 0.8) <= 1e-12

    def test_coarse_grid_needs_iterations(self):
        grid = VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=12)
        f, iters = match_moments(1.0, (0.3, 0, 0), 0.8, 1.0, grid,
                                 return_info=True)
        assert 0 < iters < 10
        mom = moments(f, 1.0, grid)
        assert abs(mom.T - 0.8) <= 1e-12

    def test_clipped_support_fails(self):
        grid = VelocityGrid(dim=3, vmin=-2.0, vmax=2.0, points=8)
        with pytest.raises(NoConvergenceError):
            match_moments(1.0, (0.0, 0, 0), 4.0, 1.0, grid)

    def test_rejects_bad_targets(self, small_grid):
        with pytest.raises(ValueError):
            match_moments(0.0, (0, 0, 0), 1.0, 1.0, small_grid)


class TestMatchGaussian:
    def test_matches_tensor(self, mid_grid):
        tensor = np.array([[1.2, 0.1, 0.0],
                           [0.1, 1.0, -0.05],
                           [0.0, -0.05, 0.8]])
        f = match_gaussian(0.9, (0.2, 0, 0), tensor, 1.3, mid_grid)
        mom = moments(f, 1.3, mid_grid)
        assert abs(mom.n - 0.9) <= 1e-12
        assert np.max(np.abs(mom.P / mom.n - tensor)) <= 1e-12

    def test_isotropic_matches_maxwellian_match(self, ref_grid):
        # needs a grid that resolves the width, or axis-aliasing asymmetry
        # separates the two matched families
        fg = match_gaussian(1.0, (0.25, 0, 0), 0.9 * np.eye(3), 1.0, ref_grid)
        fm = match_moments(1.0, (0.25, 0, 0), 0.9, 1.0, ref_grid)
        assert np.max(np.abs(fg - fm)) < 1e-12


class TestMatchLowDimensions:
    """Both matcher families on 1-, 2- and 3-D cubic and uneven
    lattices."""

    TENSORS = {1: [[1.1]], 2: [[1.2, 0.1], [0.1, 0.9]], 3: SHEARED}
    LATTICES = pytest.mark.parametrize(
        "dim,uneven",
        [(1, False), (2, False), (3, False), (1, True), (2, True), (3, True)],
        ids=["1", "2", "3", "uneven1", "uneven2", "uneven3"])

    @LATTICES
    def test_maxwellian_hits_targets(self, dim, uneven):
        grid = (uneven_grid(dim) if uneven
                else VelocityGrid(dim=dim, vmin=-8.0, vmax=8.0, points=12))
        u = np.array([0.3, -0.1, 0.2])[:dim]
        f, iters = match_moments(0.9, u, 0.8, 1.3, grid, return_info=True)
        assert iters > 0
        mom = moments(f, 1.3, grid)
        assert abs(mom.n - 0.9) <= 1e-12
        assert np.max(np.abs(mom.u - u)) <= 1e-12
        assert abs(mom.T - 0.8) <= 1e-12

    @LATTICES
    def test_gaussian_hits_targets(self, dim, uneven):
        grid = (uneven_grid(dim) if uneven
                else VelocityGrid(dim=dim, vmin=-8.0, vmax=8.0, points=12))
        u = np.array([0.3, -0.1, 0.2])[:dim]
        tensor = np.array(self.TENSORS[dim])
        f, iters = match_gaussian(0.9, u, tensor, 1.3, grid,
                                  return_info=True)
        assert iters > 0
        mom = moments(f, 1.3, grid)
        assert abs(mom.n - 0.9) <= 1e-12
        assert np.max(np.abs(mom.u - u)) <= 1e-12
        assert np.max(np.abs(mom.P / mom.n - tensor)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_isotropic_gaussian_matches_maxwellian(self, dim):
        grid = VelocityGrid(dim=dim, vmin=-8.0, vmax=8.0, points=32)
        u = np.array([0.25, -0.1])[:dim]
        fg = match_gaussian(1.0, u, 0.9 * np.eye(dim), 1.0, grid)
        fm = match_moments(1.0, u, 0.9, 1.0, grid)
        assert np.max(np.abs(fg - fm)) < 1e-12


class TestStackedMatching:
    """A stack matches member by member: each member's f and Newton
    iteration count equal those of its solo call, on uneven lattices,
    for members that need no iteration and members that need several."""

    N = np.array([0.9, 1.2, 0.7, 1.0])
    U = np.array([[0.1, -0.2, 0.05], [0.3, 0.1, -0.2], [-0.4, 0.2, 0.1],
                  [0.0, 0.0, 0.0]])
    MASS = np.array([1.0, 1.3, 1.0, 1.0])
    T = np.array([2.2, 0.3, 4.0, 1.2])  # clipped, coarse, clipped, resolved
    SCALES = (2.0, 0.4, 3.0, 1.0)  # the same for the Gaussian tensors
    TOL = 1e-6  # loose enough for the resolved member to need 0 steps

    @staticmethod
    def newton_counts(monkeypatch):
        """Per-member iteration counts of every Newton loop run."""
        counts = []
        real = gridmod._newton_match

        def spy(*args, **kwargs):
            p, iters = real(*args, **kwargs)
            counts.append(list(iters))
            return p, iters

        monkeypatch.setattr(gridmod, "_newton_match", spy)
        return counts

    def family(self, name, dim):
        """The matcher of a family and its stacked spreads."""
        if name == "maxwellian":
            return match_moments, self.T
        return match_gaussian, np.stack([s * SHEARED[:dim, :dim]
                                         for s in self.SCALES])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ["maxwellian", "gaussian"])
    def test_stack_equals_solo_calls(self, monkeypatch, family, dim):
        grid = uneven_grid(dim)
        u = self.U[:, :dim]
        match, spread = self.family(family, dim)
        counts = self.newton_counts(monkeypatch)
        stack, iters = match(self.N, u, spread, self.MASS, grid,
                             tol=self.TOL, return_info=True)
        assert stack.shape == (4, grid.nnodes)
        for k in range(4):
            solo = match(self.N[k], u[k], spread[k], self.MASS[k], grid,
                         tol=self.TOL)
            assert solo.shape == (grid.nnodes,)
            assert np.array_equal(stack[k], solo), k
        solo_counts = [c[0] for c in counts[1:]]
        assert counts[0] == solo_counts
        assert iters == max(solo_counts)
        assert min(solo_counts) == 0 and max(solo_counts) >= 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ["maxwellian", "gaussian"])
    def test_iterations_sample_only_unconverged_members(self, monkeypatch,
                                                        family, dim):
        """Each Newton iteration samples exactly the members not yet
        converged, so a stack that converges at iteration k makes k + 1
        sample calls."""
        name = f"_{family}_sample"
        real, sampled = getattr(gridmod, name), []

        def spy(p, grid, out, rows):
            assert len(p) == len(rows)
            sampled.append([int(k) for k in rows])
            return real(p, grid, out, rows)

        monkeypatch.setattr(gridmod, name, spy)
        counts = self.newton_counts(monkeypatch)
        match, spread = self.family(family, dim)
        match(self.N, self.U[:, :dim], spread, self.MASS, uneven_grid(dim),
              tol=self.TOL)
        iters = np.array(counts[0])
        assert min(iters) == 0 and max(iters) >= 2
        assert len(sampled) == max(iters) + 1
        for it, rows in enumerate(sampled):
            assert rows == np.flatnonzero(iters >= it).tolist(), it

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_maxwellian_rows_sampled_at_converged_parameters(
            self, monkeypatch, dim):
        """Each row is the plain Maxwellian of its own converged p, for
        members frozen after different iteration counts."""
        grid, found = uneven_grid(dim), []
        real = gridmod._newton_match

        def spy(*args, **kwargs):
            found.append(real(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(gridmod, "_newton_match", spy)
        stack = match_moments(self.N, self.U[:, :dim], self.T, self.MASS,
                              grid, tol=self.TOL)
        (p, iters), = found
        assert min(iters) == 0 and max(iters) >= 2
        ref = maxwellian_on_grid(p[:, 0], p[:, 1:1 + dim], p[:, 1 + dim],
                                 1.0, grid)
        assert np.array_equal(stack, ref)

    def test_arguments_broadcast_over_the_stack(self, mid_grid):
        u = np.array([[0.1, 0.0, 0.0], [-0.2, 0.1, 0.0]])
        f = maxwellian_on_grid(1.0, u, [0.8, 1.1], 1.3, mid_grid)
        for k in range(2):
            ref = maxwellian_on_grid(1.0, u[k], [0.8, 1.1][k], 1.3, mid_grid)
            assert np.array_equal(f[k], ref)
        with pytest.raises(ValueError):
            maxwellian_on_grid([1.0, 1.0, 1.0], u, 0.8, 1.3, mid_grid)

    def test_failure_names_the_member(self):
        grid = VelocityGrid(dim=3, vmin=-2.0, vmax=2.0, points=8)
        with pytest.raises(NoConvergenceError, match="member 1") as err:
            match_moments(1.0, np.zeros(3), [0.5, 4.0], 1.0, grid)
        assert err.value.member == 1

    @pytest.mark.parametrize("call", [
        lambda g, n, T: match_moments(n, (0, 0, 0), T, 1.0, g),
        lambda g, n, T: maxwellian_on_grid(n, (0, 0, 0), T, 1.0, g),
        lambda g, n, T: match_gaussian(n, (0, 0, 0), T * np.eye(3), 1.0, g),
        lambda g, n, T: gaussian_on_grid(n, (0, 0, 0), T * np.eye(3), 1.0,
                                         g)],
        ids=["match_moments", "maxwellian_on_grid", "match_gaussian",
             "gaussian_on_grid"])
    def test_nan_targets_rejected(self, small_grid, call):
        with pytest.raises(ValueError, match="member 0: got nan"):
            call(small_grid, np.nan, 1.0)
        with pytest.raises(ValueError, match="member 1: got nan"):
            call(small_grid, [1.0, np.nan], 1.0)

    @pytest.mark.parametrize("mass", [0.0, -1.0, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("fn, spread", [
        (match_moments, 1.0), (maxwellian_on_grid, 1.0),
        (match_gaussian, np.eye(3)), (gaussian_on_grid, np.eye(3))],
        ids=["match_moments", "maxwellian_on_grid", "match_gaussian",
             "gaussian_on_grid"])
    def test_mass_must_be_finite_and_positive(self, small_grid, fn, spread,
                                              mass):
        with pytest.raises(ValueError, match="mass must be finite and "
                                             "positive .member 0: got"):
            fn(1.0, (0, 0, 0), spread, mass, small_grid)
        with pytest.raises(ValueError, match="member 1: got"):
            fn(1.0, (0, 0, 0), spread, [1.0, mass], small_grid)

    def test_nan_temperature_rejected(self, small_grid):
        for fn in (match_moments, maxwellian_on_grid):
            with pytest.raises(ValueError, match="member 1: got nan"):
                fn(1.0, (0, 0, 0), [1.0, np.nan], 1.0, small_grid)


class TestStepHalving:
    """Newton steps halved until the iterate is admissible (n > 0 and a
    positive definite covariance), for the Maxwellian and for the
    Gaussian, whose test takes the eigenvalues of S, on clipped 8-point
    1-D lattices."""

    FAMILIES = pytest.mark.parametrize("family", ["maxwellian", "gaussian"])

    @staticmethod
    def match(family, n, u, T, grid):
        """Match with unit mass; the Gaussian's tensors are T as 1x1
        matrices."""
        if family == "maxwellian":
            return match_moments(n, u, T, 1.0, grid, return_info=True)
        tensor = np.reshape(T, np.shape(T) + (1, 1))
        return match_gaussian(n, u, tensor, 1.0, grid, return_info=True)

    @FAMILIES
    def test_no_admissible_step_names_the_member(self, family):
        """T = 3 on [-2, 2] needs a spread the lattice cannot hold: every
        halving down to 2^-20 leaves the iterate inadmissible."""
        grid = VelocityGrid(dim=1, vmin=-2.0, vmax=2.0, points=8)
        with pytest.raises(NoConvergenceError, match=(
                "no admissible Newton step while matching member 1")) as err:
            self.match(family, 1.0, np.zeros((2, 1)), [1.0, 3.0], grid)
        assert err.value.member == 1

    @FAMILIES
    def test_halved_steps_converge(self, family):
        """The full steps of iterations 7, 9 and 11 would make n negative,
        and the step of iteration 12, once halved to keep n positive,
        still makes theta negative; each is halved until admissible, and
        the match converges."""
        grid = VelocityGrid(dim=1, vmin=-1.5, vmax=1.5, points=9)
        f, iters = self.match(family, 1.0, [0.25], 0.7, grid)
        assert iters == 20
        mom = moments(f, 1.0, grid)
        assert abs(mom.n - 1.0) <= 1e-12
        assert abs(mom.u[0] - 0.25) <= 1e-12
        assert abs(mom.T - 0.7) <= 1e-12

    @FAMILIES
    def test_iteration_limit_names_the_member(self, family, monkeypatch):
        """The 20-iteration match above, allowed only 3 iterations."""
        monkeypatch.setattr(gridmod, "MAX_ITER", 3)
        grid = VelocityGrid(dim=1, vmin=-1.5, vmax=1.5, points=9)
        with pytest.raises(NoConvergenceError, match=(
                "did not converge in 3 iterations")) as err:
            self.match(family, 1.0, [0.25], 0.7, grid)
        assert err.value.member == 0

    @FAMILIES
    def test_diverging_iterate_overflows_silently(self, family):
        """T = 1.7 at u = 0.5 on 8 points of [-1.5, 1.5] diverges: an
        iterate's offsets overflow when squared, and the matcher's own
        error is raised, not an overflow warning (the suite turns
        warnings into errors)."""
        grid = VelocityGrid(dim=1, vmin=-1.5, vmax=1.5, points=8)
        with pytest.raises(NoConvergenceError, match="member 0") as err:
            self.match(family, 1.0, [0.5], 1.7, grid)
        assert err.value.member == 0


class TestSpdFactor:
    def test_identity(self):
        spd = spd_factor(np.eye(3))
        assert np.allclose(spd.chol, np.eye(3))

    def test_diagonal(self):
        spd = spd_factor(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(spd.chol @ spd.chol.T, np.diag([1.0, 2.0, 3.0]))

    def test_negative_eigenvalue(self):
        with pytest.raises(NotSpdError) as err:
            spd_factor(np.diag([1.0, 1.0, -0.1]))
        assert err.value.pivot == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_fails_a_pivot(self, bad):
        diag = np.diag([1.0, bad, 2.0])
        with pytest.raises(NotSpdError) as err:
            spd_factor(diag)
        assert err.value.pivot == 1
        off = np.eye(3)
        off[0, 2] = off[2, 0] = bad
        with pytest.raises(NotSpdError) as err:
            spd_factor(off)
        assert err.value.pivot == 2
        # above the diagonal only, which the factorization never reads
        for i, j in ((0, 1), (0, 2), (1, 2)):
            upper = np.eye(3)
            upper[i, j] = bad
            with pytest.raises(NotSpdError) as err:
                spd_factor(upper)
            assert err.value.pivot == j, (i, j)
        with pytest.raises(NotSpdError) as err:
            spd_factor([[1.0, bad], [0.0, 1.0]])
        assert err.value.pivot == 1

    def test_stack_failure_names_the_member(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, -0.1]), np.eye(3)])
        with pytest.raises(NotSpdError, match="member 1") as err:
            spd_factor(stack)
        assert err.value.member == 1 and err.value.pivot == 2
        assert np.array_equal(err.value.matrix, stack[1])

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3, 3))
        stack = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
        spd = spd_factor(stack)
        for k in range(5):
            one = spd_factor(stack[k])
            assert np.allclose(spd.chol[k], one.chol, rtol=1e-14, atol=0)

    def test_rejects_asymmetric(self):
        mat = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spd_factor(mat)

    def test_symmetry_tolerance_is_per_member(self):
        skew = np.array([[1.0, 1e-7], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spd_factor(skew)
        with pytest.raises(ValueError, match=r"symmetric.*\(member 1\)"):
            spd_factor(np.stack([1e6 * np.eye(2), skew]))

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            mat = a @ a.T + 0.1 * np.eye(3)
            spd = spd_factor(mat)
            assert np.allclose(spd.chol @ spd.chol.T, mat, atol=1e-12)


class TestHFunctional:
    def test_single_maxwellian_analytic(self, ref_grid):
        n, T, m = 1.0, 1.0, 1.0
        f = maxwellian_on_grid(n, (0.0, 0, 0), T, m, ref_grid)
        expected = n * (math.log(n / (2 * math.pi * T / m) ** 1.5) - 1.5)
        got = h_functional([f, np.zeros(ref_grid.nnodes)], ref_grid)
        assert abs(got - expected) < 1e-8

    def test_zero_nodes_contribute_nothing(self, small_grid):
        f = np.zeros(small_grid.nnodes)
        f[3] = 2.0
        expected = small_grid.weight * 2.0 * math.log(2.0)
        assert h_functional([f, np.zeros_like(f)], small_grid) == \
            pytest.approx(expected, rel=1e-15)

    def test_additivity(self, mid_grid):
        f = maxwellian_on_grid(0.8, (0.1, 0, 0), 1.2, 1.0, mid_grid)
        single = h_functional([f, np.zeros_like(f)], mid_grid)
        assert h_functional([f, f], mid_grid) == pytest.approx(2 * single,
                                                             rel=1e-14)

    def test_negative_values_clamped_in_h_only(self, small_grid):
        f = np.full(small_grid.nnodes, -1.0)
        assert h_functional([f, f], small_grid) == 0.0

    def test_zero_negative_and_nan_contribute_exactly_zero(self, mid_grid):
        f = maxwellian_on_grid(0.8, (0.1, 0, 0), 1.2, 1.0, mid_grid)
        f[::5], f[1::7], f[2::11] = 0.0, -0.3, np.nan
        clean = np.where(f > 0.0, f, 0.0)
        assert h_functional([f, f[::-1]], mid_grid) == h_functional(
            [clean, clean[::-1]], mid_grid)
        assert h_functional([np.full_like(f, np.nan), f], mid_grid) == \
            h_functional([np.zeros_like(f), clean], mid_grid)

    def test_unmasked_rows_equal_the_masked_sum(self, mid_grid):
        """Strictly positive rows, and one holding +inf, skip the mask;
        H is bitwise the masked sum."""
        def masked(row):
            pos = row > 0.0
            terms = np.log(row, out=np.zeros_like(row), where=pos)
            np.multiply(terms, row, out=terms, where=pos)
            return float(np.sum(terms))

        rng = np.random.default_rng(4)
        f = rng.uniform(1e-300, 2.0, (2, 3, mid_grid.nnodes))
        f[1, :, ::7] = maxwellian_on_grid(0.8, (0.1, 0, 0), 1.2, 1.0,
                                          mid_grid)[::7]
        with_inf = [f[0], np.where(f[1] > 1.9, np.inf, f[1])]
        for rows in (f, with_inf):
            expected = mid_grid.weight * sum(map(masked, np.asarray(rows)))
            assert h_functional(rows, mid_grid) == expected
        assert h_functional(with_inf, mid_grid) == math.inf

    def test_matches_sum_over_positive_values(self, mid_grid):
        rng = np.random.default_rng(9)
        f = rng.uniform(-0.2, 1.0, (2, 3, mid_grid.nnodes))
        f[0, :, ::9] = 0.0
        ref = 0.0
        for species in f:
            vals = species[species > 0.0]
            ref += float(np.sum(vals * np.log(vals)))
        assert h_functional(f, mid_grid) == pytest.approx(
            mid_grid.weight * ref, rel=1e-15)


class TestInvariants:
    def test_moment_roundtrip(self, ref_grid):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = rng.uniform(0.2, 2.0)
            u = rng.uniform(-0.5, 0.5, 3)
            T = rng.uniform(0.5, 1.5)
            m = rng.uniform(0.5, 2.0)
            f = maxwellian_on_grid(n, u, T / m, 1.0, ref_grid)
            mom = moments(f, 1.0, ref_grid)
            assert abs(mom.n - n) < 1e-6 * n
            assert np.linalg.norm(mom.u - u) < 1e-6
            assert abs(mom.T - T / m) < 1e-6

    def test_spd_tensor_family(self, small_grid):
        # (1 - mu) T I + mu P/n stays positive definite for positive f
        rng = np.random.default_rng(7)
        mus = np.linspace(-0.5, 1.0, 7)
        for _ in range(100):
            f = rng.uniform(1e-3, 1.0, small_grid.nnodes)
            mom = moments(f, 1.0, small_grid)
            for mu in mus:
                tensor = (1 - mu) * mom.T * np.eye(3) + mu * mom.P / mom.n
                spd_factor(tensor)  # must not raise
