"""Parameter validation, grid layout, and state-block bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piezolab.errors import GridTooCoarse, NonPositiveParameter
from piezolab.generator import assemble_generator
from piezolab.model import (StateVector, block_slices, build_grid,
                            toy_parameters, validate_parameters)

TOY = dict(rho=1.0, alpha=1.0, gamma=1.0, eps1=1.0, eps3=1.0,
           mu=1.0, h=1.0, L=1.0)

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


class TestValidateParameters:
    def test_toy_xi(self):
        p = validate_parameters(TOY)
        assert p.xi == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_xi_unity(self):
        p = validate_parameters({**TOY, "eps1": 12.0})
        assert p.xi == 1.0

    def test_negative_rho_rejected(self):
        with pytest.raises(NonPositiveParameter) as exc:
            validate_parameters({**TOY, "rho": -1.0})
        assert exc.value.field == "rho"

    def test_gamma_may_be_negative_or_zero(self):
        assert validate_parameters({**TOY, "gamma": -2.0}).gamma == -2.0
        assert validate_parameters({**TOY, "gamma": 0.0}).gamma == 0.0

    def test_missing_field(self):
        bad = dict(TOY)
        del bad["mu"]
        with pytest.raises(ValueError, match="mu"):
            validate_parameters(bad)

    @given(eps1=positive, eps3=positive, h=positive)
    @settings(max_examples=50, deadline=None)
    def test_xi_definition_property(self, eps1, eps3, h):
        p = validate_parameters({**TOY, "eps1": eps1, "eps3": eps3, "h": h})
        assert abs(p.xi * 12.0 * eps3 - eps1 * h * h) <= 1e-15 * eps1 * h * h


class TestBuildGrid:
    def test_unit_grid(self):
        g = build_grid(1.0, 8)
        assert g.dx == 0.125
        assert g.node_coords.shape == (9,)
        assert g.cell_coords.shape == (8,)

    def test_endpoint(self):
        g = build_grid(2.0, 10)
        assert g.node_coords[10] == pytest.approx(2.0, rel=1e-15)
        assert g.node_coords[0] == 0.0

    def test_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            build_grid(1.0, 4)

    @given(n=st.integers(min_value=8, max_value=500), length=positive)
    @settings(max_examples=50, deadline=None)
    def test_cells_tile_the_interval(self, n, length):
        g = build_grid(length, n)
        assert abs(g.dx * n - length) <= 1e-14 * length
        # cell centers strictly interior
        assert 0.0 < g.cell_coords[0] and g.cell_coords[-1] < length


class TestStateVector:
    def test_block_lengths(self):
        g = build_grid(1.0, 16)
        y = StateVector.zero(g)
        assert (len(y.y1), len(y.y2), len(y.y3)) == (16, 15, 16)
        assert (len(y.y4), len(y.y5), len(y.y6)) == (17, 15, 16)

    def test_flat_round_trip(self):
        g = build_grid(1.0, 12)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(g.state_dim)
        np.testing.assert_array_equal(StateVector.from_flat(vec, g).flat(), vec)

    def test_wrong_length_rejected(self):
        g = build_grid(1.0, 8)
        with pytest.raises(ValueError, match="y2"):
            StateVector(np.zeros(8), np.zeros(8), np.zeros(8),
                        np.zeros(9), np.zeros(7), np.zeros(8), grid=g)

    def test_gauge_projection_is_exact(self):
        g = build_grid(1.0, 32)
        p = toy_parameters()
        asm = assemble_generator(p, g)
        rng = np.random.default_rng(11)
        y = np.zeros(asm.dim)
        for name in ("y1", "y2", "y4", "y5"):
            block = asm.blocks[name]
            y[block] = rng.standard_normal(block.stop - block.start)
        y = StateVector.from_flat(asm.lift(y), g)

        def node_to_cell_gradient(w):
            # first difference onto cells with zero (Dirichlet) boundary values
            return np.diff(np.concatenate(([0.0], w, [0.0]))) / g.dx

        r3 = y.y3 - p.xi * node_to_cell_gradient(y.y2)
        r6 = y.y6 - p.xi * node_to_cell_gradient(y.y5)
        assert np.linalg.norm(r3) <= 1e-13 * np.linalg.norm(y.y3)
        assert np.linalg.norm(r6) <= 1e-13 * np.linalg.norm(y.y6)

    def test_block_slices_cover_state(self):
        g = build_grid(1.0, 10)
        sl = block_slices(g)
        covered = sum(s.stop - s.start for s in sl.values())
        assert covered == g.state_dim == 6 * 10 - 1
        assert sl["y4"].start == 3 * 10 - 1
