import numpy as np
import pytest

from bgkmix import VelocityGrid


def node_coordinates(grid):
    """The (nnodes, d) node coordinates in `ij` order (the last axis
    fastest), formed from `grid.axes`, for node-level references."""
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


@pytest.fixture(scope="session")
def ref_grid():
    """32 points per axis on [-8, 8]^3."""
    return VelocityGrid.reference()


@pytest.fixture(scope="session")
def mid_grid():
    return VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=16)


@pytest.fixture(scope="session")
def small_grid():
    return VelocityGrid(dim=3, vmin=-8.0, vmax=8.0, points=8)
