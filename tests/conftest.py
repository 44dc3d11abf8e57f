import numpy as np
import pytest

from nlsaddle.kernels import fractional_kernel, standard_c_norm
from nlsaddle.energy import build_grid, build_kernel_table


@pytest.fixture(scope="session")
def small_grid():
    # 12-cells-per-axis triangle, m = 1
    return build_grid(R=8 / 3, h=1 / 3, m=1, R_out=4.0)


@pytest.fixture(scope="session")
def small_table(small_grid):
    return build_kernel_table(small_grid, fractional_kernel(0.5, 1))


@pytest.fixture(scope="session")
def medium_grid():
    return build_grid(R=8.0, h=0.5, m=1, R_out=12.0)


@pytest.fixture(scope="session")
def medium_table(medium_grid):
    kernel = fractional_kernel(0.5, 1, c_norm=standard_c_norm(0.5, 1))
    return build_kernel_table(medium_grid, kernel)


@pytest.fixture(scope="session")
def m2_grid():
    return build_grid(R=3.0, h=0.5, m=2, R_out=4.5)


@pytest.fixture(scope="session")
def m2_table(m2_grid):
    return build_kernel_table(m2_grid, fractional_kernel(0.5, 2))
