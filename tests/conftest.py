import pytest

from pillartune.config import load_run_config
from pillartune.device import generate_mesh
from pillartune.solver import SheetSystem


@pytest.fixture(scope="session")
def default_config():
    return load_run_config()


@pytest.fixture(scope="session")
def coarse_mesh(default_config):
    """Default device meshed at 2 um: fast enough for per-test solves."""
    return generate_mesh(default_config.geometry, 2.0)


@pytest.fixture(scope="session")
def coarse_system(default_config, coarse_mesh):
    return SheetSystem(coarse_mesh, default_config.materials)
