"""Simulator for electric-field control of a quantum dot in a three-contact
micropillar device: sheet/junction field solver, exciton fine-structure map,
polarization-scan synthesis and fitting, and bias-space tuning."""

__version__ = "0.1.0"

# No caller reads this name through the package, but the benchmark's
# self-test (perfbench/test_perfbench.py) checks that its tracer wraps
# ("pillartune", "run_bias_sweep"); drop both together.
from .tuner import run_bias_sweep
