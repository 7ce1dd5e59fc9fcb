"""Complementary-multiphase quantum search: planning, optimization, verification."""

# The kernels are pure Python; perfbench/harness.py records this name.
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
