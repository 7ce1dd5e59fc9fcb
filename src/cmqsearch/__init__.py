"""Complementary-multiphase quantum search: planning, optimization, verification."""

# The kernels are pure Python; the name stays for tools that record which
# implementation a run used.
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
