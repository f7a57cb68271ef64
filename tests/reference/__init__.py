"""Test-only reference implementations the production kernels are
checked against."""
