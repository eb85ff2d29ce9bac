"""Packaging for the ``repro`` library.

This file holds the project's metadata and dependencies; there is no
``pyproject.toml``.  ``pip install -e .`` installs the package from
``src/``; without installing, set ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Minimizing the Cost of Iterative Compilation with "
        "Active Learning' (CGO 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    extras_require={
        # Optional JIT backend for the SMC update kernels
        # (DynamicTreeConfig(backend="numba"); see docs/architecture.md).
        # Everything falls back to the bit-identical NumPy kernels when
        # numba is not installed.
        "jit": ["numba"],
    },
)
