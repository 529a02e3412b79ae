"""Setuptools entry point: ``python -m pip install -e .`` installs ``repro`` from ``src/``."""
from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
