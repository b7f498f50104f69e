"""Legacy setup entry point.

Kept because the offline environment has no ``wheel`` package, so pip must
use the ``setup.py develop`` editable path instead of PEP 517.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "ThemisIO reproduction: fine-grained policy-driven I/O sharing "
        "for burst buffers (SC 2023)"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
)
