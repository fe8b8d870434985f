"""Package metadata for the photonic-rails reproduction.

Installs the ``repro`` library from ``src/`` and the ``repro-sim`` console
script (see :mod:`repro.experiments.cli`).  Kept as a plain ``setup.py`` so
``pip install -e . --no-use-pep517`` works in offline environments without
the ``wheel`` package.
"""

from setuptools import find_packages, setup

setup(
    name="repro-photonic-rails",
    version="0.2.0",
    description=(
        "Reproduction of photonic rail-optimized fabrics for ML training: "
        "topology builders, Opus control plane, DAG simulator, and a "
        "fabric-agnostic experiment layer"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        # CI installs `.[test]` so this file stays the single source of
        # truth for what the test jobs need beyond the library itself.
        "test": ["pytest"],
    },
    entry_points={
        "console_scripts": [
            "repro-sim=repro.experiments.cli:main",
        ]
    },
)
