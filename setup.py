"""Packaging metadata for the TeCoRe reproduction.

Kept as a plain ``setup.py`` (no pyproject build isolation) so that
``pip install -e .`` works offline with the toolchain baked into the
development image.
"""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).parent / "README.md"

setup(
    name="tecore-repro",
    version="1.0.0",
    description=(
        "Reproduction of TeCoRe: temporal conflict resolution in uncertain "
        "temporal knowledge graphs (Chekol et al., PVLDB 2017)"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="TeCoRe reproduction contributors",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
        # 1.9 is the first release with scipy.optimize.milp (HiGHS MILP).
        "scipy>=1.9",
    ],
    entry_points={
        "console_scripts": [
            "tecore=repro.cli:main",
        ]
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
    keywords="knowledge-graph temporal-reasoning markov-logic psl map-inference",
)
