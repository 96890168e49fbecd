"""Shim for editable installs on environments without the `wheel` package.

`pip install -e .` falls back to the legacy `setup.py develop` path when a
setup.py is present, which works offline; all real metadata lives in
pyproject.toml.  The numpy floor is repeated here so the legacy path
states it too (``np.bitwise_count`` needs numpy 2.0); pyproject.toml's
``dependencies`` wins when both are read.
"""

from setuptools import setup

setup(install_requires=["numpy>=2.0"])
