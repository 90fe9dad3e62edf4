"""Legacy setup shim.

All metadata lives in ``pyproject.toml``; this file only lets environments
without the ``wheel`` package do editable installs through
``setup.py develop`` (``pip install -e . --no-use-pep517``).
"""

from setuptools import setup

setup()
