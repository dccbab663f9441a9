"""Setuptools shim.

The canonical metadata lives in ``pyproject.toml``; this file exists so
that environments without the ``wheel`` package (no PEP 660 editable
builds) can still install in development mode with
``python setup.py develop``.
"""

from setuptools import setup

setup()
