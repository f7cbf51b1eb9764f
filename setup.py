"""Setuptools shim for a development install.

``python setup.py develop`` links ``src/repro`` into the environment
and needs nothing beyond setuptools, so it works offline. Setuptools
finds the package and its name in the ``src`` layout; there is no
other project metadata. ``pip install -e .`` builds a PEP 660 editable
wheel instead and fails where the ``wheel`` package is missing.
"""

from setuptools import setup

setup()
