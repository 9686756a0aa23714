"""Pytest configuration: make the src/ layout importable without installation,
and the shared test helpers (``tests/fleet_specs.py``) importable by name."""

import os
import sys

SRC = os.path.join(os.path.dirname(__file__), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
TESTS = os.path.join(os.path.dirname(__file__), "tests")
if TESTS not in sys.path:
    sys.path.append(TESTS)
