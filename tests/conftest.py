"""Keeps the tests directory importable for its helper modules, and holds
the fixture that sets Python's int-str digit limit."""

import sys

import pytest


@pytest.fixture
def set_int_str_limit():
    """sys.set_int_max_str_digits, with the limit restored after the test."""
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)
