"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def digit_limit():
    """The interpreter's limit on the digits of an int-str conversion; where
    it is off (0), CPython's default of 4300 is set for the test."""
    limit = sys.get_int_max_str_digits()
    if limit:
        yield limit
        return
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(0)
