"""Tests for the text form of exact values."""

import random
import sys
from fractions import Fraction as F

import pytest

from asep2l.rational import format_ratios, format_rational


class TestFormatRatios:
    def test_each_ratio_reads_as_format_rational(self):
        rng = random.Random(23)
        for total in (1, 2, 12, 97, 3**40 * 2**7):
            masses = [0, total, 2 * total] + [rng.randrange(3 * total) for _ in range(30)]
            expected = [format_rational(F(m, total)) for m in masses]
            assert format_ratios(masses, total) == expected
        assert format_ratios([0, 6, 4, 3], 6) == ["0", "1", "2/3", "1/2"]

    def test_a_ratio_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        big = 7**6000 + 1  # over 5000 digits, prime to the total
        total = 3 * 7**5999
        try:
            sys.set_int_max_str_digits(4300)
            texts = format_ratios([big, 0, total], total)
            assert sys.get_int_max_str_digits() == 4300  # the limit is restored
            sys.set_int_max_str_digits(0)
            assert texts == [f"{big}/{total}", "0", "1"]
            assert len(texts[0]) > 2 * 4300
        finally:
            sys.set_int_max_str_digits(limit)

    def test_the_limit_is_restored_when_formatting_fails(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(5000)
            with pytest.raises(TypeError):
                format_ratios([1, "2"], 3)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)
