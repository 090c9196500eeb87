"""Tests for the key interner."""

import pytest

from repro.workloads.interning import KeyInterner


class TestKeyInterner:
    def test_same_object_on_repeat(self):
        interner = KeyInterner()
        first = interner.key(42)
        assert first == b"user000000000042"
        assert interner.key(42) is first

    def test_format_is_the_constructor_argument(self):
        assert KeyInterner("t07-%010d").key(3) == b"t07-0000000003"

    def test_out_of_order_and_sparse_indices(self):
        interner = KeyInterner("k%05d")
        order = [900, 3, 0, 4_000, 17, 3, 899, 901]
        keys = {index: interner.key(index) for index in order}
        for index in order:
            assert keys[index] == b"k%05d" % index
            assert interner.key(index) is keys[index]
        # The gaps a sparse index left behind are still unset, not aliased.
        assert interner.key(2) == b"k00002"
        assert interner.key(3_999) == b"k03999"
        assert len(interner) == len(set(order)) + 2

    def test_len_counts_distinct_keys(self):
        interner = KeyInterner()
        assert len(interner) == 0
        for index in (5, 5, 6, 5, 0):
            interner.key(index)
        assert len(interner) == 3

    def test_an_index_past_max_size_is_formatted_but_not_stored(self):
        interner = KeyInterner("k%d", max_size=8)
        inside = interner.key(7)
        huge = interner.key(10**12)
        assert huge == b"k1000000000000"
        assert interner.key(10**12) == huge and interner.key(10**12) is not huge
        assert interner.key(8) == b"k8" and interner.key(8) is not interner.key(8)
        assert interner.key(7) is inside
        assert len(interner) == 1
        assert len(interner._by_index) <= 8  # no list sized by the huge index

    def test_a_negative_index_never_reads_from_the_end_of_the_table(self):
        interner = KeyInterner("k%d")
        interner.key(0)
        interner.key(1)
        assert interner.key(-1) == b"k-1"
        assert len(interner) == 2

    def test_rejects_a_non_positive_bound(self):
        with pytest.raises(ValueError):
            KeyInterner(max_size=0)
