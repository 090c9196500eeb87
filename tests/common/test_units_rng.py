"""Tests for unit helpers and deterministic RNG derivation."""

import hashlib
import importlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    GIB,
    KIB,
    MIB,
    derive_seed,
    fnv1a_64,
    format_usec,
    make_rng,
    seconds,
)
from repro.common import rng as rng_module


def _fnv1a_64_reference(data: bytes) -> int:
    """Byte-serial FNV-1a, as published: no table, no unrolling."""
    acc = 0xCBF29CE484222325
    for byte in data:
        acc = ((acc ^ byte) * 0x100000001B3) % (1 << 64)
    return acc


class TestUnits:
    def test_binary_units(self):
        assert KIB == 1024
        assert MIB == 1024 * KIB
        assert GIB == 1024 * MIB

    def test_time_conversions_round_trip(self):
        assert seconds(1) == 1_000_000.0
        assert seconds(2.5) / 1_000_000.0 == pytest.approx(2.5)

    def test_format_usec(self):
        assert format_usec(500) == "500.0 us"
        assert format_usec(2500) == "2.50 ms"
        assert format_usec(3_000_000) == "3.00 s"


class TestRng:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_derive_seed_differs_by_label(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_path_is_not_ambiguous(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")
        # "/" separates labels, so no label may contain one: ("a/b",) would
        # alias ("a", "b") and ("a/",) would alias ("a", "").
        assert derive_seed(7, "a", "") != derive_seed(7, "a")
        for labels in (("a/b",), ("a/",), ("ok", "/")):
            with pytest.raises(ValueError, match="'/'"):
                derive_seed(7, *labels)

    def test_make_rng_streams_are_reproducible(self):
        a = make_rng(9, "workload")
        b = make_rng(9, "workload")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_fnv1a_is_stable(self):
        # Known FNV-1a 64-bit value for empty input is the offset basis.
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"key") == fnv1a_64(b"key")
        assert fnv1a_64(b"key1") != fnv1a_64(b"key2")

    def test_fnv1a_fits_64_bits(self):
        assert fnv1a_64(b"some longer input value") < (1 << 64)


#: ``derive_seed`` for every label path ``src/`` uses: the seeds behind
#: every stream, fleet shard and baseline artifact. A change of hash
#: module or encoding that moves one moves every simulated result.
KNOWN_SEEDS = (
    ((1, "load"), 7537351906712662839),
    ((1, "warmup", "ops"), 9105572857958031889),
    ((1, "warmup", "keys"), 621617369724341584),
    ((1, "warmup", "values"), 4779456925597434447),
    ((1, "ops", "ops"), 7795498160178511690),
    ((1, "ops", "keys"), 2741663107599665180),
    ((1, "ops", "values"), 6350756245065597432),
    ((1, "fleet", "shard0"), 5673099278267962126),
    ((1, "fleet", "shard7"), 2152190695185210652),
    ((1, "load", "reader"), 121595600503502637),
    ((1, "load", "t00"), 6361882139406465411),
    ((1, "warmup", "keys", "writer"), 717135722519414609),
    ((1, "ops", "keys", "reader"), 3438581381706839810),
    ((42, "obs", "attribution"), 5363710643172982418),
    ((7, "fig6"), 8692270780658502800),
    ((-3, "x"), 5659814359912701001),
    ((0,), 6912158355717386040),
    ((1 << 70, "big"), 1074335285399360224),
)


def _derive_seed_reference(root_seed: int, *labels: str) -> int:
    """The specification: SHA-256 of ``"<root>/<label>/..."``, top 63 bits of 64."""
    text = "/".join((str(root_seed), *labels)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big") & ((1 << 63) - 1)


def check_known_seeds(derive) -> None:
    for args, seed in KNOWN_SEEDS:
        assert derive(*args) == seed, args


class TestSeedKnownAnswers:
    def test_every_label_path_in_use(self):
        check_known_seeds(derive_seed)

    def test_make_rng_streams_are_pinned(self):
        assert make_rng(1, "load").getrandbits(64) == (
            random.Random(7537351906712662839).getrandbits(64)
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=-(1 << 80), max_value=1 << 80),
        st.lists(
            # Labels are UTF-8 encodable (no lone surrogates) and "/"-free.
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="/"),
                    max_size=12),
            max_size=4,
        ),
    )
    def test_matches_hashlib(self, root_seed, labels):
        assert derive_seed(root_seed, *labels) == _derive_seed_reference(root_seed, *labels)

    @pytest.mark.parametrize("blocked", [("_sha256",), ("_sha256", "_sha2")])
    def test_every_import_branch_gives_the_same_seeds(self, blocked, monkeypatch):
        # Blocking _sha256 takes the 3.12+ branch (or, before 3.12, the
        # hashlib fallback); blocking _sha2 as well always falls back.
        namespace = vars(rng_module)
        saved = dict(namespace)
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        try:
            importlib.reload(rng_module)
            assert rng_module.sha256.__module__ != "_sha256"
            check_known_seeds(rng_module.derive_seed)
        finally:
            # Reload runs in the same namespace: put back the very objects
            # (functions, _PREFIX_STATES) every other importer holds.
            namespace.clear()
            namespace.update(saved)
        check_known_seeds(derive_seed)


class TestFnvAgainstReference:
    """``fnv1a_64`` takes a shortcut (shared prefix states); the
    byte-serial loop is the specification."""

    def test_published_vectors(self):
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a_64(b"foobar") == 0x85944171F73967E8
        assert _fnv1a_64_reference(b"foobar") == 0x85944171F73967E8

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=0, max_size=40))
    def test_matches_reference(self, data):
        assert fnv1a_64(data) == _fnv1a_64_reference(data)

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(min_size=6, max_size=37),
        st.binary(min_size=3, max_size=3),
        st.binary(min_size=3, max_size=3),
    )
    def test_inputs_differing_only_in_the_last_three_bytes(self, head, tail_a, tail_b):
        # Same prefix state, different tails (and the same tail twice).
        for data in (head + tail_a, head + tail_b, head + tail_a):
            assert fnv1a_64(data) == _fnv1a_64_reference(data)

    @settings(max_examples=200, deadline=None)
    @given(
        st.binary(min_size=6, max_size=37),
        st.binary(min_size=6, max_size=37),
        st.binary(min_size=3, max_size=3),
    )
    def test_inputs_differing_only_outside_the_last_three_bytes(self, head_a, head_b, tail):
        for data in (head_a + tail, head_b + tail):
            assert fnv1a_64(data) == _fnv1a_64_reference(data)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_seqno_and_rank_form(self, number):
        data = number.to_bytes(8, "little")
        assert fnv1a_64(data) == _fnv1a_64_reference(data)

    def test_every_short_length(self):
        for length in range(0, 13):
            data = bytes(range(1, length + 1))
            assert fnv1a_64(data) == _fnv1a_64_reference(data)

    def test_correct_and_bounded_once_the_prefix_table_is_full(self):
        states = rng_module._PREFIX_STATES
        bound = rng_module._PREFIX_STATES_MAX
        saved = dict(states)
        try:
            # Keys that share no prefix: one new entry each, up to the bound.
            for i in range(bound + 500):
                data = b"p%08d-xyz" % i
                assert fnv1a_64(data) == _fnv1a_64_reference(data)
            assert len(states) == bound
            # Full table: new prefixes, known prefixes and repeats all agree.
            for data in (b"never-seen-before-000", b"p%08d-abc" % 3, b"p%08d-xyz" % (bound + 7)):
                assert fnv1a_64(data) == _fnv1a_64_reference(data)
                assert fnv1a_64(data) == _fnv1a_64_reference(data)
            assert len(states) == bound
        finally:
            states.clear()
            states.update(saved)

    def test_nothing_is_remembered_per_input(self):
        before = len(rng_module._PREFIX_STATES)
        for i in range(5_000):
            fnv1a_64(b"user%012d" % (7_000_000 + i))  # 5 new prefixes at most
            fnv1a_64(i.to_bytes(8, "little"))
        assert len(rng_module._PREFIX_STATES) - before <= 6
