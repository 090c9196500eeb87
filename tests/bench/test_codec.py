"""Binary artifact codec: exact round-trips vs the JSON path.

The codec's contract (see ``repro.bench.codec``) is that
``decode_tree(encode_tree(tree)) == tree`` *exactly* for every JSON-safe
tree: types preserved (``True`` is not ``1``, ``1`` is not ``1.0``),
floats bit-for-bit, dict insertion order kept. That is what lets the
fleet ship shard results as one bytes blob while the committed digests
stay oblivious to the wire format. The property test here generates
random JSON-safe trees and checks the codec round-trip against the
``json`` module's round-trip on the same tree.
"""

import json
import math
import random
import struct

import pytest

from repro.bench.codec import (
    MAGIC,
    VERSION,
    decode_result,
    decode_tree,
    encode_result,
    encode_tree,
)
from repro.bench.harness import SystemConfig, run_experiment
from repro.errors import CorruptionError
from repro.fleet.runner import FleetConfig, default_tenants, run_fleet
from repro.workloads.ycsb import YCSBConfig


def assert_exact(original, rebuilt):
    """Equality plus exact types, recursively (1 != 1.0, True != 1)."""
    assert type(rebuilt) is type(original)
    if type(original) is list:
        assert len(rebuilt) == len(original)
        for item, back in zip(original, rebuilt):
            assert_exact(item, back)
    elif type(original) is dict:
        # Insertion order is part of the contract: to_json() order feeds
        # the digests via json.dumps without sort_keys.
        assert list(rebuilt.keys()) == list(original.keys())
        for key in original:
            assert_exact(original[key], rebuilt[key])
    elif type(original) is float:
        if math.isnan(original):
            assert math.isnan(rebuilt)
        else:
            assert rebuilt == original
            assert math.copysign(1.0, rebuilt) == math.copysign(1.0, original)
    else:
        assert rebuilt == original


def round_trip(tree):
    rebuilt = decode_tree(encode_tree(tree))
    assert_exact(tree, rebuilt)
    return rebuilt


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62),
        (1 << 63) - 1, -(1 << 63),          # int64 edges, array-packable
        1 << 63, -(1 << 63) - 1, 2**80, -(2**80),  # bigint fallback
        0.0, -0.0, 1.5, -2.25e300, 5e-324, float("inf"), float("-inf"),
        "", "plain", "unicode: µs ∆ ☃", "embedded \x00 nul",
    ])
    def test_scalar_round_trip(self, value):
        round_trip(value)

    def test_nan_round_trips(self):
        assert math.isnan(decode_tree(encode_tree(float("nan"))))

    def test_float_bit_exact(self):
        # A value that loses precision through repr-based paths at
        # lower digit counts; marshal's binary float keeps every bit.
        value = 0.1 + 0.2
        assert decode_tree(encode_tree(value)) == value


class TestContainers:
    def test_bool_list_not_packed_as_ints(self):
        round_trip([True, False, True])

    def test_int_list_packs_and_restores(self):
        round_trip(list(range(-5, 2000, 7)))

    def test_float_list_packs_and_restores(self):
        round_trip([0.5 * i for i in range(500)] + [-0.0])

    def test_mixed_list(self):
        round_trip([1, 1.0, True, None, "x", [2], {"k": 3}])

    def test_big_int_list_falls_back_to_tagged(self):
        round_trip([1, 2**70, 3])

    def test_dict_insertion_order(self):
        tree = {"z": 1, "a": 2, "m": {"q": 1, "b": 2}}
        rebuilt = round_trip(tree)
        assert json.dumps(rebuilt) == json.dumps(tree)

    def test_unencodable_type_rejected(self):
        with pytest.raises(ValueError):
            encode_tree({"x": object()})

    def test_shared_list_decodes_as_two_lists(self):
        # JSON has no aliasing; marshal formats >= 3 would keep it.
        shared = [1, 2]
        rebuilt = round_trip({"a": shared, "b": shared})
        assert rebuilt["a"] is not rebuilt["b"]


def random_tree(rng, depth=0):
    """One random JSON-safe tree; leans numeric like real artifacts."""
    roll = rng.random()
    if depth >= 4 or roll < 0.55:
        return rng.choice([
            lambda: None,
            lambda: rng.random() < 0.5,
            lambda: rng.randint(-(2**70), 2**70),
            lambda: rng.randint(-(2**31), 2**31),
            lambda: rng.uniform(-1e12, 1e12),
            lambda: rng.choice([0.0, -0.0, float("inf"), 1e-300]),
            lambda: "".join(
                rng.choice("abc µ∆ xyz_0123") for _ in range(rng.randrange(12))
            ),
        ])()
    if roll < 0.70:  # homogeneous numeric list (timeline-shaped)
        n = rng.randrange(30)
        if rng.random() < 0.5:
            return [rng.uniform(-1e9, 1e9) for _ in range(n)]
        return [rng.randint(-(2**40), 2**40) for _ in range(n)]
    if roll < 0.85:
        return [random_tree(rng, depth + 1) for _ in range(rng.randrange(8))]
    return {
        f"k{i}_{rng.randrange(100)}": random_tree(rng, depth + 1)
        for i in range(rng.randrange(8))
    }


class TestProperty:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_trees_round_trip(self, seed):
        rng = random.Random(seed)
        tree = random_tree(rng)
        rebuilt = round_trip(tree)
        # Cross-check against the JSON path: both round-trips must agree
        # wherever JSON itself is lossless (i.e. on everything here but
        # non-finite floats, which JSON cannot carry).
        try:
            via_json = json.loads(json.dumps(tree, allow_nan=False))
        except ValueError:
            return
        assert json.dumps(rebuilt, allow_nan=False) == json.dumps(via_json, allow_nan=False)


class TestCorruption:
    def test_truncated_tree(self):
        blob = encode_tree({"a": [1.5] * 10})
        for cut in (0, 1, 5, len(blob) - 1):
            with pytest.raises(CorruptionError):
                decode_tree(blob[:cut])

    def test_trailing_garbage(self):
        with pytest.raises(CorruptionError):
            decode_tree(encode_tree(1) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(CorruptionError):
            decode_tree(struct.pack("<I", 1) + b"\xff")

    def test_payload_not_a_dict(self):
        with pytest.raises(CorruptionError):
            decode_result(MAGIC + bytes([VERSION]) + encode_tree([1]))

    def test_bad_magic(self):
        with pytest.raises(CorruptionError):
            decode_result(b"XXXX\x01" + encode_tree({}))

    def test_bad_version(self):
        blob = bytearray(MAGIC)
        blob.append(VERSION + 1)
        blob += encode_tree({})
        with pytest.raises(CorruptionError):
            decode_result(bytes(blob))


@pytest.fixture(scope="module")
def attributed_result():
    """A schema-2 artifact with timeline + attribution blocks."""
    config = SystemConfig(system="prismdb", layout_code="NNNTQ", seed=7)
    workload = YCSBConfig.read_update(
        50, record_count=400, operation_count=800, seed=7
    )
    return run_experiment(
        config,
        workload,
        label="codec-test",
        sample_interval_ms=0.2,
        attribution=True,
    )


@pytest.fixture(scope="module")
def fleet_result():
    """A merged fleet artifact with the fleet provenance block."""
    config = FleetConfig(
        shards=2,
        tenants=default_tenants(2, keys_per_tenant=600),
        total_operations=2_000,
        seed=3,
        sample_interval_ms=0.5,
    )
    return run_fleet(config, jobs=1)


class TestRunResultRoundTrip:
    def test_attributed_artifact(self, attributed_result):
        rebuilt = decode_result(encode_result(attributed_result))
        assert rebuilt == attributed_result
        assert_exact(attributed_result.to_json(), rebuilt.to_json())

    def test_attributed_artifact_json_bytes_identical(self, attributed_result):
        # The property the fleet digests rely on: the artifact's JSON
        # bytes cannot tell whether the result crossed the binary wire.
        rebuilt = decode_result(encode_result(attributed_result))
        assert (
            json.dumps(rebuilt.to_json(), indent=2)
            == json.dumps(attributed_result.to_json(), indent=2)
        )

    def test_fleet_artifact(self, fleet_result):
        assert fleet_result.fleet, "fixture should carry a fleet block"
        rebuilt = decode_result(encode_result(fleet_result))
        assert rebuilt == fleet_result
        assert_exact(fleet_result.to_json(), rebuilt.to_json())
