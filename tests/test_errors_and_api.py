"""Tests for the exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigError",
            "StorageError",
            "CapacityError",
            "CorruptionError",
            "DBClosedError",
            "CompactionError",
        ):
            exc_type = getattr(errors, name)
            assert issubclass(exc_type, errors.ReproError), name

    def test_storage_sub_hierarchy(self):
        assert issubclass(errors.CapacityError, errors.StorageError)

    def test_catchall_works(self):
        with pytest.raises(errors.ReproError):
            raise errors.CapacityError("full")


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_headline_symbols_importable(self):
        for name in (
            "PrismDB",
            "PrismOptions",
            "RocksDBLike",
            "MutantDB",
            "LsmDB",
            "DBOptions",
            "options_for_db_size",
            "build_layout",
            "YCSBConfig",
            "YCSBWorkload",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__

    def test_quickstart_from_docstring_works(self):
        from repro import PrismDB, PrismOptions, options_for_db_size

        options = options_for_db_size(20_000 * 130)
        db = PrismDB.create("NNNTQ", options, PrismOptions.for_keyspace(20_000))
        db.put(b"key", b"value")
        assert db.get(b"key").value == b"value"

    def test_subpackages_have_docstrings(self):
        import repro.analysis
        import repro.baselines
        import repro.bench
        import repro.common
        import repro.core
        import repro.lsm
        import repro.storage
        import repro.workloads

        for module in (
            repro,
            repro.analysis,
            repro.baselines,
            repro.bench,
            repro.common,
            repro.core,
            repro.lsm,
            repro.storage,
            repro.workloads,
        ):
            assert module.__doc__, module.__name__

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
