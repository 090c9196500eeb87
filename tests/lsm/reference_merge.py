"""The record-domain compaction merge, kept as the oracle for the engine's.

This is the merge ``CompactionExecutor`` ran before it worked on encoded
spans: every input table is decoded into ``Record`` objects
(``read_all_records``), ``merge_sorted_lists`` orders them, survivors
are re-encoded through ``SSTableBuilder.add``. It overrides only the
merge body — budgeting, ``begin_job``, installation and job accounting
are the engine's — so run on a twin it must produce byte-identical
files and the same stats, which the registry series read.
``tests/lsm/test_encoded_merge.py`` holds the twins together.

``write_per_record`` is the other half of the spec: the engine's former
emit loop — one ``SSTableBuilder.add_encoded`` per record, the block and
file rules asked after every record — which the bulk cut plan
(``plan_files`` + ``add_encoded_blocks``) must reproduce byte for byte.
"""

from repro.lsm.compaction import CompactionExecutor, tally
from repro.lsm.iterators import merge_sorted_lists
from repro.lsm.record import ValueKind


class ReferenceExecutor(CompactionExecutor):
    """``CompactionExecutor`` with the record-domain merge body."""

    def _read_records(self, tables, level):
        sources = []
        tally(self.stats.per_level_read_bytes, level, 0)  # the series exists with no input
        for table in tables:
            records = table.read_all_records()
            tally(self.stats.per_level_read_bytes, level, table.size_bytes)
            self.stats.records_in += len(records)
            sources.append(records)
        return sources

    def _merge_spans(self, job, router):
        upper_level, lower_level = job.upper_level, job.lower_level
        route_up_key = router.route_up_key if router is not None else None
        sources = self._read_records(job.upper_inputs, upper_level)
        upper_ids = {id(record) for records in sources for record in records}
        records = self.stats.records
        tally(records, "pinned", 0)
        if job.style == "leveled":  # reports the series even with no inputs
            sources += self._read_records(job.lower_inputs, lower_level)
            tally(records, "pulled_up", 0)
        tally(records, "tombstone_dropped", 0)

        upper_writer = _RecordWriter(self, upper_level)
        lower_writer = _RecordWriter(self, lower_level)
        last_key = None
        for record in merge_sorted_lists(sources):
            # The first record per user key (internal order) is the
            # newest version; older ones are shadowed.
            if record.user_key == last_key:
                self.stats.shadowed_dropped += 1
                continue
            last_key = record.user_key
            from_upper = id(record) in upper_ids
            routed = route_up_key is not None and route_up_key(
                record.user_key,
                0 if record.kind is ValueKind.DELETE else 1,
                record.encoded_size(),
                upper_level if from_upper else lower_level,
            )
            # §4.4: up-routing only inside the upper input range (L0
            # overlaps anyway). Asked after the router, whose own
            # bookkeeping has then already counted the record.
            if routed and (upper_level == 0 or job.upper_lo <= record.user_key <= job.upper_hi):
                tally(records, "pinned" if from_upper else "pulled_up")
                upper_writer.add(record)
            elif job.drop_tombstones and record.kind is ValueKind.DELETE:
                tally(records, "tombstone_dropped")
            else:
                lower_writer.add(record)
        return upper_writer.finish(), lower_writer.finish()


class _RecordWriter:
    """Rotates ``SSTableBuilder``s at the target file size for one level."""

    def __init__(self, executor, level):
        self._executor = executor
        self._level = level
        self._builder = None
        self._tables = []

    def add(self, record):
        if self._builder is None:
            self._builder = self._executor.make_builder(self._level)
        self._builder.add(record)
        self._executor.stats.records_out += 1
        if self._builder.should_finish():
            self.finish()

    def finish(self):
        if self._builder is not None:
            table = self._builder.finish()
            self._executor.stats.bytes_written += table.size_bytes
            self._executor.note_level_write(self._level, table.size_bytes)
            self._tables.append(table)
            self._builder = None
        return self._tables


def write_per_record(make_builder, keys, seqnos, kinds, buf, starts, ends):
    """Emit encoded records one at a time; returns the finished tables.

    The cut rules in their defining form: ``add_encoded`` rotates the
    block once ``2 + sum(4 + size) >= block_bytes``; the file closes
    once ``should_finish()`` — closed blocks plus the open one reach
    ``target_file_bytes`` — possibly in the middle of a block.
    """
    tables = []
    builder = None
    for key, seqno, kind, start, end in zip(keys, seqnos, kinds, starts, ends):
        if builder is None:
            builder = make_builder()
        builder.add_encoded(key, seqno, kind, buf, start, end)
        if builder.should_finish():
            tables.append(builder.finish())
            builder = None
    if builder is not None:
        tables.append(builder.finish())
    return tables


def use_reference_merge(db):
    """Swap ``db``'s executor to the record-domain merge.

    The subclass adds no state, so re-classing the live executor keeps
    its manifest, stats and registry (and any lane that already cached
    ``maybe_compact``) intact.
    """
    db.executor.__class__ = ReferenceExecutor
