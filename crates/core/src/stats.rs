//! Engine-level statistics: the write-stall and compaction counters the
//! paper's evaluation reports alongside the env's I/O counters.

use std::sync::atomic::{AtomicU64, Ordering};

use bolt_common::histogram::Histogram;

/// Cumulative engine counters (all monotonically increasing).
#[derive(Debug, Default)]
pub struct DbStats {
    flushes: AtomicU64,
    compactions: AtomicU64,
    settled_moves: AtomicU64,
    trivial_moves: AtomicU64,
    seek_compactions: AtomicU64,
    compaction_input_bytes: AtomicU64,
    compaction_output_bytes: AtomicU64,
    /// Spans planned over merged compaction inputs (one read each).
    compaction_spans: AtomicU64,
    /// Compaction input reads issued (one per span read).
    compaction_reads: AtomicU64,
    /// Bytes those reads returned.
    compaction_read_bytes: AtomicU64,
    flush_bytes: AtomicU64,
    /// Writer slept 1 ms because of the L0SlowDown governor.
    slowdowns: AtomicU64,
    /// Writer blocked (memtable full with imm pending, or L0Stop).
    stalls: AtomicU64,
    stall_nanos: AtomicU64,
    user_bytes_written: AtomicU64,
    /// Commit groups formed by the write pipeline (one WAL record each).
    write_groups: AtomicU64,
    /// Writer batches committed through groups (= batches accepted).
    group_batches: AtomicU64,
    /// WAL durability barriers actually issued on the write path.
    wal_syncs: AtomicU64,
    /// Sync requests answered by another batch's barrier in the same group.
    wal_syncs_elided: AtomicU64,
    /// Values routed to the value log instead of the memtable.
    vlog_values_separated: AtomicU64,
    /// Value payload bytes appended to value-log segments.
    vlog_bytes_written: AtomicU64,
    /// Point reads and iterator steps that resolved a value pointer.
    vlog_resolves: AtomicU64,
    /// Dead value bytes reported to the liveness ledger by compactions.
    vlog_dead_bytes: AtomicU64,
    /// Fully dead value-log segments whose files were retired.
    vlog_segments_retired: AtomicU64,
    /// Ranged tombstones accepted by `delete_range`.
    range_deletes: AtomicU64,
    /// Consistent checkpoints successfully acked.
    checkpoints: AtomicU64,
    /// Nanoseconds each writer spent queued before its group committed
    /// (leaders record their wait for leadership; followers their wait for
    /// the leader's result).
    queue_wait: Histogram,
}

/// Point-in-time copy of [`DbStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStatsSnapshot {
    /// MemTable flushes completed.
    pub flushes: u64,
    /// Compactions completed (excluding flushes).
    pub compactions: u64,
    /// Logical tables promoted by settled compaction (no rewrite).
    pub settled_moves: u64,
    /// Tables promoted by LevelDB-style trivial moves.
    pub trivial_moves: u64,
    /// Compactions triggered by wasted seeks.
    pub seek_compactions: u64,
    /// Bytes read into compactions.
    pub compaction_input_bytes: u64,
    /// Bytes written by compactions.
    pub compaction_output_bytes: u64,
    /// Spans planned over merged compaction inputs: maximal stretches of a
    /// run's victims adjacent in one file, capped at
    /// [`crate::iterator::COMPACTION_SPAN_BYTES`].
    pub compaction_spans: u64,
    /// Compaction input reads issued; each reads one whole span, so this
    /// never exceeds `compaction_spans`.
    pub compaction_reads: u64,
    /// Bytes the compaction input reads returned (every merged input byte
    /// once: equals `compaction_input_bytes` when no compaction failed).
    pub compaction_read_bytes: u64,
    /// Bytes written by flushes.
    pub flush_bytes: u64,
    /// L0SlowDown 1 ms sleeps.
    pub slowdowns: u64,
    /// Full write stalls.
    pub stalls: u64,
    /// Total nanoseconds writers spent stalled.
    pub stall_nanos: u64,
    /// Raw user payload bytes accepted by `put`/`delete`.
    pub user_bytes_written: u64,
    /// Commit groups formed by the write pipeline.
    pub write_groups: u64,
    /// Writer batches committed through groups.
    pub group_batches: u64,
    /// WAL durability barriers issued on the write path.
    pub wal_syncs: u64,
    /// Sync requests satisfied by another batch's barrier.
    pub wal_syncs_elided: u64,
    /// Values routed to the value log instead of the memtable.
    pub vlog_values_separated: u64,
    /// Value payload bytes appended to value-log segments.
    pub vlog_bytes_written: u64,
    /// Reads that resolved a value pointer through the value log.
    pub vlog_resolves: u64,
    /// Dead value bytes reported by compactions.
    pub vlog_dead_bytes: u64,
    /// Fully dead value-log segments retired.
    pub vlog_segments_retired: u64,
    /// Ranged tombstones accepted by `delete_range`.
    pub range_deletes: u64,
    /// Consistent checkpoints successfully acked.
    pub checkpoints: u64,
}

impl DbStatsSnapshot {
    /// Write amplification: device bytes per user byte (caller provides
    /// total device bytes, typically from the env's `bytes_written`).
    pub fn write_amplification(&self, device_bytes_written: u64) -> f64 {
        if self.user_bytes_written == 0 {
            0.0
        } else {
            device_bytes_written as f64 / self.user_bytes_written as f64
        }
    }

    /// Average batches merged per commit group (1.0 = no grouping).
    pub fn batches_per_group(&self) -> f64 {
        if self.write_groups == 0 {
            0.0
        } else {
            self.group_batches as f64 / self.write_groups as f64
        }
    }

    /// WAL barriers per committed batch — the foreground analogue of the
    /// paper's barriers-per-compaction metric. Under group commit with
    /// concurrent synced writers this drops below 1.0.
    pub fn wal_syncs_per_batch(&self) -> f64 {
        if self.group_batches == 0 {
            0.0
        } else {
            self.wal_syncs as f64 / self.group_batches as f64
        }
    }
}

macro_rules! counters {
    ($($record:ident / $get:ident => $field:ident),* $(,)?) => {
        $(
            /// Increment the counter by `n`.
            pub fn $record(&self, n: u64) {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }

            /// Read the counter.
            pub fn $get(&self) -> u64 {
                self.$field.load(Ordering::Relaxed)
            }
        )*
    };
}

impl DbStats {
    counters! {
        record_flush / flushes => flushes,
        record_compaction / compactions => compactions,
        record_settled_move / settled_moves => settled_moves,
        record_trivial_move / trivial_moves => trivial_moves,
        record_seek_compaction / seek_compactions => seek_compactions,
        record_compaction_input / compaction_input_bytes => compaction_input_bytes,
        record_compaction_output / compaction_output_bytes => compaction_output_bytes,
        record_compaction_spans / compaction_spans => compaction_spans,
        record_compaction_read / compaction_reads => compaction_reads,
        record_compaction_read_bytes / compaction_read_bytes => compaction_read_bytes,
        record_flush_bytes / flush_bytes => flush_bytes,
        record_slowdown / slowdowns => slowdowns,
        record_stall / stalls => stalls,
        record_stall_nanos / stall_nanos => stall_nanos,
        record_user_bytes / user_bytes_written => user_bytes_written,
        record_write_group / write_groups => write_groups,
        record_group_batches / group_batches => group_batches,
        record_wal_sync / wal_syncs => wal_syncs,
        record_wal_sync_elided / wal_syncs_elided => wal_syncs_elided,
        record_vlog_separated / vlog_values_separated => vlog_values_separated,
        record_vlog_bytes / vlog_bytes_written => vlog_bytes_written,
        record_vlog_resolve / vlog_resolves => vlog_resolves,
        record_vlog_dead_bytes / vlog_dead_bytes => vlog_dead_bytes,
        record_vlog_segment_retired / vlog_segments_retired => vlog_segments_retired,
        record_range_delete / range_deletes => range_deletes,
        record_checkpoint / checkpoints => checkpoints,
    }

    /// Per-writer time-in-queue histogram (nanoseconds).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// Copy all counters.
    pub fn snapshot(&self) -> DbStatsSnapshot {
        DbStatsSnapshot {
            flushes: self.flushes(),
            compactions: self.compactions(),
            settled_moves: self.settled_moves(),
            trivial_moves: self.trivial_moves(),
            seek_compactions: self.seek_compactions(),
            compaction_input_bytes: self.compaction_input_bytes(),
            compaction_output_bytes: self.compaction_output_bytes(),
            compaction_spans: self.compaction_spans(),
            compaction_reads: self.compaction_reads(),
            compaction_read_bytes: self.compaction_read_bytes(),
            flush_bytes: self.flush_bytes(),
            slowdowns: self.slowdowns(),
            stalls: self.stalls(),
            stall_nanos: self.stall_nanos(),
            user_bytes_written: self.user_bytes_written(),
            write_groups: self.write_groups(),
            group_batches: self.group_batches(),
            wal_syncs: self.wal_syncs(),
            wal_syncs_elided: self.wal_syncs_elided(),
            vlog_values_separated: self.vlog_values_separated(),
            vlog_bytes_written: self.vlog_bytes_written(),
            vlog_resolves: self.vlog_resolves(),
            vlog_dead_bytes: self.vlog_dead_bytes(),
            vlog_segments_retired: self.vlog_segments_retired(),
            range_deletes: self.range_deletes(),
            checkpoints: self.checkpoints(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = DbStats::default();
        stats.record_flush(1);
        stats.record_compaction(2);
        stats.record_settled_move(3);
        stats.record_stall_nanos(500);
        stats.record_user_bytes(1000);
        let snap = stats.snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.compactions, 2);
        assert_eq!(snap.settled_moves, 3);
        assert_eq!(snap.stall_nanos, 500);
        assert_eq!(snap.user_bytes_written, 1000);
    }

    #[test]
    fn group_commit_ratios() {
        let stats = DbStats::default();
        stats.record_write_group(10);
        stats.record_group_batches(40);
        stats.record_wal_sync(10);
        stats.record_wal_sync_elided(30);
        stats.queue_wait().record(1_000);
        let snap = stats.snapshot();
        assert!((snap.batches_per_group() - 4.0).abs() < 1e-9);
        assert!((snap.wal_syncs_per_batch() - 0.25).abs() < 1e-9);
        assert_eq!(stats.queue_wait().count(), 1);
        // Empty snapshots divide safely.
        let empty = DbStatsSnapshot::default();
        assert_eq!(empty.batches_per_group(), 0.0);
        assert_eq!(empty.wal_syncs_per_batch(), 0.0);
    }

    #[test]
    fn write_amplification() {
        let stats = DbStats::default();
        stats.record_user_bytes(100);
        let snap = stats.snapshot();
        assert!((snap.write_amplification(350) - 3.5).abs() < 1e-9);
        let empty = DbStatsSnapshot::default();
        assert_eq!(empty.write_amplification(100), 0.0);
    }
}
