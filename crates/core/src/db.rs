//! The database: write path with group sequencing and L0 governors,
//! a single background thread for flushes and compactions (as in stock
//! LevelDB), point lookups, range iterators, snapshots, and recovery.
//!
//! The compaction executor is where the paper's mechanisms act:
//!
//! * **Stock styles** write each output table to its own file and pay one
//!   `fsync` per table plus one for the MANIFEST (Fig 3a).
//! * **BoLT** streams every output table of a compaction into one
//!   *compaction file* and pays exactly two barriers — one for the file,
//!   one for the MANIFEST (Fig 3b) — regardless of how many logical
//!   SSTables were produced.
//! * **Settled compaction** promotes zero-overlap victims with a pure
//!   MANIFEST edit; their bytes never move.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sync::{named_mutex, Condvar, Mutex, MutexGuard};

use bolt_common::cache::LruCache;
use bolt_common::events::{BarrierCause, BarrierScope, EngineEvent, EventSink, TraceEvent};
use bolt_common::{Error, Result};
use bolt_env::Env;
use bolt_table::cache::TableCache;
use bolt_table::comparator::{Comparator, InternalKeyComparator};
use bolt_table::ikey::{parse_internal_key, SequenceNumber, ValueType};
use bolt_table::rangedel::RangeTombstoneSet;
use bolt_table::{BlockCache, BuiltTable, TableBuilder, TableReadOptions};
use bolt_wal::{LogReader, LogWriter};

use crate::batch::WriteBatch;
use crate::compaction::{
    clusters, needs_compaction, pick_compaction, run_layout_for, CompactionReason, CompactionTask,
    DropFilter, OutputShape,
};
use crate::filename::{current_file, log_file, parse_file_name, table_file, vlog_file, FileType};
use crate::iterator::{DbIter, InternalIterator, MergingIter, RunIter, UpTo, ValueResolver};
use crate::memtable::{LookupResult, MemTable};
use crate::metrics::{CacheMetrics, MetricsSnapshot, QueueWaitSummary};
use crate::options::{Options, ReadOptions, WriteOptions};
use crate::stats::DbStats;
use crate::txn::{self, ShardTxnMarker, TxnWalRecord};
use crate::version::{RunLayout, TableMeta, Version, VersionEdit};
use crate::versions::{RangeSet, VersionSet};
use crate::vlog::{self, ValuePointer, VlogWriter};

/// A writer queued for group commit. All fields except `sync` are mutated
/// only while holding the main `state` mutex; `done`/`result` are *read* by
/// the owning writer after it observes `done`, which the completing leader
/// publishes with release ordering.
struct WriterSlot {
    /// Whether this batch asked for a WAL durability barrier.
    sync: bool,
    /// What the slot commits. Normal batches merge into groups; the two
    /// transaction phases are WAL-exclusive and always commit alone.
    op: SlotOp,
    /// The pending batch; taken by the leader when merged into a group.
    batch: Mutex<Option<WriteBatch>>,
    /// Encoded size of the pending batch (readable without locking `batch`).
    batch_bytes: usize,
    /// Set (with release ordering) once the group containing this batch
    /// committed or failed.
    done: AtomicBool,
    /// The batch's individual outcome, filled in by the leader.
    result: Mutex<Option<Result<()>>>,
}

/// The operation a queued [`WriterSlot`] performs when it leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotOp {
    /// An ordinary batch, mergeable into a commit group.
    Write,
    /// Stage a cross-shard slice: synced WAL record, no memtable effect.
    TxnPrepare(ShardTxnMarker),
    /// Apply a staged slice: memtable insert plus an unsynced position
    /// marker, no new payload bytes in the WAL.
    TxnApply { txn_id: u64 },
}

impl WriterSlot {
    fn new(batch: WriteBatch, sync: bool) -> Self {
        WriterSlot {
            sync,
            op: SlotOp::Write,
            batch_bytes: batch.approximate_size(),
            batch: named_mutex("core.writer_batch", Some(batch)),
            done: AtomicBool::new(false),
            result: named_mutex("core.writer_result", None),
        }
    }

    /// A prepare slot. Always syncs: a prepare that is not durable when
    /// the coordinator decides would let a crash half-apply the batch.
    fn new_txn_prepare(marker: ShardTxnMarker, payload: WriteBatch) -> Self {
        WriterSlot {
            op: SlotOp::TxnPrepare(marker),
            ..WriterSlot::new(payload, true)
        }
    }

    fn new_txn_apply(txn_id: u64) -> Self {
        WriterSlot {
            op: SlotOp::TxnApply { txn_id },
            ..WriterSlot::new(WriteBatch::new(), false)
        }
    }

    /// Publish this writer's outcome and mark it done.
    fn complete(&self, result: Result<()>) {
        *self.result.lock() = Some(result);
        self.done.store(true, Ordering::Release);
    }

    fn take_result(&self) -> Result<()> {
        self.result.lock().take().unwrap_or(Ok(()))
    }
}

/// Wrap a fresh WAL file: tag its barriers `wal_commit` by default (an
/// explicit operation scope like `wal_close` still overrides). With
/// `debug_locks`, additionally arm the writer's assertion that log I/O
/// never runs while this thread holds the engine state lock — the runtime
/// counterpart of lint rule L1 (guard-across-barrier).
fn new_wal_writer(file: Box<dyn bolt_env::WritableFile>) -> LogWriter {
    let mut wal = LogWriter::new(file);
    wal.set_barrier_cause(BarrierCause::WalCommit);
    #[cfg(feature = "debug_locks")]
    wal.forbid_lock_during_io("core.state");
    wal
}

/// Mutable engine state guarded by the main mutex.
struct DbState {
    mem: Arc<MemTable>,
    imm: Option<Arc<MemTable>>,
    /// The active WAL. `None` *only* while a group-commit leader holds it
    /// outside the mutex for the append/sync/apply phase; anything that
    /// would switch or sync the WAL (memtable switch, close) must wait for
    /// it to return.
    wal: Option<LogWriter>,
    wal_number: u64,
    /// The active value-log writer. `None` until the first separated write
    /// creates a segment lazily — and, like `wal`, while a group-commit
    /// leader holds it outside the mutex (leaders take both together, so
    /// whenever `wal` is restored the value log is too).
    vlog: Option<VlogWriter>,
    /// WAL number that made the current `imm` obsolete once flushed.
    imm_log_boundary: u64,
    /// Sequence number captured at the switch that produced the current
    /// `imm`: every write at or below it is in `imm` or older tables, and
    /// every write above it is in `mem`.
    imm_seq_boundary: SequenceNumber,
    /// Sequence boundary of the newest *completed* flush: the installed
    /// version is exactly the write prefix at this sequence (plus nothing
    /// newer). Checkpoints pin this together with the version.
    flushed_seq_boundary: SequenceNumber,
    bg_error: Option<Error>,
    bg_busy: bool,
    seek_candidate: Option<(usize, Arc<TableMeta>)>,
    snapshots: Vec<SequenceNumber>,
    /// Pending manual compaction: (level, begin user key, end user key).
    manual: Option<(usize, Vec<u8>, Vec<u8>)>,
    /// Completion counter for manual compactions.
    manual_done: u64,
    /// Group-commit queue: the front writer is the leader and commits on
    /// behalf of as many followers as fit under the group byte cap.
    writers: VecDeque<Arc<WriterSlot>>,
    /// Prepared-but-unapplied cross-shard slices, keyed by transaction id.
    /// Each entry pins its WAL file (see [`DbState::min_pending_txn_log`]):
    /// the prepare record is the slice's only durable copy until the apply
    /// lands in a flushed memtable.
    pending_txns: HashMap<u64, PendingTxn>,
}

/// A staged cross-shard slice awaiting the coordinator's decision.
struct PendingTxn {
    /// The operations, exactly as carried by the WAL prepare record.
    payload: WriteBatch,
    /// WAL file holding the prepare record; obsolete-log deletion must not
    /// advance past it while the prepare is the slice's only durable copy.
    log_number: u64,
    /// WAL era the apply landed in, once it has. The pin holds until the
    /// log floor passes this era — the `Applied` marker carries only the
    /// sequence, so until the memtable the slice went into is flushed, the
    /// prepare record is still the only place the bytes live.
    applied_in: Option<u64>,
}

impl DbState {
    /// Oldest WAL file still referenced by a pending transaction.
    fn min_pending_txn_log(&self) -> Option<u64> {
        self.pending_txns.values().map(|t| t.log_number).min()
    }

    /// Drop applied entries whose slice is now durable in SSTables (the
    /// log floor passed their apply era), releasing their WAL pins.
    fn prune_applied_txns(&mut self, log_floor: u64) {
        self.pending_txns
            .retain(|_, t| t.applied_in.is_none_or(|era| era >= log_floor));
    }
}

struct DbInner {
    env: Arc<dyn Env>,
    name: String,
    opts: Options,
    icmp: InternalKeyComparator,
    table_cache: Arc<TableCache>,
    #[allow(dead_code)] // shared into TableReadOptions; kept for stats access
    block_cache: Arc<BlockCache>,
    state: Mutex<DbState>,
    versions: Mutex<VersionSet>,
    work_cv: Condvar,
    done_cv: Condvar,
    /// Wakes queued writers when leadership rotates or a group completes,
    /// and WAL waiters when an in-flight group returns the log.
    writers_cv: Condvar,
    last_sequence: AtomicU64,
    l0_runs: AtomicUsize,
    has_imm: AtomicBool,
    shutdown: AtomicBool,
    stats: Arc<DbStats>,
    /// Structured-event destination, shared with the env's `IoStats` (which
    /// emits every barrier into it) and the version set (MANIFEST commits).
    sink: Arc<EventSink>,
    /// Monotonic flush ids pairing `FlushBegin`/`FlushEnd` events.
    flush_ids: AtomicU64,
    /// Monotonic compaction ids pairing `CompactionBegin`/`CompactionEnd`.
    compaction_ids: AtomicU64,
    /// Transactions the coordinator decided to commit, as known at open
    /// (read from the sharding layer's coordinator log), mapped to their
    /// decide order. Consulted only during WAL recovery, which replays
    /// markerless decided slices in that order.
    committed_txns: HashMap<u64, u64>,
    /// Highest transaction id seen in this shard's WALs during recovery;
    /// the sharding layer seeds its id allocator above it.
    recovered_max_txn: AtomicU64,
}

/// A consistent read view. Dropping it releases the sequence for
/// compaction garbage collection.
pub struct Snapshot {
    seq: SequenceNumber,
    inner: std::sync::Weak<DbInner>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("seq", &self.seq).finish()
    }
}

impl Snapshot {
    /// The sequence number this snapshot reads at.
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.upgrade() {
            let mut state = inner.state.lock();
            if let Some(pos) = state.snapshots.iter().position(|&s| s == self.seq) {
                state.snapshots.remove(pos);
            }
        }
    }
}

/// Per-level shape summary (runs, tables, bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelInfo {
    /// Number of sorted runs.
    pub runs: usize,
    /// Number of logical tables.
    pub tables: usize,
    /// Total bytes.
    pub bytes: u64,
}

/// A BoLT/LevelDB-family key-value store.
///
/// ```
/// use bolt_core::{Db, Options};
/// use bolt_env::MemEnv;
/// use std::sync::Arc;
///
/// # fn main() -> bolt_common::Result<()> {
/// let env: Arc<dyn bolt_env::Env> = Arc::new(MemEnv::new());
/// let db = Db::open(env, "demo-db", Options::bolt())?;
/// db.put(b"key", b"value")?;
/// assert_eq!(db.get(b"key")?, Some(b"value".to_vec()));
/// db.close()?;
/// # Ok(())
/// # }
/// ```
pub struct Db {
    inner: Arc<DbInner>,
    bg: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db")
            .field("name", &self.inner.name)
            .finish()
    }
}

impl Db {
    /// Open (creating or recovering) the database in directory `name`.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env and corruption errors from
    /// recovery.
    pub fn open(env: Arc<dyn Env>, name: &str, opts: Options) -> Result<Db> {
        Db::open_with_committed_txns(env, name, opts, Vec::new())
    }

    /// Open with the cross-shard transactions the coordinator committed
    /// (from the sharding layer's decide log), **in decide order**. WAL
    /// recovery applies prepared slices of committed transactions — using
    /// the decide order when their position markers were lost — and drops
    /// undecided ones; a plain [`Db::open`] passes the empty list.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from the env and corruption errors from
    /// recovery.
    pub fn open_with_committed_txns(
        env: Arc<dyn Env>,
        name: &str,
        opts: Options,
        committed_txns: Vec<u64>,
    ) -> Result<Db> {
        let committed_txns: HashMap<u64, u64> = committed_txns
            .into_iter()
            .enumerate()
            .map(|(ord, id)| (id, ord as u64))
            .collect();
        opts.validate()?;
        env.create_dir_all(name)?;
        let icmp = InternalKeyComparator::default();
        let block_cache: Arc<BlockCache> = Arc::new(LruCache::new(opts.block_cache_bytes));
        let read_opts = TableReadOptions {
            comparator: Arc::new(icmp.clone()),
            filter_policy: opts.filter_policy,
            filter_key: bolt_table::FilterKey::UserKey,
            block_cache: Some(Arc::clone(&block_cache)),
        };
        let fd_cache = opts
            .bolt_options()
            .filter(|b| b.fd_cache)
            .map(|_| opts.fd_cache_files);
        let table_cache = Arc::new(TableCache::new(
            Arc::clone(&env),
            opts.max_open_files,
            fd_cache,
            read_opts,
        ));

        // Install the event sink before any recovery I/O so even the
        // barriers paid while opening are traced and cause-attributed.
        let sink = Arc::new(EventSink::new());
        env.stats().set_event_sink(Arc::clone(&sink));

        let mut versions = VersionSet::new(Arc::clone(&env), name, icmp.clone(), opts.num_levels);
        versions.set_event_sink(Arc::clone(&sink));
        // Pin the policy before the MANIFEST exists (create) or is replayed
        // (recover): a fresh database records it, an existing one refuses a
        // mismatch.
        versions.set_compaction_policy(
            opts.compaction_policy,
            crate::compaction::run_layout_for(&opts),
        );
        let is_new = !env.file_exists(&current_file(name));
        if is_new {
            versions.create_new()?;
        } else {
            versions.recover()?;
        }

        let inner = Arc::new(DbInner {
            env,
            name: name.to_string(),
            opts,
            icmp,
            table_cache,
            block_cache,
            state: named_mutex(
                "core.state",
                DbState {
                    mem: Arc::new(MemTable::new()),
                    imm: None,
                    wal: None,
                    wal_number: 0,
                    vlog: None,
                    imm_log_boundary: 0,
                    imm_seq_boundary: 0,
                    flushed_seq_boundary: 0,
                    bg_error: None,
                    bg_busy: false,
                    seek_candidate: None,
                    snapshots: Vec::new(),
                    manual: None,
                    manual_done: 0,
                    writers: VecDeque::new(),
                    pending_txns: HashMap::new(),
                },
            ),
            versions: named_mutex("core.versions", versions),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            writers_cv: Condvar::new(),
            last_sequence: AtomicU64::new(0),
            l0_runs: AtomicUsize::new(0),
            has_imm: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            stats: Arc::new(DbStats::default()),
            sink,
            flush_ids: AtomicU64::new(0),
            compaction_ids: AtomicU64::new(0),
            committed_txns,
            recovered_max_txn: AtomicU64::new(0),
        });

        inner.recover_wals()?;
        inner.start_fresh_wal()?;
        inner.delete_obsolete_files();
        inner.refresh_shape_hints();

        let bg = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("bolt-background".into())
                .spawn(move || {
                    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe({
                        let inner = Arc::clone(&inner);
                        move || inner.background_loop()
                    }));
                    if let Err(payload) = panic {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "background thread panicked".into());
                        let mut state = inner.state.lock();
                        state.bg_error =
                            Some(Error::InvalidState(format!("background panic: {message}")));
                        state.bg_busy = false;
                        inner.done_cv.notify_all();
                    }
                })
                .map_err(Error::io)?
        };

        Ok(Db {
            inner,
            bg: named_mutex("core.bg", Some(bg)),
        })
    }

    /// Insert or overwrite `key`.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Delete `key`.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch)
    }

    /// Delete every key in `[begin, end)` with one ranged tombstone. The
    /// tombstone rides the group-commit pipeline like any write, costs one
    /// entry regardless of how many keys it covers, and hides only entries
    /// with smaller sequence numbers — snapshots taken before the delete
    /// still see the range.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] when `begin >= end` (empty and
    /// inverted ranges are rejected), plus background and WAL I/O errors.
    pub fn delete_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        if begin >= end {
            return Err(Error::InvalidArgument(
                "delete_range requires begin < end".into(),
            ));
        }
        let mut batch = WriteBatch::new();
        batch.delete_range(begin, end);
        self.write(batch)?;
        self.inner.stats.record_range_delete(1);
        self.inner.sink.emit(EngineEvent::RangeDelete {
            bytes: (begin.len() + end.len()) as u64,
        });
        Ok(())
    }

    /// Apply a batch atomically, with durability per [`Options::sync_wal`].
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(batch, &WriteOptions::default())
    }

    /// Apply a batch atomically with a per-batch durability override.
    ///
    /// Writes go through the group-commit pipeline: the first queued writer
    /// becomes the *leader*, merges the batches of every queued follower (up
    /// to [`Options::group_commit_bytes`]), writes one WAL record and pays
    /// at most one durability barrier for the whole group — outside the
    /// engine mutex — then distributes the per-writer results. A follower's
    /// batch is durable iff the leader's sync covering it completed.
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors.
    pub fn write_opt(&self, batch: WriteBatch, wopts: &WriteOptions) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let inner = &self.inner;
        inner
            .stats
            .record_user_bytes(batch.approximate_size() as u64);
        let sync = wopts.sync.unwrap_or(inner.opts.sync_wal);
        inner.enqueue_and_commit(Arc::new(WriterSlot::new(batch, sync)))
    }

    /// Stage one shard's slice of a cross-shard batch (2PC phase 1): a
    /// synced WAL record, no memtable effect. The slice stays pending until
    /// [`Db::txn_apply`] (commit) or [`Db::txn_forget`] (abort); recovery
    /// resolves a pending slice against the committed set given to
    /// [`Db::open_with_committed_txns`].
    ///
    /// # Errors
    ///
    /// Returns background errors and WAL I/O errors. On error nothing is
    /// staged.
    pub fn txn_prepare(&self, marker: ShardTxnMarker, slice: WriteBatch) -> Result<()> {
        if slice.is_empty() {
            return Err(Error::InvalidArgument(
                "cannot prepare an empty transaction slice".into(),
            ));
        }
        self.inner
            .stats
            .record_user_bytes(slice.approximate_size() as u64);
        self.inner
            .enqueue_and_commit(Arc::new(WriterSlot::new_txn_prepare(marker, slice)))
    }

    /// Apply a staged slice (2PC phase 2), making it visible to readers.
    /// Call only after the coordinator's decide record is durable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] if `txn_id` has no staged slice,
    /// plus background and WAL I/O errors.
    pub fn txn_apply(&self, txn_id: u64) -> Result<()> {
        self.inner
            .enqueue_and_commit(Arc::new(WriterSlot::new_txn_apply(txn_id)))
    }

    /// Drop a staged slice without applying it (2PC abort). A no-op if
    /// `txn_id` has no staged slice or was already applied (an applied
    /// entry still pins its WAL and is released by the flush that covers
    /// it, never by forget).
    pub fn txn_forget(&self, txn_id: u64) {
        let mut state = self.inner.state.lock();
        if state
            .pending_txns
            .get(&txn_id)
            .is_some_and(|t| t.applied_in.is_none())
        {
            state.pending_txns.remove(&txn_id);
        }
    }

    /// Highest cross-shard transaction id seen in this shard's WALs during
    /// recovery (0 if none). The sharding layer seeds its allocator above
    /// the maximum across shards and the coordinator log.
    pub fn recovered_max_txn_id(&self) -> u64 {
        self.inner.recovered_max_txn.load(Ordering::Acquire)
    }

    /// Point lookup at the latest sequence — shorthand for
    /// [`Db::get_opt`] with [`ReadOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_opt(key, &ReadOptions::new())
    }

    /// Point lookup honoring `opts` — the one read entry point everything
    /// else delegates to.
    ///
    /// ```
    /// use bolt_core::{Db, Options, ReadOptions};
    /// use bolt_env::MemEnv;
    /// use std::sync::Arc;
    ///
    /// # fn main() -> bolt_common::Result<()> {
    /// let env: Arc<dyn bolt_env::Env> = Arc::new(MemEnv::new());
    /// let db = Db::open(env, "ro-demo", Options::bolt())?;
    /// db.put(b"k", b"v1")?;
    /// let snap = db.snapshot();
    /// db.put(b"k", b"v2")?;
    /// let ro = ReadOptions::new().with_snapshot(&snap);
    /// assert_eq!(db.get_opt(b"k", &ro)?, Some(b"v1".to_vec()));
    /// assert_eq!(db.get(b"k")?, Some(b"v2".to_vec()));
    /// db.close()?;
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn get_opt(&self, key: &[u8], opts: &ReadOptions<'_>) -> Result<Option<Vec<u8>>> {
        self.inner.get_at(key, opts.snapshot.map(|s| s.seq))
    }

    /// Take a consistent read view.
    pub fn snapshot(&self) -> Snapshot {
        let seq = self.inner.last_sequence.load(Ordering::Acquire);
        let mut state = self.inner.state.lock();
        state.snapshots.push(seq);
        Snapshot {
            seq,
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Iterator over the live keys at the latest sequence — shorthand for
    /// [`Db::iter_opt`] with [`ReadOptions::default`].
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn iter(&self) -> Result<DbIterator> {
        self.iter_opt(&ReadOptions::new())
    }

    /// Iterator honoring `opts` (see [`Db::get_opt`]).
    ///
    /// # Errors
    ///
    /// Returns read errors from the storage substrate.
    pub fn iter_opt(&self, opts: &ReadOptions<'_>) -> Result<DbIterator> {
        DbInner::iter_at(&self.inner, opts.snapshot.map(|s| s.seq))
    }

    /// Force the current memtable to disk and wait for the flush.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn flush(&self) -> Result<()> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        // Wait out any in-flight flush first — switching while an immutable
        // memtable is pending would clobber it — and any in-flight group
        // commit, which owns the WAL and is still inserting into `mem`.
        while (state.imm.is_some() || state.wal.is_none()) && state.bg_error.is_none() {
            if state.imm.is_some() {
                inner.work_cv.notify_one();
                inner.done_cv.wait(&mut state);
            } else {
                inner.writers_cv.wait(&mut state);
            }
        }
        if state.bg_error.is_none() && !state.mem.is_empty() {
            inner.switch_memtable(&mut state)?;
        }
        while state.imm.is_some() && state.bg_error.is_none() {
            inner.work_cv.notify_one();
            inner.done_cv.wait(&mut state);
        }
        match &state.bg_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Block until no flush or compaction work remains.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn compact_until_quiet(&self) -> Result<()> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        loop {
            if let Some(e) = &state.bg_error {
                return Err(e.clone());
            }
            let has_work = state.imm.is_some() || state.bg_busy || {
                let versions = inner.versions.lock();
                needs_compaction(&inner.opts, &versions.current())
            };
            if !has_work {
                return Ok(());
            }
            inner.work_cv.notify_one();
            inner
                .done_cv
                .wait_for(&mut state, Duration::from_millis(50));
        }
    }

    /// Write a consistent, openable copy of the database into `dir` while
    /// reads and writes continue, and return the sequence number the copy
    /// is exact at: the checkpoint's full scan equals this database's scan
    /// at that snapshot.
    ///
    /// The memtable is flushed first, then a `(version, sequence)` pair is
    /// pinned and every SSTable and value-log file the version references
    /// is **hard-linked** (copy fallback for envs without link support)
    /// into `dir` — no data bytes move on a link-capable filesystem. A
    /// snapshot-seeded MANIFEST is written, and CURRENT lands last via
    /// temp-file + atomic rename under a `checkpoint` barrier: a crash at
    /// any earlier point leaves a directory without CURRENT, which is
    /// ignorable garbage (invariant C1).
    ///
    /// While the checkpoint is in progress its pinned version gates
    /// garbage collection; afterwards the linked files are never
    /// hole-punched (the shared inode would corrupt the copy) — they are
    /// reclaimed by whole-file deletion only.
    ///
    /// # Errors
    ///
    /// Returns `InvalidArgument` for an empty target or the database's own
    /// directory, and I/O errors from the env; on error the partial
    /// directory is left for the caller (it has no CURRENT and cannot be
    /// mistaken for a database).
    pub fn checkpoint(&self, dir: &str) -> Result<SequenceNumber> {
        let inner = &self.inner;
        if dir.is_empty() || dir == inner.name {
            return Err(Error::InvalidArgument(format!(
                "checkpoint target `{dir}` must be a directory other than the database's own"
            )));
        }
        // Everything acknowledged before this call reaches SSTables here, so
        // the checkpoint needs no WAL.
        self.flush()?;

        // Pin a consistent (version, sequence) pair. With `imm == None`
        // under the state lock, the installed version is exactly the write
        // prefix at the flushed boundary (an empty memtable tightens it to
        // `last_sequence`: everything acknowledged is flushed).
        let (version, seq, pin, vlog_ledger) = {
            let mut state = inner.state.lock();
            loop {
                if let Some(e) = &state.bg_error {
                    return Err(e.clone());
                }
                if state.imm.is_none() {
                    break;
                }
                inner.work_cv.notify_one();
                inner.done_cv.wait(&mut state);
            }
            let seq = if state.mem.is_empty() {
                inner.last_sequence.load(Ordering::Acquire)
            } else {
                state.flushed_seq_boundary
            };
            let mut versions = inner.versions.lock();
            let version = versions.current();
            // The pin also freezes the per-segment dead-range ledger: the
            // checkpoint MANIFEST must carry the ledger as of this instant,
            // not as of manifest-write time — a compaction committing in
            // between may add dead ranges covering pointers the pinned
            // version still references.
            let (pin, vlog_ledger) = versions.pin_checkpoint(&version);
            (version, seq, pin, vlog_ledger)
        };

        inner.sink.emit(EngineEvent::CheckpointBegin { id: pin });
        let result = inner.do_checkpoint(dir, &version, seq, &vlog_ledger);
        inner.versions.lock().unpin_checkpoint(pin);
        let (tables, files) = result?;
        inner.stats.record_checkpoint(1);
        inner.sink.emit(EngineEvent::CheckpointEnd {
            id: pin,
            tables,
            files,
        });
        Ok(seq)
    }

    /// The current [`Version`] — the logical view of the tree. Useful for
    /// inspection tools and tests; the version is immutable.
    pub fn current_version(&self) -> Arc<Version> {
        self.inner.versions.lock().current()
    }

    /// Approximate on-disk bytes of user keys in `[begin, end)` — the sum
    /// of the sizes of tables whose range intersects it (tables partially
    /// inside are pro-rated at half). Like LevelDB's `GetApproximateSizes`.
    pub fn approximate_size(&self, begin: &[u8], end: &[u8]) -> u64 {
        let version = self.current_version();
        let icmp = &self.inner.icmp;
        let ucmp = icmp.user_comparator();
        let mut total = 0u64;
        for (_, _, table) in version.all_tables() {
            if !table.overlaps(icmp, begin, end) {
                continue;
            }
            let fully_inside = ucmp.compare(table.smallest_user_key(), begin).is_ge()
                && ucmp.compare(table.largest_user_key(), end).is_lt();
            total += if fully_inside {
                table.size
            } else {
                table.size / 2
            };
        }
        total
    }

    /// Compact every level that overlaps the user-key range `[begin, end]`
    /// down one level at a time until no level above the deepest occupied
    /// one overlaps it. The work runs on the background thread (serialized
    /// with automatic compactions); this call blocks until it completes.
    /// Like LevelDB's `CompactRange`.
    ///
    /// # Errors
    ///
    /// Returns background errors.
    pub fn compact_range(&self, begin: &[u8], end: &[u8]) -> Result<()> {
        self.flush()?;
        self.compact_until_quiet()?;
        for level in 0..self.inner.opts.num_levels - 1 {
            loop {
                let overlapping = {
                    let version = self.current_version();
                    !version
                        .overlapping_tables(&self.inner.icmp, level, begin, end)
                        .is_empty()
                };
                if !overlapping {
                    break;
                }
                let mut state = self.inner.state.lock();
                if let Some(e) = &state.bg_error {
                    return Err(e.clone());
                }
                let generation = state.manual_done;
                state.manual = Some((level, begin.to_vec(), end.to_vec()));
                self.inner.work_cv.notify_one();
                while state.manual_done == generation && state.bg_error.is_none() {
                    self.inner.done_cv.wait(&mut state);
                }
                if let Some(e) = &state.bg_error {
                    return Err(e.clone());
                }
            }
        }
        Ok(())
    }

    /// Per-level shape (runs, tables, bytes).
    pub fn level_info(&self) -> Vec<LevelInfo> {
        let versions = self.inner.versions.lock();
        let version = versions.current();
        version
            .levels
            .iter()
            .map(|l| LevelInfo {
                runs: l.num_runs(),
                tables: l.num_tables(),
                bytes: l.size(),
            })
            .collect()
    }

    /// Engine statistics.
    pub fn stats(&self) -> &DbStats {
        &self.inner.stats
    }

    /// One merged observability snapshot: engine counters, env I/O
    /// counters, per-level shape, queue-wait summary, and per-cause
    /// barrier counts — everything the old hand-stitched
    /// `stats()` + `env().stats()` + `level_info()` dance produced, plus
    /// the derived ratios, exportable as JSON or Prometheus text.
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = &self.inner;
        let qw = inner.stats.queue_wait();
        let versions = inner.versions.lock();
        let manifest_recuts = versions.manifest_recuts();
        let manifest_rolls = versions.manifest_rolls();
        let manifest_roll_failures = versions.manifest_roll_failures();
        let manifest_bytes = versions.manifest_bytes();
        let manifest_roll_bound = versions.manifest_roll_bound();
        let range_tombstones_live = versions.current().live_range_tombstones();
        drop(versions);
        let tables = inner.table_cache.stats();
        let (fd_hits, fd_misses) = inner.table_cache.fd_stats();
        MetricsSnapshot {
            db: inner.stats.snapshot(),
            io: inner.env.stats().snapshot(),
            levels: self.level_info(),
            policy: inner.opts.compaction_policy.as_str(),
            queue_wait: QueueWaitSummary {
                count: qw.count(),
                sum: qw.sum(),
                p50: qw.percentile(50.0),
                p95: qw.percentile(95.0),
                p99: qw.percentile(99.0),
                max: qw.max(),
            },
            barriers_by_cause: inner.sink.barrier_counts().to_vec(),
            events_emitted: inner.sink.emitted(),
            events_dropped: inner.sink.dropped(),
            manifest_recuts,
            manifest_rolls,
            manifest_roll_failures,
            manifest_bytes,
            manifest_roll_bound,
            range_tombstones_live,
            cache: CacheMetrics {
                table_hits: tables.hits(),
                table_misses: tables.misses(),
                fd_hits,
                fd_misses,
            },
        }
    }

    /// Drain the structured-event ring: every event emitted since the last
    /// drain, oldest first. If more than the ring capacity accumulated
    /// between drains, the oldest are dropped (counted in
    /// [`MetricsSnapshot::events_dropped`]).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.sink.drain()
    }

    /// The structured-event sink itself, for callers that want to observe
    /// per-cause barrier counters without draining the ring.
    pub fn event_sink(&self) -> &Arc<EventSink> {
        &self.inner.sink
    }

    /// The environment this database runs on.
    pub fn env(&self) -> &Arc<dyn Env> {
        &self.inner.env
    }

    /// The database directory name this instance was opened with.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// TableCache open-count and hit statistics.
    pub fn table_cache(&self) -> &TableCache {
        &self.inner.table_cache
    }

    /// Shut down: stop the background thread. The WAL preserves any
    /// unflushed writes for the next open.
    ///
    /// # Errors
    ///
    /// Returns the background error, if one occurred.
    pub fn close(&self) -> Result<()> {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _state = self.inner.state.lock();
            self.inner.work_cv.notify_all();
            self.inner.done_cv.notify_all();
        }
        if let Some(handle) = self.bg.lock().take() {
            let _ = handle.join();
        }
        // Make the tail of the WAL durable so close() is a clean shutdown.
        // An in-flight group commit owns the WAL outside the lock; wait for
        // it to return the log, then take it ourselves and issue the barrier
        // with the engine mutex released, exactly like a group-commit leader.
        let mut state = self.inner.state.lock();
        while state.wal.is_none() {
            self.inner.writers_cv.wait(&mut state);
        }
        let mut wal = state
            .wal
            .take()
            .expect("WAL present: loop above waited for it"); // bolt-lint: allow(unwrap-in-crash-path)
        let synced = MutexGuard::unlocked(&mut state, || {
            let _scope = BarrierScope::new(BarrierCause::WalClose);
            wal.sync()
        });
        state.wal = Some(wal);
        self.inner.writers_cv.notify_all();
        synced?;
        match &state.bg_error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

/// Owning iterator pinning the version it reads.
pub struct DbIterator {
    inner: DbIter,
    _version: Arc<Version>,
}

impl std::fmt::Debug for DbIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbIterator")
            .field("valid", &self.valid())
            .finish()
    }
}

impl DbIterator {
    /// `true` when positioned on an entry.
    pub fn valid(&self) -> bool {
        self.inner.valid()
    }
    /// Position at the first key.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    pub fn seek_to_first(&mut self) -> Result<()> {
        self.inner.seek_to_first()
    }
    /// Position at the first key >= `user_key`.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    pub fn seek(&mut self, user_key: &[u8]) -> Result<()> {
        self.inner.seek(user_key)
    }
    /// Advance to the next live key.
    ///
    /// # Errors
    ///
    /// Returns read errors.
    #[allow(clippy::should_implement_trait)] // LevelDB-style fallible cursor
    pub fn next(&mut self) -> Result<()> {
        self.inner.next()
    }
    /// Current user key.
    pub fn key(&self) -> &[u8] {
        self.inner.key()
    }
    /// Current value.
    pub fn value(&self) -> &[u8] {
        self.inner.value()
    }
}

impl ValueResolver for DbInner {
    fn resolve(&self, pointer: &[u8]) -> Result<Vec<u8>> {
        self.resolve_pointer(pointer)
    }
}

impl DbInner {
    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Read at `snapshot`, or at the freshest consistent point when `None`.
    ///
    /// Capture order matters: memtables first, then the version, then (for
    /// snapshot-less reads) the sequence. A sequence captured *before* the
    /// version pin could be older than the `smallest_snapshot` of a
    /// concurrently committing compaction, which is allowed to drop entry
    /// versions that such a reader still needs. Explicit [`Snapshot`]s are
    /// registered and respected by compaction instead.
    fn get_at(&self, user_key: &[u8], snapshot: Option<SequenceNumber>) -> Result<Option<Vec<u8>>> {
        let (mem, imm) = {
            let state = self.state.lock();
            (Arc::clone(&state.mem), state.imm.clone())
        };
        let version = self.versions.lock().current();
        let snapshot = snapshot.unwrap_or_else(|| self.last_sequence.load(Ordering::Acquire));
        // Newest range tombstone covering this key, across every source.
        // The first point hit below is the *newest* point entry visible at
        // the snapshot (sources are probed newest-first and each source
        // yields descending sequences), so comparing only that hit against
        // the covering sequence applies every tombstone correctly.
        let mut covering = mem.max_range_del_seq(user_key, snapshot);
        if let Some(imm) = &imm {
            covering = covering.max(imm.max_range_del_seq(user_key, snapshot));
        }
        if version.has_range_tombstones() {
            covering = covering.max(
                version
                    .range_tombstones(&self.table_cache, &self.name)?
                    .max_covering_seq(user_key, snapshot),
            );
        }
        let hide = |seq: SequenceNumber| seq < covering;
        let (found, seq) = mem.get_with_seq(user_key, snapshot);
        match found {
            LookupResult::Value(v) => return Ok((!hide(seq)).then_some(v)),
            LookupResult::Pointer(p) => {
                return if hide(seq) {
                    Ok(None)
                } else {
                    self.resolve_pointer(&p).map(Some)
                };
            }
            LookupResult::Deleted => return Ok(None),
            LookupResult::NotFound => {}
        }
        if let Some(imm) = imm {
            let (found, seq) = imm.get_with_seq(user_key, snapshot);
            match found {
                LookupResult::Value(v) => return Ok((!hide(seq)).then_some(v)),
                LookupResult::Pointer(p) => {
                    return if hide(seq) {
                        Ok(None)
                    } else {
                        self.resolve_pointer(&p).map(Some)
                    };
                }
                LookupResult::Deleted => return Ok(None),
                LookupResult::NotFound => {}
            }
        }
        let got = version.get(
            &self.icmp,
            &self.table_cache,
            &self.name,
            user_key,
            snapshot,
        )?;
        if self.opts.seek_compaction {
            if let Some((level, table)) = got.seek_charge {
                if table.allowed_seeks.fetch_sub(1, Ordering::Relaxed) <= 1 {
                    let mut state = self.state.lock();
                    if state.seek_candidate.is_none() {
                        state.seek_candidate = Some((level, table));
                        self.work_cv.notify_one();
                    }
                }
            }
        }
        if hide(got.sequence) {
            return Ok(None);
        }
        Ok(match got.result {
            LookupResult::Value(v) => Some(v),
            LookupResult::Pointer(p) => Some(self.resolve_pointer(&p)?),
            _ => None,
        })
    }

    /// Fetch the value a separated entry points at.
    fn resolve_pointer(&self, pointer: &[u8]) -> Result<Vec<u8>> {
        let ptr = ValuePointer::decode(pointer)?;
        let value = vlog::read_value(&self.table_cache, &self.name, &ptr)?;
        self.stats.record_vlog_resolve(1);
        Ok(value)
    }

    /// Whether value-log barriers can be ordering-only (BarrierFS-style):
    /// the WAL record that follows is the commit point, so ordering
    /// suffices exactly as it does for table data files.
    fn vlog_ordering_only(&self) -> bool {
        self.opts.use_ordering_barriers && self.env.supports_ordering_barrier()
    }

    /// Rewrite `batch` in place so every value strictly larger than
    /// `threshold` lives in the value log, leaving a fixed-size pointer
    /// behind. Returns `(values_separated, value_bytes_appended)`.
    ///
    /// On error the value log may hold orphaned bytes, but no pointer to
    /// them was written anywhere; the caller poisons the DB, and the dead
    /// bytes are bounded by one group.
    fn separate_large_values(
        &self,
        batch: &mut WriteBatch,
        threshold: u64,
        vlog: &mut Option<VlogWriter>,
        rotations: &mut Vec<u64>,
    ) -> Result<(u64, u64)> {
        // Fast pass: most groups carry no oversized values and must not pay
        // for a rewrite.
        let mut any = false;
        batch.for_each(|vt, _, value| {
            any = any || (vt == ValueType::Value && value.len() as u64 > threshold);
        })?;
        if !any {
            return Ok((0, 0));
        }
        let mut out = WriteBatch::new();
        out.set_sequence(batch.sequence());
        // `for_each` hands out infallible callbacks, so appends park their
        // error here and the rewrite short-circuits to a no-op.
        let mut failed: Option<Error> = None;
        let mut count = 0u64;
        let mut bytes = 0u64;
        batch.for_each(|vt, key, value| {
            if failed.is_some() {
                return;
            }
            match vt {
                ValueType::Value if value.len() as u64 > threshold => {
                    match self.vlog_append(vlog, value, rotations) {
                        Ok(ptr) => {
                            count += 1;
                            bytes += value.len() as u64;
                            out.put_pointer(key, &ptr.encode());
                        }
                        Err(e) => failed = Some(e),
                    }
                }
                ValueType::Value => out.put(key, value),
                ValueType::Deletion => out.delete(key),
                // Already-separated entries (e.g. forwarded by a router)
                // carry their pointer through unchanged.
                ValueType::ValuePointer => out.put_pointer(key, value),
                // A tombstone's "value" is its exclusive end key, never a
                // user payload — separation must not touch it.
                ValueType::RangeTombstone => out.delete_range(key, value),
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        *batch = out;
        Ok((count, bytes))
    }

    /// Append one value to the active segment, rotating to a fresh one
    /// when it is full. Rotation barriers the old writer *before* sealing
    /// so its tail satisfies invariant V1, then seals its final size in
    /// the liveness ledger.
    fn vlog_append(
        &self,
        vlog: &mut Option<VlogWriter>,
        value: &[u8],
        rotations: &mut Vec<u64>,
    ) -> Result<ValuePointer> {
        let rotate = vlog.as_ref().is_some_and(|w| {
            w.written() > 0 && w.written() + value.len() as u64 > self.opts.vlog_segment_bytes
        });
        if rotate {
            // bolt-lint: allow(unwrap-in-crash-path) -- guarded just above.
            let mut old = vlog.take().expect("active vlog writer");
            {
                let _scope = BarrierScope::new(BarrierCause::VlogData);
                old.barrier(self.vlog_ordering_only())?;
            }
            self.versions
                .lock()
                .seal_vlog_segment(old.file_number(), old.written());
        }
        if vlog.is_none() {
            let number = {
                let mut versions = self.versions.lock();
                let number = versions.new_file_number();
                versions.register_vlog_segment(number);
                number
            };
            *vlog = Some(VlogWriter::create(self.env.as_ref(), &self.name, number)?);
            rotations.push(number);
        }
        // bolt-lint: allow(unwrap-in-crash-path) -- populated just above.
        vlog.as_mut().expect("vlog writer").append(value)
    }

    // Associated fn (not a method): the iterator needs an owned
    // `Arc<dyn ValueResolver>` clone of the handle, and `self: &Arc<Self>`
    // receivers are not stable Rust.
    fn iter_at(inner: &Arc<DbInner>, snapshot: Option<SequenceNumber>) -> Result<DbIterator> {
        let (mem, imm) = {
            let state = inner.state.lock();
            (Arc::clone(&state.mem), state.imm.clone())
        };
        let version = inner.versions.lock().current();
        // See `get_at` for why the sequence is captured after the version.
        let snapshot = snapshot.unwrap_or_else(|| inner.last_sequence.load(Ordering::Acquire));
        let mut children: Vec<Box<dyn InternalIterator>> = Vec::new();
        children.push(Box::new(mem.iter()));
        if let Some(imm) = &imm {
            children.push(Box::new(imm.iter()));
        }
        for level in &version.levels {
            for run in &level.runs {
                children.push(Box::new(RunIter::new(
                    inner.icmp.clone(),
                    Arc::clone(&inner.table_cache),
                    inner.name.clone(),
                    run.tables.clone(),
                )));
            }
        }
        let merged = MergingIter::new(inner.icmp.clone(), children);
        // The overlay aggregates every source the iterator reads: table
        // tombstones (via the version's cached set) plus both memtables'.
        let mut tombstones = if version.has_range_tombstones() {
            version
                .range_tombstones(&inner.table_cache, &inner.name)?
                .raw()
                .to_vec()
        } else {
            Vec::new()
        };
        tombstones.extend(mem.range_tombstones());
        if let Some(imm) = &imm {
            tombstones.extend(imm.range_tombstones());
        }
        // Always attach the resolver: the store may hold pointers written
        // under an earlier configuration even if separation is off now.
        let resolver = Arc::clone(inner) as Arc<dyn ValueResolver>;
        Ok(DbIterator {
            inner: DbIter::new(inner.icmp.clone(), merged, snapshot)
                .with_resolver(resolver)
                .with_tombstones(Arc::new(RangeTombstoneSet::build(tombstones))),
            _version: version,
        })
    }

    // ------------------------------------------------------------------
    // Write path: group commit + governors + memtable switching
    // ------------------------------------------------------------------

    /// Queue `slot` and wait until it is committed by a leader or becomes
    /// the leader itself — the single entry point for everything that
    /// needs the WAL exclusively (batches and both transaction phases),
    /// since leaders take the log without waiting and exclusion is purely
    /// structural via queue position.
    fn enqueue_and_commit(&self, slot: Arc<WriterSlot>) -> Result<()> {
        let enqueued = Instant::now();
        let mut state = self.state.lock();
        state.writers.push_back(Arc::clone(&slot));
        while !slot.done.load(Ordering::Acquire)
            // Our slot was pushed above and only the leader dequeues, so the
            // queue cannot be empty here.
            // bolt-lint: allow(unwrap-in-crash-path)
            && !Arc::ptr_eq(state.writers.front().expect("queue non-empty"), &slot)
        {
            self.writers_cv.wait(&mut state);
        }
        self.stats
            .queue_wait()
            .record(enqueued.elapsed().as_nanos() as u64);
        if slot.done.load(Ordering::Acquire) {
            // A leader committed (or failed) this batch on our behalf.
            return slot.take_result();
        }
        match slot.op {
            SlotOp::Write => self.group_commit(&mut state, &slot),
            SlotOp::TxnPrepare(..) | SlotOp::TxnApply { .. } => {
                let result = self.txn_commit(&mut state, &slot);
                state.writers.pop_front();
                self.writers_cv.notify_all();
                result
            }
        }
    }

    /// Run a transaction phase as a group of one. The leader protocol is
    /// the same as [`DbInner::group_commit`]: take the WAL, do the I/O
    /// outside the state mutex, restore the WAL.
    fn txn_commit(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        leader: &Arc<WriterSlot>,
    ) -> Result<()> {
        if let Some(e) = &state.bg_error {
            return Err(e.clone());
        }
        match leader.op {
            SlotOp::TxnPrepare(marker) => {
                // A slot's batch is taken exactly once, by its leader.
                // bolt-lint: allow(unwrap-in-crash-path)
                let payload = leader.batch.lock().take().expect("prepare slice present");
                let record = txn::encode_prepare(&marker, &payload);
                let log_number = state.wal_number;
                // Leaders run only while the DB is open; close() waits for the
                // slot to be restored. bolt-lint: allow(unwrap-in-crash-path)
                let mut wal = state.wal.take().expect("wal open");
                let io = MutexGuard::unlocked(state, || -> Result<()> {
                    wal.add_record(&record)?;
                    wal.sync()
                });
                state.wal = Some(wal);
                self.writers_cv.notify_all();
                match io {
                    Ok(()) => {
                        self.stats.record_wal_sync(1);
                        state.pending_txns.insert(
                            marker.txn_id,
                            PendingTxn {
                                payload,
                                log_number,
                                applied_in: None,
                            },
                        );
                        Ok(())
                    }
                    Err(e) => {
                        // Same rule as a failed group append: the record may
                        // be torn mid-log, so later appends would be dropped
                        // by recovery's torn-tail rule. Poison the DB.
                        state.bg_error.get_or_insert_with(|| e.clone());
                        Err(e)
                    }
                }
            }
            SlotOp::TxnApply { txn_id } => {
                // The apply inserts into the memtable, so the governors run
                // exactly as for a batch commit.
                self.make_room(state)?;
                let apply_era = state.wal_number;
                let mut payload = match state.pending_txns.get(&txn_id) {
                    Some(staged) if staged.applied_in.is_none() => staged.payload.clone(),
                    _ => {
                        return Err(Error::InvalidArgument(format!(
                            "transaction {txn_id} has no staged slice"
                        )));
                    }
                };
                let base = self.last_sequence.load(Ordering::Relaxed);
                payload.set_sequence(base + 1);
                let count = u64::from(payload.count());
                // The marker is appended *unsynced*: the payload is already
                // durable (synced prepare + synced decide), and if a crash
                // tears the marker off the log tail it also tears every
                // later record, so end-of-log recovery replay lands the
                // slice in the same relative order.
                let marker_record = txn::encode_applied(txn_id, base + 1);
                let mem = Arc::clone(&state.mem);
                // bolt-lint: allow(unwrap-in-crash-path) -- see prepare arm.
                let mut wal = state.wal.take().expect("wal open");
                let io = MutexGuard::unlocked(state, || -> Result<()> {
                    wal.add_record(&marker_record)?;
                    payload.apply_to(&mem)
                });
                state.wal = Some(wal);
                self.writers_cv.notify_all();
                match io {
                    Ok(()) => {
                        self.last_sequence.store(base + count, Ordering::Release);
                        self.stats.record_write_group(1);
                        self.stats.record_group_batches(1);
                        // Keep the entry (and its WAL pin) until the flush
                        // that covers this era; see `prune_applied_txns`.
                        if let Some(staged) = state.pending_txns.get_mut(&txn_id) {
                            staged.applied_in = Some(apply_era);
                        }
                        Ok(())
                    }
                    Err(e) => {
                        state.bg_error.get_or_insert_with(|| e.clone());
                        Err(e)
                    }
                }
            }
            SlotOp::Write => Err(Error::InvalidState(
                "txn_commit dispatched on a non-txn writer slot".into(),
            )),
        }
    }

    /// Commit the group led by `leader` (the front of the writer queue).
    ///
    /// Runs with the state mutex held, but releases it for the expensive
    /// phase: the WAL append, the (single) durability barrier, and the
    /// memtable insert all happen unlocked. Exclusion is structural — the
    /// leader stays at the front of the queue until done, so no second
    /// leader can exist, and `flush`/`close` wait for the WAL's return
    /// before touching it.
    fn group_commit(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        leader: &Arc<WriterSlot>,
    ) -> Result<()> {
        // Run the governors (slowdown/stall/memtable switch) for the whole
        // group. Followers keep queueing while the leader waits here, which
        // is exactly what makes post-stall groups large.
        if let Err(e) = self.make_room(state) {
            state.writers.pop_front();
            self.writers_cv.notify_all();
            return Err(e);
        }

        // Merge queued follower batches into the leader's, oldest first,
        // until the byte cap. A small leading batch caps the group at its
        // own size + 128 KiB so a tiny write's latency is never hostage to
        // a megabyte of followers (HyperLevelDB's rule).
        const SMALL_BATCH_SLACK: usize = 128 << 10;
        let own = leader.batch_bytes;
        let mut cap = self.opts.group_commit_bytes as usize;
        if own <= SMALL_BATCH_SLACK {
            cap = cap.min(own + SMALL_BATCH_SLACK);
        }
        let mut group_len = 1usize;
        let mut group_bytes = own;
        let mut sync_requests = u64::from(leader.sync);
        for slot in state.writers.iter().skip(1) {
            if slot.op != SlotOp::Write {
                // Transaction phases are WAL-exclusive and never merge.
                break;
            }
            if slot.sync && !leader.sync {
                // A sync write must not be absorbed by a non-sync group:
                // its durability guarantee would silently vanish.
                break;
            }
            if group_bytes + slot.batch_bytes > cap {
                break;
            }
            group_bytes += slot.batch_bytes;
            sync_requests += u64::from(slot.sync);
            group_len += 1;
        }
        // A slot's batch is taken exactly once, by the leader that dequeues it;
        // it is still present here. bolt-lint: allow(unwrap-in-crash-path)
        let mut combined = leader.batch.lock().take().expect("leader batch present");
        if group_len > 1 {
            combined.reserve(group_bytes - own);
            for slot in state.writers.iter().skip(1).take(group_len - 1) {
                // bolt-lint: allow(unwrap-in-crash-path) -- same single-take invariant.
                let follower = slot.batch.lock().take().expect("follower batch present");
                // WriteBatch::append is an in-memory merge returning `()`,
                // not fallible file I/O. bolt-lint: allow(swallowed-io-error)
                combined.append(&follower);
            }
        }

        let base = self.last_sequence.load(Ordering::Relaxed);
        combined.set_sequence(base + 1);
        let count = u64::from(combined.count());
        let group_sync = leader.sync;
        let mem = Arc::clone(&state.mem);
        // group_commit runs only while the DB is open; close() waits for the
        // slot to be restored. bolt-lint: allow(unwrap-in-crash-path)
        let mut wal = state.wal.take().expect("wal open");
        // The value log travels with the WAL: whoever holds the WAL holds it.
        let mut vlog = state.vlog.take();
        let mut rotations: Vec<u64> = Vec::new();

        // The expensive phase, outside the state mutex: value separation,
        // one WAL record for the whole group, at most one barrier each for
        // the value log and the WAL, then the memtable insert (safe
        // unlocked: this leader is the only writer, and the memtable cannot
        // be switched while we hold the WAL).
        let io = MutexGuard::unlocked(state, || -> Result<()> {
            if let Some(threshold) = self.opts.value_separation_threshold {
                let (separated, vlog_bytes) = self.separate_large_values(
                    &mut combined,
                    threshold,
                    &mut vlog,
                    &mut rotations,
                )?;
                if separated > 0 {
                    // Invariant V1: the segment holding this group's values
                    // is barriered before the WAL record that makes their
                    // pointers visible — even for unsynced groups — so
                    // recovery can never replay a pointer whose bytes were
                    // still in flight.
                    let _scope = BarrierScope::new(BarrierCause::VlogData);
                    let writer = vlog.as_mut().ok_or_else(|| {
                        Error::InvalidState(
                            "values separated without an open vlog writer".to_string(),
                        )
                    })?;
                    writer.barrier(self.vlog_ordering_only())?;
                    self.stats.record_vlog_separated(separated);
                    self.stats.record_vlog_bytes(vlog_bytes);
                }
            }
            wal.add_record(combined.encoded())?;
            if group_sync {
                wal.sync()?;
                self.stats.record_wal_sync(1);
                if sync_requests > 1 {
                    self.stats.record_wal_sync_elided(sync_requests - 1);
                }
            }
            combined.apply_to(&mem)
        });
        state.wal = Some(wal);
        state.vlog = vlog;
        // Rotations happened physically even if a later write failed.
        for segment in rotations {
            self.sink.emit(EngineEvent::VlogRotate {
                new_segment: segment,
            });
        }

        let result = match io {
            Ok(()) => {
                // Publish only after the insert: readers snapshot
                // `last_sequence` and must find every entry at or below it.
                self.last_sequence.store(base + count, Ordering::Release);
                self.stats.record_write_group(1);
                self.stats.record_group_batches(group_len as u64);
                self.sink.emit(EngineEvent::WriteGroup {
                    batches: group_len as u64,
                    bytes: group_bytes as u64,
                    synced: group_sync,
                    syncs_elided: if group_sync {
                        sync_requests.saturating_sub(1)
                    } else {
                        0
                    },
                });
                Ok(())
            }
            Err(e) => {
                // A failed append may leave a torn record mid-log; records
                // appended after it would be dropped by recovery's
                // torn-tail rule. Poison the DB rather than risk silently
                // losing later acknowledged writes.
                state.bg_error.get_or_insert_with(|| e.clone());
                Err(e)
            }
        };

        // Deliver results, dequeue the group, and hand leadership to the
        // next queued writer (it wakes via writers_cv and finds itself at
        // the front).
        for _ in 0..group_len {
            // group_len was counted from this same queue under the same lock
            // acquisition. bolt-lint: allow(unwrap-in-crash-path)
            let slot = state.writers.pop_front().expect("group member queued");
            if !Arc::ptr_eq(&slot, leader) {
                slot.complete(result.clone());
            }
        }
        self.writers_cv.notify_all();
        result
    }

    fn make_room(&self, state: &mut MutexGuard<'_, DbState>) -> Result<()> {
        let mut allow_delay = true;
        loop {
            if let Some(e) = &state.bg_error {
                return Err(e.clone());
            }
            let l0 = self.l0_runs.load(Ordering::Relaxed);
            if allow_delay && self.opts.level0_slowdown_trigger.is_some_and(|t| l0 >= t) {
                // L0SlowDown governor: sleep 1 ms, once, outside the lock.
                allow_delay = false;
                self.stats.record_slowdown(1);
                self.sink.emit(EngineEvent::Slowdown);
                MutexGuard::unlocked(state, || {
                    std::thread::sleep(Duration::from_millis(1));
                });
                continue;
            }
            if state.mem.approximate_memory_usage() < self.opts.memtable_bytes {
                return Ok(());
            }
            if state.imm.is_some() {
                // Write stall: previous memtable still flushing.
                self.stats.record_stall(1);
                self.sink.emit(EngineEvent::StallBegin);
                let start = Instant::now();
                self.work_cv.notify_one();
                self.done_cv.wait(state);
                let waited_nanos = start.elapsed().as_nanos() as u64;
                self.stats.record_stall_nanos(waited_nanos);
                self.sink.emit(EngineEvent::StallEnd { waited_nanos });
                continue;
            }
            if self.opts.level0_stop_trigger.is_some_and(|t| l0 >= t) {
                // L0Stop governor.
                self.stats.record_stall(1);
                self.sink.emit(EngineEvent::StallBegin);
                let start = Instant::now();
                self.work_cv.notify_one();
                self.done_cv.wait(state);
                let waited_nanos = start.elapsed().as_nanos() as u64;
                self.stats.record_stall_nanos(waited_nanos);
                self.sink.emit(EngineEvent::StallEnd { waited_nanos });
                continue;
            }
            self.switch_memtable(state)?;
        }
    }

    fn switch_memtable(&self, state: &mut MutexGuard<'_, DbState>) -> Result<()> {
        assert!(state.imm.is_none(), "cannot switch with a pending flush");
        debug_assert!(
            state.wal.is_some(),
            "cannot switch while a group commit holds the WAL"
        );
        let new_log = self.versions.lock().new_file_number();
        let file = self.env.new_writable_file(&log_file(&self.name, new_log))?;
        state.imm = Some(Arc::clone(&state.mem));
        self.has_imm.store(true, Ordering::Release);
        state.imm_log_boundary = new_log;
        // The WAL is in hand (asserted above), so no commit is in flight:
        // `last_sequence` is exactly the boundary between `imm` and the
        // fresh memtable.
        state.imm_seq_boundary = self.last_sequence.load(Ordering::Acquire);
        state.wal = Some(new_wal_writer(file));
        state.wal_number = new_log;
        state.mem = Arc::new(MemTable::new());
        self.sink.emit(EngineEvent::WalRotate { new_log });
        self.work_cv.notify_one();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Background thread
    // ------------------------------------------------------------------

    fn background_loop(self: Arc<Self>) {
        loop {
            enum Work {
                Flush(Arc<MemTable>, u64),
                Compact(CompactionTask),
                Manual(CompactionTask),
            }
            let work = {
                let mut state = self.state.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if state.imm.is_some() {
                        state.bg_busy = true;
                        // Guarded by `state.imm.is_some()` just above.
                        // bolt-lint: allow(unwrap-in-crash-path)
                        let imm = Arc::clone(state.imm.as_ref().expect("imm present"));
                        break Work::Flush(imm, state.imm_log_boundary);
                    }
                    if let Some((level, begin, end)) = state.manual.take() {
                        match self.build_manual_task(level, &begin, &end) {
                            Some(task) => {
                                state.bg_busy = true;
                                break Work::Manual(task);
                            }
                            None => {
                                // Nothing overlaps (anymore): complete it.
                                state.manual_done += 1;
                                self.done_cv.notify_all();
                                continue;
                            }
                        }
                    }
                    let task = {
                        let versions = self.versions.lock();
                        let version = versions.current();
                        pick_compaction(
                            &self.opts,
                            &self.icmp,
                            &version,
                            &versions.compact_pointer,
                            state.seek_candidate.clone(),
                        )
                    };
                    if let Some(task) = task {
                        if task.reason == CompactionReason::Seek {
                            state.seek_candidate = None;
                            self.stats.record_seek_compaction(1);
                        }
                        state.bg_busy = true;
                        break Work::Compact(task);
                    }
                    state.seek_candidate = None;
                    self.work_cv.wait(&mut state);
                }
            };

            let (result, was_manual) = match work {
                Work::Flush(imm, log_boundary) => {
                    (self.flush_memtable(&imm, log_boundary, true), false)
                }
                Work::Compact(task) => (self.run_compaction(task), false),
                Work::Manual(task) => (self.run_compaction(task), true),
            };

            let mut state = self.state.lock();
            state.bg_busy = false;
            if was_manual {
                state.manual_done += 1;
            }
            match result {
                Ok(()) => {}
                Err(e) => {
                    // Transient MANIFEST sync failures never reach here:
                    // log_and_apply self-heals them by re-cutting a fresh
                    // MANIFEST (O5), so background work keeps flowing. Only
                    // a double fault (the re-cut itself failed, writer
                    // poisoned) or a non-MANIFEST error parks the engine.
                    state.bg_error = Some(e);
                }
            }
            self.done_cv.notify_all();
        }
    }

    fn refresh_shape_hints(&self) {
        let versions = self.versions.lock();
        let version = versions.current();
        self.l0_runs
            .store(version.levels[0].num_runs(), Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Flush
    // ------------------------------------------------------------------

    /// Write `mem` to level 0 and commit. `clear_imm` distinguishes the
    /// background flush (true) from recovery-time flushes (false).
    fn flush_memtable(
        &self,
        mem: &Arc<MemTable>,
        log_boundary: u64,
        clear_imm: bool,
    ) -> Result<()> {
        let flush_id = self.flush_ids.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(EngineEvent::FlushBegin {
            id: flush_id,
            input_bytes: mem.approximate_memory_usage(),
        });
        let mut iter = mem.iter();
        iter.seek_to_first();
        let internal: &mut dyn InternalIterator = &mut iter;
        // Stock LevelDB flushes the whole memtable as ONE SSTable file;
        // BoLT cuts logical SSTables but still writes one compaction file.
        let target = match self.opts.bolt_options() {
            Some(b) => b.logical_sstable_bytes,
            None => u64::MAX,
        };
        let outputs = {
            let _scope = BarrierScope::new(BarrierCause::FlushData);
            self.write_sorted_run(internal, target)
        }?;

        let mut edit = VersionEdit {
            log_number: Some(log_boundary),
            ..VersionEdit::default()
        };
        let mut flush_bytes = 0u64;
        {
            let _scope = BarrierScope::new(BarrierCause::FlushManifest);
            let mut versions = self.versions.lock();
            let mut run_tag = 0;
            for (i, (file_number, built)) in outputs.iter().enumerate() {
                let table_id = versions.new_table_id();
                if i == 0 {
                    run_tag = table_id;
                }
                flush_bytes += built.size;
                edit.added_tables.push((
                    0,
                    run_tag,
                    TableMeta::new(
                        table_id,
                        *file_number,
                        built.offset,
                        built.size,
                        built.num_entries,
                        built.smallest.clone(),
                        built.largest.clone(),
                    )
                    .with_range_tombstones(built.range_tombstones),
                ));
            }
            edit.last_sequence = Some(self.last_sequence.load(Ordering::Acquire));
            versions.log_and_apply(edit)?;
            for (file_number, _) in &outputs {
                versions.clear_pending(*file_number);
            }
            versions.collect_garbage(&self.table_cache);
            self.stats.record_flush(1);
            self.stats.record_flush_bytes(flush_bytes);
        }
        self.sink.emit(EngineEvent::FlushEnd {
            id: flush_id,
            output_bytes: flush_bytes,
            level: 0,
        });
        self.refresh_shape_hints();

        if clear_imm {
            let mut state = self.state.lock();
            state.imm = None;
            self.has_imm.store(false, Ordering::Release);
            // Publish in the same critical section that clears `imm`: a
            // checkpoint that sees `imm == None` must also see the boundary
            // this flush established.
            state.flushed_seq_boundary = state.imm_seq_boundary;
            // Wake writers stalled on the full memtable immediately — this
            // may run mid-compaction (flush preemption).
            self.done_cv.notify_all();
        }
        self.delete_obsolete_logs(log_boundary);
        Ok(())
    }

    /// Flush the pending immutable memtable right now if one exists. Called
    /// from within long compactions, mirroring LevelDB's `DoCompactionWork`
    /// check of `has_imm_`: without preemption a 64 MB group compaction
    /// would stall writers for its entire duration.
    fn maybe_flush_pending_imm(&self) -> Result<()> {
        if !self.has_imm.load(Ordering::Acquire) {
            return Ok(());
        }
        let pending = {
            let state = self.state.lock();
            state
                .imm
                .as_ref()
                .map(|imm| (Arc::clone(imm), state.imm_log_boundary))
        };
        if let Some((imm, boundary)) = pending {
            self.flush_memtable(&imm, boundary, true)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Compaction
    // ------------------------------------------------------------------

    fn run_compaction(&self, task: CompactionTask) -> Result<()> {
        let output_level = task.output_level;
        let smallest_snapshot = {
            let state = self.state.lock();
            state
                .snapshots
                .iter()
                .copied()
                .min()
                .unwrap_or_else(|| self.last_sequence.load(Ordering::Acquire))
        };
        let version = self.versions.lock().current();

        let compaction_id = self.compaction_ids.fetch_add(1, Ordering::Relaxed);
        self.sink.emit(EngineEvent::CompactionBegin {
            id: compaction_id,
            level: task.level as u32,
            victims: (task.merge_inputs().count() + task.settled_moves.len()) as u64,
            input_bytes: task.input_bytes(),
            policy: self.opts.compaction_policy.as_str(),
        });

        let mut edit = VersionEdit::default();
        // Settled compaction / trivial move: MANIFEST-only promotion.
        let deliberate_settling = self
            .opts
            .bolt_options()
            .is_some_and(|b| b.settled_compaction);
        for table in &task.settled_moves {
            edit.deleted_tables
                .push((task.level as u32, table.table_id));
            edit.added_tables
                .push((output_level as u32, 0, table.as_ref().clone()));
            if deliberate_settling {
                self.stats.record_settled_move(1);
            } else {
                self.stats.record_trivial_move(1);
            }
        }
        if !task.settled_moves.is_empty() {
            self.sink.emit(EngineEvent::SettledMove {
                id: compaction_id,
                level: task.level as u32,
                tables: task.settled_moves.len() as u64,
            });
        }

        let mut outputs: Vec<(u64, BuiltTable)> = Vec::new();
        let mut dead_pointers: Vec<ValuePointer> = Vec::new();
        if !task.is_move_only() {
            let input_bytes = task.input_bytes();
            self.stats.record_compaction_input(input_bytes);

            // BoLT: one physical compaction file for the entire compaction.
            let target = self.opts.output_table_bytes();
            let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);

            // Compaction-wide range-tombstone overlay, built from the
            // pinned version (which still contains the input tables).
            let overlay = if version.has_range_tombstones() {
                version.range_tombstones(&self.table_cache, &self.name)?
            } else {
                Arc::new(RangeTombstoneSet::default())
            };

            // Tables this compaction merges away: their covered keys die
            // in this very rewrite, so they never block tombstone drops.
            let input_ids: std::collections::HashSet<u64> =
                task.merge_inputs().map(|t| t.table_id).collect();

            // Every data barrier the rewrite pays is attributed to this
            // compaction (a preempted flush re-tags its own barriers).
            let _scope = BarrierScope::new(BarrierCause::CompactionData);
            let built = (|| -> Result<Vec<(u64, BuiltTable)>> {
                match task.output {
                    OutputShape::AppendRun | OutputShape::ReplaceRun { .. } => {
                        let children: Vec<Box<dyn InternalIterator>> = task
                            .input_runs
                            .iter()
                            .filter(|r| !r.is_empty())
                            .map(|r| self.run_iter(r.clone()))
                            .collect();
                        let mut merged = MergingIter::new(self.icmp.clone(), children);
                        merged.seek_to_first()?;
                        let mut filter = DropFilter::new(smallest_snapshot);
                        // Point keys: AppendRun outputs land above still-live
                        // runs, so a point tombstone survives unless no run
                        // at or below the output level can hold its key; a
                        // ReplaceRun merges the oldest suffix of the deepest
                        // level, so deeper levels alone decide. (Range
                        // tombstones use the span-wide all-level check — see
                        // `is_base_level_span`.)
                        let include_output_level = matches!(task.output, OutputShape::AppendRun);
                        sink.write_run(
                            &mut merged,
                            Some(&mut filter),
                            &overlay,
                            &DropScope {
                                version: &version,
                                inputs: &input_ids,
                                output_level,
                                include_output_level,
                            },
                        )?;
                    }
                    OutputShape::Leveled => {
                        // One merge over whole runs, cut at cluster
                        // boundaries: each run's victims are read span by
                        // span across clusters, never one table at a time.
                        let mut children: Vec<Box<dyn InternalIterator>> = task
                            .input_runs
                            .iter()
                            .filter(|r| !r.is_empty())
                            .map(|r| self.run_iter(r.clone()))
                            .collect();
                        if !task.next_inputs.is_empty() {
                            children.push(self.run_iter(task.next_inputs.clone()));
                        }
                        let mut merged = MergingIter::new(self.icmp.clone(), children);
                        merged.seek_to_first()?;
                        for cluster in clusters(&self.icmp, &task) {
                            let ucmp = self.icmp.user_comparator();
                            let Some(upper) = cluster
                                .input_runs
                                .iter()
                                .flatten()
                                .chain(&cluster.next_inputs)
                                .map(|t| t.largest_user_key())
                                .max_by(|a, b| ucmp.compare(a, b))
                            else {
                                continue;
                            };
                            let mut filter = DropFilter::new(smallest_snapshot);
                            sink.write_run(
                                &mut UpTo::new(&mut merged, &self.icmp, upper),
                                Some(&mut filter),
                                &overlay,
                                &DropScope {
                                    version: &version,
                                    inputs: &input_ids,
                                    output_level,
                                    include_output_level: false,
                                },
                            )?;
                        }
                        // Clusters partition the inputs' key space; an
                        // entry past the last one would be silently lost.
                        if merged.valid() {
                            return Err(Error::InvalidState(
                                "compaction input left past its last cluster".into(),
                            ));
                        }
                    }
                }
                sink.finish()
            })();
            outputs = match built {
                Ok(outputs) => {
                    dead_pointers = sink.take_dead_pointers();
                    outputs
                }
                Err(e) => {
                    // Nothing references these outputs yet (no MANIFEST
                    // append has happened); reclaim them so an I/O error
                    // mid-compaction cannot leak partial files or pending
                    // marks that would block garbage collection forever.
                    sink.abandon();
                    return Err(e);
                }
            };
        }

        let mut output_bytes = 0u64;
        {
            // The commit barrier (MANIFEST append + sync) is this
            // compaction's second — and for settled moves, only — barrier.
            let _scope = BarrierScope::new(BarrierCause::CompactionManifest);
            let mut versions = self.versions.lock();
            for table in task.merge_inputs() {
                // Inputs at `task.level` and `output_level`; level recorded
                // for bookkeeping only (deletion is by table id).
                edit.deleted_tables
                    .push((task.level as u32, table.table_id));
            }
            let mut run_tag = match task.output {
                OutputShape::Leveled => 0,
                OutputShape::AppendRun => 0, // set from the first table id below
                OutputShape::ReplaceRun { tag } => tag,
            };
            for (i, (file_number, built)) in outputs.iter().enumerate() {
                let table_id = versions.new_table_id();
                if i == 0 && task.output == OutputShape::AppendRun {
                    run_tag = table_id;
                }
                output_bytes += built.size;
                edit.added_tables.push((
                    output_level as u32,
                    run_tag,
                    TableMeta::new(
                        table_id,
                        *file_number,
                        built.offset,
                        built.size,
                        built.num_entries,
                        built.smallest.clone(),
                        built.largest.clone(),
                    )
                    .with_range_tombstones(built.range_tombstones),
                ));
            }
            if task.reason == CompactionReason::Size && task.output == OutputShape::Leveled {
                if let Some(key) = task.max_victim_key(&self.icmp) {
                    edit.compact_pointers.push((task.level as u32, key));
                }
            }
            // Feed the ranges this compaction dropped into the value-log
            // liveness ledger inside the same MANIFEST commit, and condemn
            // segments whose dead-range union now covers every written
            // byte. The sweep covers the whole ledger — not just touched
            // segments — so a segment left fully dead by a crashed
            // predecessor is retired too.
            let mut dead_by_segment: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
            for ptr in &dead_pointers {
                if versions.has_vlog_segment(ptr.file_number) {
                    dead_by_segment
                        .entry(ptr.file_number)
                        .or_default()
                        .push((ptr.offset, u64::from(ptr.len)));
                }
            }
            for (&segment, ranges) in &dead_by_segment {
                for &(offset, len) in ranges {
                    edit.vlog_dead.push((segment, offset, len));
                }
            }
            let mut committed_dead = 0u64;
            let mut retired = 0u64;
            for (&segment, info) in versions.vlog_segments() {
                let mut tentative = info.dead.clone();
                for &(offset, len) in dead_by_segment.get(&segment).into_iter().flatten() {
                    tentative.insert(offset, len);
                }
                // Union delta, not a sum of pointer lengths: duplicate
                // drops of the same range count once.
                committed_dead += tentative.total() - info.dead.total();
                if info.written.is_some_and(|w| tentative.total() >= w) {
                    edit.vlog_deleted.push(segment);
                    retired += 1;
                }
            }
            versions.log_and_apply(edit)?;
            for (file_number, _) in &outputs {
                versions.clear_pending(*file_number);
            }
            // Dead ranges in surviving segments become hole-punch work,
            // executed by collect_garbage once no old version is pinned.
            for ptr in &dead_pointers {
                if versions.has_vlog_segment(ptr.file_number) {
                    versions.queue_vlog_punch(ptr.file_number, ptr.offset, u64::from(ptr.len));
                }
            }
            if committed_dead > 0 {
                self.stats.record_vlog_dead_bytes(committed_dead);
            }
            if retired > 0 {
                self.stats.record_vlog_segment_retired(retired);
            }
            versions.collect_garbage(&self.table_cache);
            self.stats.record_compaction(1);
            self.stats.record_compaction_output(output_bytes);
        }
        self.sink.emit(EngineEvent::CompactionEnd {
            id: compaction_id,
            outputs: outputs.len() as u64,
            output_bytes,
            settled: task.settled_moves.len() as u64,
            rewrote: !outputs.is_empty(),
            policy: self.opts.compaction_policy.as_str(),
        });
        self.refresh_shape_hints();
        Ok(())
    }

    /// Build a compaction task pushing the tables of `level` overlapping
    /// `[begin, end]` down one level, or `None` if nothing overlaps.
    fn build_manual_task(&self, level: usize, begin: &[u8], end: &[u8]) -> Option<CompactionTask> {
        let version = self.versions.lock().current();
        let overlapping = version.overlapping_tables(&self.icmp, level, begin, end);
        if overlapping.is_empty() {
            return None;
        }
        let layout = run_layout_for(&self.opts);
        let multi_run_at = |l: usize| match layout {
            RunLayout::Unrestricted => true,
            RunLayout::SingleRunBeyond(threshold) => l < threshold,
        };
        // Levels that may hold overlapping runs must move as whole runs to
        // preserve recency ordering; L0 runs always overlap each other.
        let take_whole_level = level == 0 || multi_run_at(level);
        // When the output level may itself hold sibling runs, the merge
        // appends a fresh run there instead of folding into a sorted level.
        let append = multi_run_at(level + 1);
        let input_runs: Vec<Vec<Arc<TableMeta>>> = if take_whole_level {
            version.levels[level]
                .runs
                .iter()
                .map(|r| r.tables.clone())
                .collect()
        } else {
            vec![overlapping]
        };
        let next_inputs = if append {
            Vec::new()
        } else {
            let mut next: Vec<Arc<TableMeta>> = Vec::new();
            for victim in input_runs.iter().flatten() {
                for t in version.overlapping_tables(
                    &self.icmp,
                    level + 1,
                    victim.smallest_user_key(),
                    victim.largest_user_key(),
                ) {
                    if !next.iter().any(|x| x.table_id == t.table_id) {
                        next.push(t);
                    }
                }
            }
            next.sort_by(|a, b| self.icmp.compare(&a.smallest, &b.smallest));
            next
        };
        Some(CompactionTask {
            level,
            output_level: level + 1,
            reason: CompactionReason::Size,
            input_runs,
            next_inputs,
            settled_moves: Vec::new(),
            output: if append {
                OutputShape::AppendRun
            } else {
                OutputShape::Leveled
            },
        })
    }

    /// A compaction input iterator over one run's victims: span reads,
    /// no cache traffic (see [`RunIter::for_compaction`]).
    fn run_iter(&self, tables: Vec<Arc<TableMeta>>) -> Box<dyn InternalIterator> {
        Box::new(RunIter::for_compaction(
            self.icmp.clone(),
            Arc::clone(&self.table_cache),
            self.name.clone(),
            tables,
            Arc::clone(&self.stats),
        ))
    }

    /// Stream one sorted input into output tables without dropping entries
    /// (the flush path; a flush must preserve every memtable entry). With
    /// `target = u64::MAX` everything lands in a single table.
    fn write_sorted_run(
        &self,
        iter: &mut dyn InternalIterator,
        target: u64,
    ) -> Result<Vec<(u64, BuiltTable)>> {
        let mut sink = OutputSink::new(self, self.opts.bolt_options().is_some(), target);
        let version = Version::empty(self.opts.num_levels);
        let overlay = RangeTombstoneSet::default();
        let inputs = std::collections::HashSet::new();
        let scope = DropScope {
            version: &version,
            inputs: &inputs,
            output_level: usize::MAX,
            include_output_level: false,
        };
        let result = sink
            .write_run(iter, None, &overlay, &scope)
            .and_then(|()| sink.finish());
        if result.is_err() {
            // Nothing references these outputs yet; reclaim them so an I/O
            // error mid-flush cannot leak partially written files.
            sink.abandon();
        }
        result
    }

    // ------------------------------------------------------------------
    // Recovery & housekeeping
    // ------------------------------------------------------------------

    /// Replay the WALs. Logs at or above the version set's log floor are
    /// replayed in full; *older* logs — retained only because a pending
    /// cross-shard transaction pins them (see
    /// [`DbState::min_pending_txn_log`]) — are scanned for transaction
    /// records alone, since their batch records are already in SSTables.
    ///
    /// Transaction resolution: a prepare stages its slice; an `Applied`
    /// marker in the replayed region commits the staged slice at the
    /// marker's recorded sequence (in a flushed-away region it just
    /// discards the stage — the data is in SSTables); a staged slice with
    /// no marker commits at the end of the log iff the coordinator decided
    /// it (`committed_txns`), and is dropped otherwise — on every shard
    /// alike, which is what makes a crash inside the 2PC window
    /// all-or-nothing.
    fn recover_wals(&self) -> Result<()> {
        let log_floor = self.versions.lock().log_number;
        let mut logs: Vec<u64> = {
            let names = self.env.list_dir(&self.name)?;
            names
                .iter()
                .filter_map(|n| match parse_file_name(n) {
                    Some(FileType::Log(num)) => Some(num),
                    _ => None,
                })
                .collect()
        };
        logs.sort_unstable();

        let mut max_seq = { self.versions.lock().last_sequence };
        let mut max_txn = 0u64;
        let mut staged: HashMap<u64, WriteBatch> = HashMap::new();
        let mut mem = Arc::new(MemTable::new());
        for log in logs {
            let replay = log >= log_floor;
            let file = self
                .env
                .new_random_access_file(&log_file(&self.name, log))?;
            let mut reader = LogReader::new(file);
            while let Some(record) = reader.read_record()? {
                if let Some(txn_record) = txn::decode(&record) {
                    match txn_record? {
                        TxnWalRecord::Prepare { marker, payload } => {
                            max_txn = max_txn.max(marker.txn_id);
                            staged.insert(marker.txn_id, payload);
                        }
                        TxnWalRecord::Applied { txn_id, base_seq } => {
                            max_txn = max_txn.max(txn_id);
                            match staged.remove(&txn_id) {
                                Some(mut payload) => {
                                    if replay {
                                        payload.set_sequence(base_seq);
                                        payload.apply_to(&mem)?;
                                        max_seq =
                                            max_seq.max(base_seq + u64::from(payload.count()) - 1);
                                    }
                                }
                                // Below the log floor a missing stash is
                                // benign: the slice is already durable in
                                // SSTables, and a crash (or ignored EIO)
                                // mid log-deletion can remove the prepare's
                                // older WAL while this marker's survives.
                                // Inside the replay region it means the
                                // slice's only copy is gone.
                                None if !replay => {}
                                None => {
                                    return Err(Error::Corruption(format!(
                                        "applied marker for transaction {txn_id} \
                                         without a prepare record in the \
                                         replayed region"
                                    )));
                                }
                            }
                        }
                        TxnWalRecord::Decide { .. } => {
                            return Err(Error::Corruption(
                                "coordinator decide record in a shard WAL".into(),
                            ));
                        }
                    }
                } else if replay {
                    let batch = WriteBatch::decode(&record)?;
                    batch.apply_to(&mem)?;
                    max_seq = max_seq.max(batch.sequence() + u64::from(batch.count()) - 1);
                }
                if mem.approximate_memory_usage() >= self.opts.memtable_bytes {
                    self.last_sequence.store(max_seq, Ordering::Release);
                    self.flush_memtable(&mem, 0, false)?;
                    mem = Arc::new(MemTable::new());
                }
            }
        }

        // Staged slices whose applied marker never made it to the log:
        // commit the decided ones at the end (losing the unsynced marker
        // also loses every record after it, so the end of the surviving
        // log *is* the slice's position), drop the undecided ones. They
        // replay in the coordinator's decide order — ids are allocated
        // before the decide mutex serializes commit points, so txn-id
        // order can disagree with the order writers actually committed.
        let mut decided: Vec<(u64, u64)> = staged
            .keys()
            .filter_map(|id| self.committed_txns.get(id).map(|&ord| (ord, *id)))
            .collect();
        decided.sort_unstable();
        for (_, txn_id) in decided {
            // bolt-lint: allow(unwrap-in-crash-path) -- key drawn from `staged` above.
            let mut payload = staged.remove(&txn_id).expect("staged slice present");
            payload.set_sequence(max_seq + 1);
            max_seq += u64::from(payload.count());
            payload.apply_to(&mem)?;
        }

        self.recovered_max_txn.store(max_txn, Ordering::Release);
        self.last_sequence.store(max_seq, Ordering::Release);
        {
            let mut versions = self.versions.lock();
            versions.last_sequence = versions.last_sequence.max(max_seq);
        }
        if !mem.is_empty() {
            self.flush_memtable(&mem, 0, false)?;
        }
        Ok(())
    }

    fn start_fresh_wal(&self) -> Result<()> {
        let new_log = self.versions.lock().new_file_number();
        let file = self.env.new_writable_file(&log_file(&self.name, new_log))?;
        {
            let mut state = self.state.lock();
            state.wal = Some(new_wal_writer(file));
            state.wal_number = new_log;
        }
        // Persist the log floor so old WALs are not replayed twice.
        let mut versions = self.versions.lock();
        let edit = VersionEdit {
            log_number: Some(new_log),
            last_sequence: Some(self.last_sequence.load(Ordering::Acquire)),
            ..Default::default()
        };
        versions.log_and_apply(edit)?;
        Ok(())
    }

    /// Clamp a log-deletion boundary by the pending-transaction pins:
    /// first release pins whose applied slice the floor now covers, then
    /// hold the boundary at the oldest WAL a live pin still references.
    fn clamp_log_boundary(&self, boundary: u64) -> u64 {
        let mut state = self.state.lock();
        state.prune_applied_txns(boundary);
        match state.min_pending_txn_log() {
            Some(pinned) => boundary.min(pinned),
            None => boundary,
        }
    }

    /// Delete the WAL files in `dead`, oldest first, stopping at the first
    /// failure — the surviving logs then always form a suffix of the log
    /// sequence. Recovery's transaction resolution depends on that: if a
    /// newer log (holding a transaction's `Applied` marker) could be
    /// deleted while an older one (holding its prepare) survived, the next
    /// open would find a decided, markerless prepare and re-apply it at
    /// end-of-log, resurrecting stale values over later committed writes.
    fn delete_logs_oldest_first(&self, mut dead: Vec<u64>) {
        dead.sort_unstable();
        for num in dead {
            if self.env.delete_file(&log_file(&self.name, num)).is_err() {
                return;
            }
        }
    }

    /// Materialize a pinned `(version, sequence)` pair into `dir`: link
    /// every referenced table and value-log file, then write the MANIFEST
    /// and CURRENT. Returns `(tables, files)` — logical tables in the
    /// snapshot and physical files placed in the directory.
    ///
    /// The caller holds a checkpoint pin for `version`, so none of the
    /// files named here can be deleted or hole-punched underneath us.
    fn do_checkpoint(
        &self,
        dir: &str,
        version: &Arc<Version>,
        seq: SequenceNumber,
        vlog_ledger: &[(u64, RangeSet)],
    ) -> Result<(u64, u64)> {
        let _scope = BarrierScope::new(BarrierCause::Checkpoint);
        self.env.create_dir_all(dir)?;

        // Tables: several logical tables may share one physical file (BoLT
        // shared compaction outputs), so link by unique file number.
        let mut tables = 0u64;
        let mut file_numbers: Vec<u64> = Vec::new();
        for (_, _, table) in version.all_tables() {
            tables += 1;
            file_numbers.push(table.file_number);
        }
        file_numbers.sort_unstable();
        file_numbers.dedup();
        for &file_number in &file_numbers {
            self.env.link_file(
                &table_file(&self.name, file_number),
                &table_file(dir, file_number),
            )?;
        }
        let mut files = file_numbers.len() as u64;

        // Value-log segments. The active segment may be mid-append: that is
        // fine, because pointers reachable from the pinned version only
        // reference bytes below its last synced barrier, and a hard link
        // shares exactly that durability state. A segment the ledger knows
        // but that was never written to yet has no file — skip it, and keep
        // its dead ranges out of the manifest (only segments actually placed
        // in `dir` may carry vlog_dead records there).
        let mut vlog_dead: Vec<(u64, u64, u64)> = Vec::new();
        for (segment, dead) in vlog_ledger {
            let src = vlog_file(&self.name, *segment);
            if !self.env.file_exists(&src) {
                continue;
            }
            self.env.link_file(&src, &vlog_file(dir, *segment))?;
            files += 1;
            vlog_dead.extend(dead.iter().map(|(offset, len)| (*segment, offset, len)));
        }

        // MANIFEST + CURRENT last: until CURRENT lands, the directory is
        // not a database and a crash leaves ignorable garbage.
        self.versions
            .lock()
            .write_checkpoint_manifest(dir, version, seq, vlog_dead)?;
        files += 2;
        Ok((tables, files))
    }

    fn delete_obsolete_logs(&self, boundary: u64) {
        let boundary = self.clamp_log_boundary(boundary);
        if let Ok(names) = self.env.list_dir(&self.name) {
            let dead = names
                .iter()
                .filter_map(|n| match parse_file_name(n) {
                    Some(FileType::Log(num)) if num < boundary => Some(num),
                    _ => None,
                })
                .collect();
            self.delete_logs_oldest_first(dead);
        }
    }

    fn delete_obsolete_files(&self) {
        let versions = self.versions.lock();
        let referenced = versions.referenced_files();
        let log_floor = versions.log_number;
        let manifest = versions.manifest_number();
        // Segments in the ledger are live (or active). Condemned segments
        // awaiting deletion are not in the ledger, so this sweep reclaims
        // them too; collect_vlog_garbage's file_exists check then clears
        // the pending entry.
        let vlog_live: HashSet<u64> = versions.vlog_segments().keys().copied().collect();
        drop(versions);
        let log_floor = self.clamp_log_boundary(log_floor);
        let Ok(names) = self.env.list_dir(&self.name) else {
            return;
        };
        let mut dead_logs = Vec::new();
        for name in names {
            let keep = match parse_file_name(&name) {
                Some(FileType::Table(num)) => referenced.contains(&num),
                Some(FileType::Log(num)) => {
                    if num < log_floor {
                        dead_logs.push(num);
                    }
                    true // deleted below, in the order recovery depends on
                }
                Some(FileType::Manifest(num)) => num == manifest,
                Some(FileType::ValueLog(num)) => vlog_live.contains(&num),
                Some(FileType::Current) => true,
                Some(FileType::Temp(_)) => false,
                None => true, // unknown files are left alone
            };
            if !keep {
                let _ = self
                    .env
                    .delete_file(&bolt_env::join_path(&self.name, &name));
                if let Some(FileType::ValueLog(num)) = parse_file_name(&name) {
                    self.table_cache.evict_file(num);
                }
            }
        }
        self.delete_logs_oldest_first(dead_logs);
    }
}

/// Streams sorted entries into output tables; one physical file per table
/// for stock styles, one shared compaction file for BoLT.
struct OutputSink<'a> {
    inner: &'a DbInner,
    bolt: bool,
    target: u64,
    file: Option<(u64, Box<dyn bolt_env::WritableFile>)>,
    outputs: Vec<(u64, BuiltTable)>,
    /// Every file number this sink created, for cleanup on failure.
    created: Vec<u64>,
    /// Value pointers dropped by the filter — their value-log bytes are
    /// dead once this compaction commits.
    dead_pointers: Vec<ValuePointer>,
}

impl<'a> OutputSink<'a> {
    fn new(inner: &'a DbInner, bolt: bool, target: u64) -> Self {
        OutputSink {
            inner,
            bolt,
            target,
            file: None,
            outputs: Vec::new(),
            created: Vec::new(),
            dead_pointers: Vec::new(),
        }
    }

    fn take_dead_pointers(&mut self) -> Vec<ValuePointer> {
        std::mem::take(&mut self.dead_pointers)
    }

    fn ensure_file(&mut self) -> Result<()> {
        if self.file.is_none() {
            let number = {
                let mut versions = self.inner.versions.lock();
                let n = versions.new_file_number();
                versions.mark_pending(n);
                n
            };
            self.created.push(number);
            let file = self
                .inner
                .env
                .new_writable_file(&table_file(&self.inner.name, number))?;
            self.file = Some((number, file));
        }
        Ok(())
    }

    /// Undo a failed build: delete every file this sink created and release
    /// its pending marks so garbage collection is not blocked forever.
    ///
    /// Safe only because none of these outputs has been named in a MANIFEST
    /// append yet — once a VersionEdit referencing them is appended, the
    /// record may commit despite a sync error (a torn-tail crash can retain
    /// it), so from that point the files must be preserved.
    fn abandon(&mut self) {
        self.file = None;
        let mut versions = self.inner.versions.lock();
        for number in self.created.drain(..) {
            let _ = self
                .inner
                .env
                .delete_file(&table_file(&self.inner.name, number));
            versions.clear_pending(number);
        }
        self.outputs.clear();
    }

    fn sync_file(inner: &DbInner, file: &mut dyn bolt_env::WritableFile) -> Result<()> {
        if inner.opts.use_ordering_barriers && inner.env.supports_ordering_barrier() {
            // BarrierFS: ordering (not durability) is enough for data files
            // because the MANIFEST fsync that follows is the commit point.
            file.ordering_barrier()
        } else {
            file.sync()
        }
    }

    /// Merge one cluster into output tables, applying the drop rule when a
    /// filter is supplied (compaction) and keeping everything otherwise
    /// (flush). `overlay` is the compaction-wide range-tombstone set,
    /// queried at the snapshot horizon to erase covered entries.
    fn write_run(
        &mut self,
        iter: &mut dyn InternalIterator,
        mut filter: Option<&mut DropFilter>,
        overlay: &RangeTombstoneSet,
        scope: &DropScope<'_>,
    ) -> Result<()> {
        let DropScope {
            version,
            inputs,
            output_level,
            include_output_level,
        } = *scope;
        // Only compactions preempt for flushes; a flush must not recurse.
        let allow_preemption = filter.is_some();
        // Local because `builder` below holds a &mut borrow through
        // `self.file` for the whole inner loop.
        let mut dead: Vec<ValuePointer> = Vec::new();
        // Replay-duplicate guard: identical `(key, sequence, pointer)`
        // entries can reach two inputs when a crash makes recovery re-flush
        // WAL entries an earlier flush already committed (a flush need not
        // advance the WAL floor). Dropping the duplicate copy must not
        // record bytes the kept copy still resolves through, and two
        // dropped copies must not be recorded twice. Same-key entries are
        // adjacent in merge order and survivors precede dropped shadows,
        // so per-user-key tracking suffices.
        let mut guard_key: Vec<u8> = Vec::new();
        let mut kept_ptrs: Vec<Vec<u8>> = Vec::new();
        let mut counted_ptrs: Vec<Vec<u8>> = Vec::new();
        while iter.valid() {
            self.ensure_file()?;
            // ensure_file() above either populated `self.file` or returned the
            // error. bolt-lint: allow(unwrap-in-crash-path)
            let (file_number, file) = self.file.as_mut().expect("file open");
            let file_number = *file_number;
            // Flush preemption point: between output tables.
            if allow_preemption {
                self.inner.maybe_flush_pending_imm()?;
            }
            let mut builder =
                TableBuilder::new(file.as_mut(), self.inner.opts.table_format.clone());
            let mut last_added_user_key: Option<Vec<u8>> = None;
            while iter.valid() {
                let drop = match filter.as_deref_mut() {
                    None => false,
                    Some(filter) => {
                        let parsed = parse_internal_key(iter.key())?;
                        if parsed.value_type == ValueType::RangeTombstone {
                            // Tombstones bypass the per-key shadow state
                            // entirely (a newer put at the begin key must
                            // never shadow-drop the span). Retention: old
                            // enough that every snapshot sees it, and no
                            // table outside this compaction's inputs can
                            // still hold a key in its span.
                            let drop = filter.tombstone_obsolete(parsed.sequence)
                                && is_base_level_span(
                                    &self.inner.icmp,
                                    version,
                                    inputs,
                                    parsed.user_key,
                                    iter.value(),
                                );
                            if !drop {
                                builder.add(iter.key(), iter.value())?;
                                let user_key = bolt_table::ikey::extract_user_key(iter.key());
                                if last_added_user_key.as_deref() != Some(user_key) {
                                    last_added_user_key = Some(user_key.to_vec());
                                }
                            }
                            iter.next()?;
                            continue;
                        }
                        let base = is_base_level(
                            &self.inner.icmp,
                            version,
                            output_level,
                            include_output_level,
                            parsed.user_key,
                        );
                        // `should_drop` must always run (it maintains the
                        // per-key shadow state); coverage by a universally
                        // visible range tombstone is an extra drop reason.
                        let drop = filter.should_drop(&parsed, base)
                            || overlay.covers(
                                parsed.user_key,
                                parsed.sequence,
                                filter.smallest_snapshot(),
                            );
                        if parsed.value_type == ValueType::ValuePointer {
                            if guard_key != parsed.user_key {
                                guard_key.clear();
                                guard_key.extend_from_slice(parsed.user_key);
                                kept_ptrs.clear();
                                counted_ptrs.clear();
                            }
                            let value = iter.value();
                            if !drop {
                                kept_ptrs.push(value.to_vec());
                            } else if !kept_ptrs.iter().any(|p| p == value)
                                && !counted_ptrs.iter().any(|p| p == value)
                            {
                                // The entry leaves the LSM here; its
                                // value-log bytes are dead once the
                                // compaction commits.
                                dead.push(ValuePointer::decode(value)?);
                                counted_ptrs.push(value.to_vec());
                            }
                        }
                        drop
                    }
                };
                if !drop {
                    builder.add(iter.key(), iter.value())?;
                    let user_key = bolt_table::ikey::extract_user_key(iter.key());
                    if last_added_user_key.as_deref() != Some(user_key) {
                        last_added_user_key = Some(user_key.to_vec());
                    }
                }
                iter.next()?;
                if builder.estimated_size() >= self.target {
                    // Never cut between two versions of the same user key:
                    // runs must stay disjoint by user key.
                    let next_same_key = iter.valid()
                        && last_added_user_key.as_deref()
                            == Some(bolt_table::ikey::extract_user_key(iter.key()));
                    if !next_same_key {
                        break;
                    }
                }
            }
            if builder.is_empty() {
                break;
            }
            let built = builder.finish()?;
            self.outputs.push((file_number, built));
            if !self.bolt {
                // Inside `while iter.valid()` after ensure_file(); the classic
                // path closes the file per table. bolt-lint: allow(unwrap-in-crash-path)
                let (_, mut file) = self.file.take().expect("file open");
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        self.dead_pointers.extend(dead);
        Ok(())
    }

    /// Sync any shared compaction file and return the outputs.
    fn finish(&mut self) -> Result<Vec<(u64, BuiltTable)>> {
        if let Some((number, mut file)) = self.file.take() {
            if file.is_empty() {
                // Never written: drop the empty file.
                let _ = self
                    .inner
                    .env
                    .delete_file(&table_file(&self.inner.name, number));
                let mut versions = self.inner.versions.lock();
                versions.clear_pending(number);
            } else {
                Self::sync_file(self.inner, file.as_mut())?;
            }
        }
        Ok(std::mem::take(&mut self.outputs))
    }
}

/// Compaction context the drop rules in [`OutputSink::write_run`] consult:
/// the pinned input version, the ids of the compaction's own input tables
/// (exempt from the span check — this merge erases their covered keys),
/// and the output placement for the point-key base check.
struct DropScope<'a> {
    version: &'a Version,
    inputs: &'a std::collections::HashSet<u64>,
    output_level: usize,
    include_output_level: bool,
}

/// `true` if no table at a deeper level (or, for fragmented compactions,
/// at the output level itself) can contain `user_key` — the condition for
/// dropping a tombstone.
fn is_base_level(
    icmp: &InternalKeyComparator,
    version: &Version,
    output_level: usize,
    include_output_level: bool,
    user_key: &[u8],
) -> bool {
    if output_level >= version.levels.len() {
        return true;
    }
    let start = if include_output_level {
        output_level
    } else {
        output_level + 1
    };
    for level in start..version.levels.len() {
        for run in &version.levels[level].runs {
            if run.find(icmp, user_key).is_some() {
                return false;
            }
        }
    }
    true
}

/// Span-wide variant of [`is_base_level`] for range tombstones: `true` if
/// no table *outside this compaction's own inputs* can contain any user
/// key in `[begin, end)` — the condition for dropping the tombstone
/// outright. Unlike the point-key check this must not stop at the output
/// level or restrict itself to deeper levels: a tombstone's span routinely
/// extends past the compaction's input key range, so covered keys can sit
/// in same-level (or even shallower-run) tables the compaction never
/// touches. Input tables are exempt because this very merge erases their
/// covered keys via the overlay.
fn is_base_level_span(
    icmp: &InternalKeyComparator,
    version: &Version,
    inputs: &std::collections::HashSet<u64>,
    begin: &[u8],
    end: &[u8],
) -> bool {
    let ucmp = icmp.user_comparator();
    for level in &version.levels {
        for run in &level.runs {
            for table in &run.tables {
                if inputs.contains(&table.table_id) {
                    continue;
                }
                // Overlap with the half-open span: the table reaches at
                // least `begin` and starts strictly before `end`.
                if ucmp.compare(table.largest_user_key(), begin) != std::cmp::Ordering::Less
                    && ucmp.compare(table.smallest_user_key(), end) == std::cmp::Ordering::Less
                {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::RecordingEnv;
    use bolt_env::MemEnv;

    fn mem_db(opts: Options) -> (Arc<MemEnv>, Db) {
        let env = Arc::new(MemEnv::new());
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        (env, db)
    }

    fn small_opts(mut opts: Options) -> Options {
        opts.memtable_bytes = 64 << 10;
        opts.sstable_bytes = 16 << 10;
        opts.level1_max_bytes = 128 << 10;
        if let crate::options::CompactionStyle::Bolt(b) = &mut opts.compaction_style {
            b.logical_sstable_bytes = 8 << 10;
            b.group_compaction_bytes = 64 << 10;
        }
        opts
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"beta").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.get(b"gamma").unwrap(), None);
        db.delete(b"alpha").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn overwrites_visible_in_order() {
        let (_env, db) = mem_db(Options::leveldb());
        for i in 0..100 {
            db.put(b"k", format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(db.get(b"k").unwrap(), Some(b"v99".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn flush_moves_data_to_l0_and_reads_still_work() {
        let (_env, db) = mem_db(small_opts(Options::leveldb()));
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'x'; 100])
                .unwrap();
        }
        db.flush().unwrap();
        let info = db.level_info();
        assert!(info[0].tables >= 1, "L0 has tables after flush: {info:?}");
        for i in (0..500u32).step_by(37) {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(vec![b'x'; 100]),
                "key{i}"
            );
        }
        db.close().unwrap();
    }

    fn load_and_verify(opts: Options, n: u32) {
        let (_env, db) = mem_db(small_opts(opts));
        let value = |i: u32| format!("value-{i}-{}", "p".repeat(100)).into_bytes();
        for i in 0..n {
            db.put(format!("key{:06}", i % (n / 2)).as_bytes(), &value(i))
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        // Every key holds its newest value.
        for k in 0..(n / 2) {
            let newest = if k < n % (n / 2) {
                n - (n / 2) + k
            } else {
                k + (n / 2) - (n % (n / 2))
            };
            let _ = newest;
            // The newest write of key k is the last i with i % (n/2) == k.
            let last_i = ((n - 1 - k) / (n / 2)) * (n / 2) + k;
            assert_eq!(
                db.get(format!("key{k:06}").as_bytes()).unwrap(),
                Some(value(last_i)),
                "key{k}"
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn compaction_preserves_data_leveldb() {
        load_and_verify(Options::leveldb(), 3000);
    }

    #[test]
    fn compaction_preserves_data_bolt() {
        load_and_verify(Options::bolt(), 3000);
    }

    #[test]
    fn compaction_preserves_data_fragmented() {
        load_and_verify(Options::pebblesdb(), 3000);
    }

    #[test]
    fn bolt_uses_far_fewer_fsyncs_than_leveldb() {
        let run = |opts: Options| {
            let (env, db) = mem_db(small_opts(opts));
            for i in 0..4000u32 {
                db.put(format!("key{i:06}").as_bytes(), &[b'v'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            db.compact_until_quiet().unwrap();
            let syncs = env.stats().fsync_calls();
            db.close().unwrap();
            syncs
        };
        let leveldb = run(Options::leveldb());
        let bolt = run(Options::bolt());
        assert!(
            bolt * 2 <= leveldb,
            "bolt {bolt} fsyncs vs leveldb {leveldb}"
        );
    }

    #[test]
    fn snapshot_reads_are_stable() {
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"k", b"old").unwrap();
        let snap = db.snapshot();
        db.put(b"k", b"new").unwrap();
        db.delete(b"k2").unwrap();
        let ro = ReadOptions::new().with_snapshot(&snap);
        assert_eq!(db.get_opt(b"k", &ro).unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
        drop(snap);
        db.close().unwrap();
    }

    #[test]
    fn scan_returns_sorted_live_keys() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        for i in (0..300u32).rev() {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        db.delete(b"key00100").unwrap();
        db.flush().unwrap();
        for i in 300..400u32 {
            db.put(format!("key{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let mut iter = db.iter().unwrap();
        iter.seek(b"key00050").unwrap();
        let mut count = 0;
        let mut prev: Option<Vec<u8>> = None;
        while iter.valid() {
            let key = iter.key().to_vec();
            assert_ne!(key, b"key00100".to_vec(), "deleted key must not appear");
            if let Some(p) = &prev {
                assert!(*p < key);
            }
            prev = Some(key);
            count += 1;
            iter.next().unwrap();
        }
        assert_eq!(count, 400 - 50 - 1);
        db.close().unwrap();
    }

    #[test]
    fn recovery_restores_unflushed_writes() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"durable", b"yes").unwrap();
            db.close().unwrap();
        }
        // close() syncs the WAL, so a crash after close loses nothing.
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"durable").unwrap(), Some(b"yes".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let env = Arc::new(MemEnv::new());
        let opts = small_opts(Options::bolt());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            for i in 0..500u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'a'; 100])
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 500..600u32 {
                db.put(format!("key{i:05}").as_bytes(), &[b'b'; 100])
                    .unwrap();
            }
            db.close().unwrap();
        }
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        assert_eq!(db.get(b"key00001").unwrap(), Some(vec![b'a'; 100]));
        assert_eq!(db.get(b"key00550").unwrap(), Some(vec![b'b'; 100]));
        db.close().unwrap();
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let (_env, db) = mem_db(small_opts(Options::bolt()));
        let db = Arc::new(db);
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        db.put(
                            format!("t{t}-key{i:05}").as_bytes(),
                            format!("v{t}-{i}").as_bytes(),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for t in 0..4 {
            for i in (0..500u32).step_by(83) {
                assert_eq!(
                    db.get(format!("t{t}-key{i:05}").as_bytes()).unwrap(),
                    Some(format!("v{t}-{i}").into_bytes())
                );
            }
        }
        db.close().unwrap();
    }

    #[test]
    fn settled_compaction_happens_for_bolt() {
        let mut opts = small_opts(Options::bolt());
        opts.level0_compaction_trigger = 2;
        let (_env, db) = mem_db(opts);
        // Write several disjoint key ranges so zero-overlap victims exist.
        for round in 0..12u32 {
            for i in 0..200u32 {
                db.put(
                    format!("r{:02}key{i:05}", round % 6).as_bytes(),
                    &[b'z'; 128],
                )
                .unwrap();
            }
            db.flush().unwrap();
        }
        db.compact_until_quiet().unwrap();
        let moves = db.stats().settled_moves();
        assert!(moves > 0, "expected settled moves, stats: {:?}", db.stats());
        db.close().unwrap();
    }

    #[test]
    fn write_opt_overrides_sync_per_batch() {
        // Default async: Db::write pays no barrier, an explicit sync pays one.
        let (_env, db) = mem_db(Options::leveldb());
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.stats().wal_syncs(), 0);
        let mut batch = WriteBatch::new();
        batch.put(b"b", b"2");
        db.write_opt(batch, &WriteOptions::with_sync(true)).unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        db.close().unwrap();

        // Default sync: Db::write pays the barrier, an explicit non-sync
        // write skips it.
        let mut opts = Options::leveldb();
        opts.sync_wal = true;
        let (_env, db) = mem_db(opts);
        db.put(b"a", b"1").unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        let mut batch = WriteBatch::new();
        batch.put(b"b", b"2");
        db.write_opt(batch, &WriteOptions::with_sync(false))
            .unwrap();
        assert_eq!(db.stats().wal_syncs(), 1);
        db.close().unwrap();
    }

    #[test]
    fn every_write_passes_through_a_commit_group() {
        let (_env, db) = mem_db(Options::leveldb());
        for i in 0..10u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let snap = db.stats().snapshot();
        assert_eq!(snap.group_batches, 10);
        assert!(snap.write_groups >= 1 && snap.write_groups <= 10);
        assert_eq!(db.stats().queue_wait().count(), 10);
        db.close().unwrap();
    }

    #[test]
    fn group_commit_publishes_contiguous_sequences() {
        // Concurrent multi-entry batches: sequences must stay contiguous
        // (every batch gets `count` numbers, none skipped or reused) and
        // every batch must be atomic.
        let (_env, db) = mem_db(Options::leveldb());
        let db = Arc::new(db);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        let mut batch = WriteBatch::new();
                        batch.put(format!("t{t}-k{i:03}-a").as_bytes(), b"1");
                        batch.put(format!("t{t}-k{i:03}-b").as_bytes(), b"2");
                        db.write(batch).unwrap();
                        let seq = db.snapshot().sequence();
                        assert!(seq >= 2 * (i as u64 + 1), "t{t} i{i} seq {seq}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 8 threads x 100 batches x 2 entries each.
        assert_eq!(db.snapshot().sequence(), 1600);
        let snap = db.stats().snapshot();
        assert_eq!(snap.group_batches, 800);
        for t in 0..8 {
            for i in 0..100u32 {
                assert_eq!(
                    db.get(format!("t{t}-k{i:03}-a").as_bytes()).unwrap(),
                    Some(b"1".to_vec())
                );
                assert_eq!(
                    db.get(format!("t{t}-k{i:03}-b").as_bytes()).unwrap(),
                    Some(b"2".to_vec())
                );
            }
        }
        db.close().unwrap();
    }

    #[test]
    fn small_leader_is_not_held_hostage_by_large_followers() {
        // The merge cap for a tiny leading batch is its size + 128 KiB:
        // write a tiny batch followed (in the queue) by nothing and verify
        // the pipeline still commits it alone — then verify a huge batch
        // larger than the group cap also commits (the cap limits merging,
        // not batch size).
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 16 << 20;
        let (_env, db) = mem_db(opts);
        db.put(b"tiny", b"v").unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"huge", &vec![b'x'; 2 << 20]);
        db.write(batch).unwrap();
        assert_eq!(db.get(b"tiny").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.get(b"huge").unwrap(), Some(vec![b'x'; 2 << 20]));
        assert_eq!(db.stats().snapshot().group_batches, 2);
        db.close().unwrap();
    }

    fn txn_slice(pairs: &[(&[u8], &[u8])]) -> WriteBatch {
        let mut b = WriteBatch::new();
        for (k, v) in pairs {
            b.put(k, v);
        }
        b
    }

    #[test]
    fn txn_prepare_is_invisible_until_apply() {
        let (_env, db) = mem_db(Options::leveldb());
        let marker = ShardTxnMarker {
            txn_id: 1,
            shard_bitmap: 0b1,
        };
        db.txn_prepare(marker, txn_slice(&[(b"tk", b"tv")]))
            .unwrap();
        assert_eq!(db.get(b"tk").unwrap(), None);
        db.txn_apply(1).unwrap();
        assert_eq!(db.get(b"tk").unwrap(), Some(b"tv".to_vec()));
        // Interleaved writes still sequence correctly around the apply.
        db.put(b"tk", b"after").unwrap();
        assert_eq!(db.get(b"tk").unwrap(), Some(b"after".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn txn_forget_aborts_and_apply_rejects_unknown() {
        let (_env, db) = mem_db(Options::leveldb());
        let marker = ShardTxnMarker {
            txn_id: 5,
            shard_bitmap: 0b1,
        };
        db.txn_prepare(marker, txn_slice(&[(b"gone", b"x")]))
            .unwrap();
        db.txn_forget(5);
        assert!(matches!(db.txn_apply(5), Err(Error::InvalidArgument(_))));
        assert_eq!(db.get(b"gone").unwrap(), None);
        // Double-apply is rejected too.
        db.txn_prepare(marker, txn_slice(&[(b"once", b"x")]))
            .unwrap();
        db.txn_apply(5).unwrap();
        assert!(matches!(db.txn_apply(5), Err(Error::InvalidArgument(_))));
        db.close().unwrap();
    }

    #[test]
    fn recovery_commits_decided_prepare_and_drops_undecided() {
        let env = Arc::new(MemEnv::new());
        let open = |committed: &[u64]| {
            Db::open_with_committed_txns(
                Arc::clone(&env) as Arc<dyn Env>,
                "db",
                Options::leveldb(),
                committed.to_vec(),
            )
            .unwrap()
        };
        {
            let db = open(&[]);
            db.put(b"base", b"1").unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 7,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"committed", b"yes")]),
            )
            .unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 8,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"undecided", b"no")]),
            )
            .unwrap();
            db.close().unwrap();
        }
        // Reopen knowing only txn 7 committed: its slice must appear, txn
        // 8's must not, and the allocator seed must cover both ids.
        let db = open(&[7]);
        assert_eq!(db.get(b"base").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
        assert_eq!(db.recovered_max_txn_id(), 8);
        db.close().unwrap();
        // A second recovery must be stable: txn 7 was flushed by the first
        // recovery (I4 idempotency), txn 8 stays gone.
        let db = open(&[7]);
        assert_eq!(db.get(b"committed").unwrap(), Some(b"yes".to_vec()));
        assert_eq!(db.get(b"undecided").unwrap(), None);
        db.close().unwrap();
    }

    #[test]
    fn recovery_replays_applied_txn_at_its_marker_sequence() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"k", b"before").unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 3,
                    shard_bitmap: 0b1,
                },
                txn_slice(&[(b"k", b"txn")]),
            )
            .unwrap();
            db.txn_apply(3).unwrap();
            // A later write at a higher sequence must win after recovery —
            // this is exactly what the marker's recorded base_seq protects.
            db.put(b"k", b"after").unwrap();
            db.close().unwrap();
        }
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"after".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn pending_txn_pins_wal_across_rotation() {
        // Force memtable rotations while a prepare is pending: the prepare's
        // WAL file must survive obsolete-log deletion, so a reopen that
        // commits the transaction can still find the payload.
        let env = Arc::new(MemEnv::new());
        let mut opts = Options::leveldb();
        opts.memtable_bytes = 16 << 10;
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 11,
                    shard_bitmap: 0b1,
                },
                txn_slice(&[(b"pinned", b"alive")]),
            )
            .unwrap();
            for i in 0..200u32 {
                db.put(format!("fill{i:04}").as_bytes(), &[0u8; 512])
                    .unwrap();
            }
            db.flush().unwrap();
            db.close().unwrap();
        }
        let db =
            Db::open_with_committed_txns(Arc::clone(&env) as Arc<dyn Env>, "db", opts, vec![11u64])
                .unwrap();
        assert_eq!(db.get(b"pinned").unwrap(), Some(b"alive".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn markerless_decided_slices_replay_in_decide_order() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 9,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"k", b"decided-first")]),
            )
            .unwrap();
            db.txn_prepare(
                ShardTxnMarker {
                    txn_id: 4,
                    shard_bitmap: 0b11,
                },
                txn_slice(&[(b"k", b"decided-second")]),
            )
            .unwrap();
            db.close().unwrap();
        }
        // The coordinator decided 9 *before* 4 and both applied markers
        // were lost with the crash. Recovery must replay in decide order:
        // the later decide wins even though its txn id is smaller.
        let db = Db::open_with_committed_txns(
            Arc::clone(&env) as Arc<dyn Env>,
            "db",
            Options::leveldb(),
            vec![9, 4],
        )
        .unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"decided-second".to_vec()));
        db.close().unwrap();
    }

    #[test]
    fn orphan_applied_marker_below_the_floor_is_tolerated() {
        let env = Arc::new(MemEnv::new());
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
            db.put(b"k", b"v").unwrap();
            db.close().unwrap();
        }
        // Forge the aftermath of a crash mid log-deletion: a WAL below the
        // log floor holding an applied marker whose (older) prepare log is
        // already gone. The slice is durable in SSTables, so this must
        // open cleanly, not fail as corruption.
        {
            let file = env.new_writable_file(&log_file("db", 0)).unwrap();
            let mut w = LogWriter::new(file);
            w.add_record(&txn::encode_applied(7, 5)).unwrap();
            w.sync().unwrap();
        }
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", Options::leveldb()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        // The orphan marker still seeds the id allocator.
        assert_eq!(db.recovered_max_txn_id(), 7);
        db.close().unwrap();
    }

    #[test]
    fn log_deletion_stops_at_the_first_failure() {
        use bolt_env::{FaultEnv, FaultPlan};
        let fault = Arc::new(FaultEnv::over_mem());
        let env: Arc<dyn Env> = Arc::clone(&fault) as Arc<dyn Env>;
        let db = Db::open(Arc::clone(&env), "db", Options::leveldb()).unwrap();
        // Forge two dead WALs older than the live one.
        for num in [0u64, 1] {
            let mut file = env.new_writable_file(&log_file("db", num)).unwrap();
            file.sync().unwrap();
        }
        // Fail the first (oldest) delete: the deleter must stop rather
        // than skip ahead — deleting a newer log while an older one
        // survives is exactly the ordering recovery cannot tolerate.
        fault.set_plan(FaultPlan::parse("eio:delete:glob=*.log:nth=0").unwrap());
        let boundary = db.inner.state.lock().wal_number;
        db.inner.delete_obsolete_logs(boundary);
        assert_eq!(fault.faults_injected(), 1, "delete EIO never fired");
        assert!(env.file_exists(&log_file("db", 0)));
        assert!(
            env.file_exists(&log_file("db", 1)),
            "newer log deleted after an older delete failed"
        );
        // With the fault cleared the next sweep finishes the job.
        fault.set_plan(FaultPlan::new());
        db.inner.delete_obsolete_logs(boundary);
        assert!(!env.file_exists(&log_file("db", 0)));
        assert!(!env.file_exists(&log_file("db", 1)));
        db.close().unwrap();
    }

    fn sep_opts(threshold: u64) -> Options {
        let mut opts = small_opts(Options::bolt());
        opts.value_separation_threshold = Some(threshold);
        opts.vlog_segment_bytes = 16 << 10;
        opts
    }

    fn big(i: u32) -> Vec<u8> {
        vec![b'a' + (i % 26) as u8; 1024]
    }

    #[test]
    fn separated_values_roundtrip_all_read_paths() {
        let (env, db) = mem_db(sep_opts(128));
        for i in 0..32u32 {
            db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            db.put(format!("small{i:03}").as_bytes(), b"tiny").unwrap();
        }
        // Memtable hits resolve pointers.
        assert_eq!(db.get(b"big003").unwrap(), Some(big(3)));
        assert_eq!(db.get(b"small003").unwrap(), Some(b"tiny".to_vec()));
        let snap = db.snapshot();
        db.put(b"big003", &vec![b'z'; 2048]).unwrap();
        db.flush().unwrap();
        // SSTable hits resolve pointers; the snapshot still sees the old
        // separated value.
        assert_eq!(db.get(b"big003").unwrap(), Some(vec![b'z'; 2048]));
        let ro = ReadOptions::new().with_snapshot(&snap);
        assert_eq!(db.get_opt(b"big003", &ro).unwrap(), Some(big(3)));
        drop(snap);
        // Iterators resolve pointers to the full value bytes.
        let mut iter = db.iter().unwrap();
        iter.seek_to_first().unwrap();
        let mut bigs = 0;
        while iter.valid() {
            if iter.key().starts_with(b"big") {
                assert!(iter.value().len() >= 1024, "iterator leaked a pointer");
                bigs += 1;
            } else {
                assert_eq!(iter.value(), b"tiny");
            }
            iter.next().unwrap();
        }
        assert_eq!(bigs, 32);
        let stats = db.stats().snapshot();
        assert!(stats.vlog_values_separated >= 33, "{stats:?}");
        assert!(stats.vlog_resolves >= 34, "{stats:?}");
        // Separated payloads stay out of flush write amplification: 32 KiB
        // of big values cannot fit in the flushed table bytes.
        assert!(stats.flush_bytes < 16 << 10, "{stats:?}");
        let _ = env;
        db.close().unwrap();
    }

    #[test]
    fn separated_values_survive_crash_recovery() {
        let env = Arc::new(MemEnv::new());
        let opts = sep_opts(128);
        {
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts.clone()).unwrap();
            for i in 0..8u32 {
                db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            }
            db.flush().unwrap();
            // Unflushed separated writes must also survive: V1 barriers the
            // segment before the WAL record carrying the pointers.
            for i in 8..16u32 {
                db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            }
            db.close().unwrap();
        }
        env.crash(bolt_env::CrashConfig::Clean);
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
        for i in 0..16u32 {
            assert_eq!(
                db.get(format!("big{i:03}").as_bytes()).unwrap(),
                Some(big(i)),
                "big{i:03} lost or corrupted across recovery"
            );
        }
        // New separated writes after recovery use a fresh segment whose
        // number cannot collide with recovered ones.
        db.put(b"post-crash", &big(0)).unwrap();
        assert_eq!(db.get(b"post-crash").unwrap(), Some(big(0)));
        db.close().unwrap();
    }

    #[test]
    fn vlog_reads_open_each_segment_once_with_fd_cache() {
        for fd_cache in [true, false] {
            let env = Arc::new(RecordingEnv::default());
            let mut opts = sep_opts(128);
            if let crate::options::CompactionStyle::Bolt(b) = &mut opts.compaction_style {
                b.fd_cache = fd_cache;
            }
            let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, "db", opts).unwrap();
            for i in 0..48u32 {
                db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
            }
            db.flush().unwrap();
            let segments = env
                .list_dir("db")
                .unwrap()
                .iter()
                .filter(|n| n.ends_with(".vlog"))
                .filter(|n| env.file_size(&format!("db/{n}")).unwrap() > 0)
                .count() as u64;
            assert!(segments >= 3, "48 KiB over 16 KiB segments");
            let before = env.opens(".vlog");
            for _ in 0..3 {
                for i in 0..48u32 {
                    let key = format!("big{i:03}");
                    assert_eq!(db.get(key.as_bytes()).unwrap(), Some(big(i)));
                }
            }
            let mut iter = db.iter().unwrap();
            iter.seek_to_first().unwrap();
            let mut scanned = 0u64;
            while iter.valid() {
                assert_eq!(iter.value().len(), 1024);
                scanned += 1;
                iter.next().unwrap();
            }
            drop(iter);
            assert_eq!(scanned, 48);
            let opens = env.opens(".vlog") - before;
            if fd_cache {
                assert_eq!(opens, segments, "each segment opened once");
            } else {
                assert_eq!(opens, 3 * 48 + scanned, "one open per resolve");
            }
            db.close().unwrap();
        }
    }

    /// The oldest segment and the encoded pointer to its first value,
    /// `big(0)` written as big000 into a fresh database. Resolving it
    /// caches the segment's handle.
    fn first_value_pointer(db: &Db) -> (u64, [u8; vlog::POINTER_SIZE]) {
        assert_eq!(db.get(b"big000").unwrap(), Some(big(0)));
        let segment = *db
            .inner
            .versions
            .lock()
            .vlog_segments()
            .keys()
            .min()
            .unwrap();
        let ptr = ValuePointer {
            file_number: segment,
            offset: 0,
            len: 1024,
            crc: bolt_common::crc32c::crc32c(&big(0)),
        }
        .encode();
        assert_eq!(db.inner.resolve_pointer(&ptr).unwrap(), big(0));
        (segment, ptr)
    }

    #[test]
    fn gc_punched_range_through_cached_handle_is_corruption() {
        let (env, db) = mem_db(sep_opts(128));
        for i in 0..8u32 {
            db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
        }
        db.flush().unwrap();
        let (segment, old) = first_value_pointer(&db);
        // Overwrite and compact: the old pointer is dropped and its range
        // punched, while the segment stays live for big001..big007.
        db.put(b"big000", &big(1)).unwrap();
        db.flush().unwrap();
        db.compact_range(b"", b"zzzz").unwrap();
        db.inner
            .versions
            .lock()
            .collect_garbage(&db.inner.table_cache);
        let path = vlog_file("db", segment);
        assert!(env.file_exists(&path), "segment must stay live");
        let raw = env.new_random_access_file(&path).unwrap();
        assert!(
            raw.read(0, 1024).unwrap().iter().all(|&b| b == 0),
            "not punched"
        );
        let (_, opens) = db.table_cache().fd_stats();
        let err = db.inner.resolve_pointer(&old).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
        assert_eq!(db.table_cache().fd_stats().1, opens, "handle was reopened");
        assert_eq!(db.get(b"big000").unwrap(), Some(big(1)));
        assert_eq!(db.get(b"big007").unwrap(), Some(big(7)));
        db.close().unwrap();
    }

    #[test]
    fn retired_segment_resolves_not_found_not_stale_bytes() {
        let (env, db) = mem_db(sep_opts(128));
        for i in 0..48u32 {
            db.put(format!("big{i:03}").as_bytes(), &big(i)).unwrap();
        }
        db.flush().unwrap();
        let (segment, old) = first_value_pointer(&db);
        // Rewrite every key so the first segment is wholly dead, then let
        // GC retire it.
        for i in 0..48u32 {
            db.put(format!("big{i:03}").as_bytes(), &big(i + 1))
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_range(b"", b"zzzz").unwrap();
        db.inner
            .versions
            .lock()
            .collect_garbage(&db.inner.table_cache);
        assert!(!env.file_exists(&vlog_file("db", segment)), "not retired");
        let err = db.inner.resolve_pointer(&old).unwrap_err();
        assert!(err.is_not_found(), "got {err:?}");
        assert_eq!(db.get(b"big000").unwrap(), Some(big(1)));
        db.close().unwrap();
    }

    #[test]
    fn compaction_retires_fully_dead_vlog_segments() {
        let (env, db) = mem_db(sep_opts(128));
        for round in 0..4u32 {
            for i in 0..48u32 {
                let value = vec![b'a' + (round as u8), (i % 251) as u8]
                    .into_iter()
                    .cycle()
                    .take(1024)
                    .collect::<Vec<u8>>();
                db.put(format!("big{i:03}").as_bytes(), &value).unwrap();
            }
            db.flush().unwrap();
        }
        // Rewriting every key three times over 16 KiB segments leaves whole
        // early segments dead; compaction must report the drops and GC must
        // retire those files.
        db.compact_range(b"", b"zzzz").unwrap();
        let stats = db.stats().snapshot();
        assert!(stats.vlog_dead_bytes > 0, "{stats:?}");
        assert!(stats.vlog_segments_retired > 0, "{stats:?}");
        // Every surviving key still reads its full latest value.
        for i in 0..48u32 {
            let got = db.get(format!("big{i:03}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.len(), 1024);
            assert_eq!(got[0], b'a' + 3);
        }
        // Deletes condemned during a compaction are deferred while that
        // compaction's own pinned version is live; one more GC pass with no
        // pins reclaims them.
        {
            let mut versions = db.inner.versions.lock();
            versions.collect_garbage(&db.inner.table_cache);
        }
        // Retired segment files are really gone from disk.
        let names = env.list_dir("db").unwrap();
        let vlogs = names.iter().filter(|n| n.ends_with(".vlog")).count();
        let ledger = db.inner.versions.lock().vlog_segments().len();
        assert_eq!(vlogs, ledger, "on-disk segments diverge from the ledger");
        db.close().unwrap();
    }

    /// `small_opts(Options::bolt())` on a recording env, holding one
    /// flushed L0 table of 500 keys.
    fn flushed_bolt_db() -> (Arc<RecordingEnv>, Db) {
        let env = Arc::new(RecordingEnv::default());
        let db = Db::open(
            Arc::clone(&env) as Arc<dyn Env>,
            "db",
            small_opts(Options::bolt()),
        )
        .unwrap();
        for i in 0..500u32 {
            db.put(format!("key{i:05}").as_bytes(), &[b'x'; 100])
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        (env, db)
    }

    #[test]
    fn compaction_reads_each_span_once_and_bypasses_the_caches() {
        let (env, db) = flushed_bolt_db();
        let _ = db.events();
        let before = db.stats().snapshot();
        let tables = db.table_cache();
        let table_counters =
            |c: &TableCache| (c.open_count(), c.stats().hits(), c.stats().misses());
        let table_before = table_counters(tables);
        let blocks = &db.inner.block_cache;
        let block_before = (
            blocks.usage(),
            blocks.stats().hits(),
            blocks.stats().misses(),
        );
        env.clear_reads();

        // Push everything to the last level: after the first step, every
        // step's victims are the previous step's adjacent outputs.
        db.compact_range(b"key", b"kez").unwrap();

        let after = db.stats().snapshot();
        let victims: u64 = db
            .events()
            .iter()
            .filter_map(|e| match e.event {
                EngineEvent::CompactionBegin { victims, .. } => Some(victims),
                _ => None,
            })
            .sum();
        let spans = after.compaction_spans - before.compaction_spans;
        let reads = env.reads(".sst");
        assert!(
            spans >= 2,
            "expected several rewrite steps, got {spans} spans"
        );
        assert!(
            victims >= 3 * spans,
            "{victims} victims should coalesce into far fewer than {spans} x 3 spans"
        );
        assert_eq!(reads.len() as u64, spans, "one read per span: {reads:?}");
        assert_eq!(after.compaction_reads - before.compaction_reads, spans);
        let read_bytes: u64 = reads.iter().map(|&(_, _, len)| len).sum();
        assert_eq!(
            read_bytes,
            after.compaction_read_bytes - before.compaction_read_bytes
        );
        assert_eq!(
            read_bytes,
            after.compaction_input_bytes - before.compaction_input_bytes,
            "every victim byte read exactly once"
        );
        // Neither cache saw the victims.
        assert_eq!(table_counters(tables), table_before);
        assert_eq!(
            (
                blocks.usage(),
                blocks.stats().hits(),
                blocks.stats().misses()
            ),
            block_before
        );
        for i in (0..500u32).step_by(7) {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(vec![b'x'; 100])
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn corrupt_victim_block_fails_compaction_and_installs_nothing() {
        let (env, db) = flushed_bolt_db();
        let version = db.current_version();
        let victim = version.levels[0].runs[0].tables[0].clone();
        let ids =
            |v: &Version| -> Vec<u64> { v.all_tables().map(|(_, _, t)| t.table_id).collect() };
        let before = ids(&version);
        let files = |env: &RecordingEnv| {
            let mut names = env.list_dir("db").unwrap();
            names.retain(|n| n.ends_with(".sst"));
            names
        };
        let files_before = files(&env);

        // A byte inside the victim's first data block reads back flipped.
        env.flip_byte(Some((
            &table_file("db", victim.file_number),
            victim.offset + 16,
        )));
        let err = db.compact_range(b"key", b"kez").unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(ids(&db.current_version()), before, "nothing installed");
        assert_eq!(files(&env), files_before, "partial outputs reclaimed");
        let _ = db.close();
        drop(db);

        env.flip_byte(None);
        let db = Db::open(
            Arc::clone(&env) as Arc<dyn Env>,
            "db",
            small_opts(Options::bolt()),
        )
        .unwrap();
        for i in 0..500u32 {
            assert_eq!(
                db.get(format!("key{i:05}").as_bytes()).unwrap(),
                Some(vec![b'x'; 100]),
                "key{i:05}"
            );
        }
        db.close().unwrap();
    }

    #[test]
    fn manifest_stays_within_its_roll_bound_across_compactions() {
        let (env, db) = mem_db(small_opts(Options::bolt()));
        // Long keys make every flush and compaction edit large, while
        // compaction keeps the live snapshot to a few tables.
        let long_key = |i: u32| format!("{i}{}", "k".repeat(2048));
        for round in 0..200u32 {
            for i in 0..4 {
                db.put(long_key(i).as_bytes(), format!("v{round}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            db.compact_until_quiet().unwrap();
            let m = db.metrics();
            assert!(
                m.manifest_bytes <= m.manifest_roll_bound,
                "round {round}: live MANIFEST {} B past its bound {} B",
                m.manifest_bytes,
                m.manifest_roll_bound
            );
        }
        let m = db.metrics();
        assert!(m.manifest_rolls >= 2, "rolls: {}", m.manifest_rolls);
        assert_eq!(m.manifest_roll_failures, 0);
        let manifests = |env: &MemEnv| {
            let names = env.list_dir("db").unwrap();
            names.iter().filter(|n| n.starts_with("MANIFEST-")).count()
        };
        assert_eq!(manifests(&env), 1, "every outgrown MANIFEST was deleted");
        let scan = |db: &Db| {
            let mut iter = db.iter().unwrap();
            iter.seek_to_first().unwrap();
            let mut out = Vec::new();
            while iter.valid() {
                out.push((iter.key().to_vec(), iter.value().to_vec()));
                iter.next().unwrap();
            }
            out
        };
        let live = scan(&db);
        assert_eq!(live.len(), 4);
        assert!(live.iter().all(|(_, v)| v == b"v199"));
        db.close().unwrap();
        drop(db);
        let db = Db::open(
            Arc::clone(&env) as Arc<dyn Env>,
            "db",
            small_opts(Options::bolt()),
        )
        .unwrap();
        assert_eq!(scan(&db), live, "reopen yields an identical key space");
        db.close().unwrap();
    }
}
