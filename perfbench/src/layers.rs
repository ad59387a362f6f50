//! Per-layer metrics of one traced phase, from its spans and from the
//! engine's public counters (`Db::metrics`, `Db::table_cache().stats()`,
//! `Env::stats`).
//!
//! Layers are the engine's runtime modules: `db` (the public `Db` and
//! `DbIterator` calls), `commit` (group commit and write governors), `wal`,
//! `vlog`, `compaction` (compaction, versions and the MANIFEST), `table`
//! (tables, TableCache and the FD cache) and `env` (the device). Writes to
//! table files count as compaction, reads from them as table.
//!
//! Not measurable from outside the engine, so not reported: memtable insert
//! time, the per-source read probes (memtable, immutable memtable, L0, Ln),
//! block-cache hits (the block cache has no public counters), and the split
//! of flush and compaction time into merge CPU and I/O beyond what the
//! env spans of engine threads show.

use std::collections::HashMap;

use bolt_core::{BarrierCause, Db, MetricsSnapshot};

use crate::env::{EnvOp, EnvSpan, FileKind, OpKind, OpSpan};

/// The public counters a phase's per-layer metrics are diffed from.
#[derive(Debug, Clone)]
pub struct Counters {
    metrics: MetricsSnapshot,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counters {
    /// Read `db`'s counters now.
    pub fn of(db: &Db) -> Counters {
        Counters {
            metrics: db.metrics(),
            cache_hits: db.table_cache().stats().hits(),
            cache_misses: db.table_cache().stats().misses(),
        }
    }
}

/// What the clients did in the traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseOps {
    /// `put` calls.
    pub puts: u64,
    /// `get` calls.
    pub gets: u64,
    /// Scans (one `iter` + `seek` + `next`s each).
    pub scans: u64,
    /// Records the scans returned.
    pub records: u64,
    /// Throughput of the traced phase.
    pub traced_ops_per_s: f64,
    /// Throughput of the same phase run with tracing off.
    pub untraced_ops_per_s: f64,
}

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Name, `<layer>.<metric>`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// Env spans grouped by call, file kind and the kind of the enclosing op
/// (`None`: an engine thread).
type EnvKey = (EnvOp, FileKind, Option<OpKind>);

#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    count: u64,
    ns: u64,
    bytes: u64,
}

impl Agg {
    fn add(&mut self, span: &EnvSpan) {
        self.count += 1;
        self.ns += span.end_ns.saturating_sub(span.start_ns);
        self.bytes += span.bytes;
    }
}

/// Every per-layer metric of a traced phase. `before`/`after` bracket the
/// phase; `op_spans`/`env_spans` are the spans it recorded.
pub fn compute(
    before: &Counters,
    after: &Counters,
    op_spans: &[OpSpan],
    env_spans: &[EnvSpan],
    ops: PhaseOps,
) -> Vec<LayerMetric> {
    let kind_of: HashMap<u64, OpKind> = op_spans.iter().map(|s| (s.id, s.kind)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    let mut env: HashMap<EnvKey, Agg> = HashMap::new();
    for span in env_spans {
        let parent = kind_of.get(&span.parent).copied();
        if span.parent != 0 {
            *child_ns.entry(span.parent).or_default() += span.end_ns.saturating_sub(span.start_ns);
        }
        env.entry((span.op, span.file, parent))
            .or_default()
            .add(span);
    }
    let sum = |f: &dyn Fn(&EnvKey) -> bool| {
        env.iter()
            .filter(|(k, _)| f(k))
            .fold(Agg::default(), |a, (_, v)| Agg {
                count: a.count + v.count,
                ns: a.ns + v.ns,
                bytes: a.bytes + v.bytes,
            })
    };
    // Mean duration and mean self time (duration minus child env spans).
    let op_stats = |kind: OpKind| {
        let (mut n, mut total, mut own) = (0u64, 0u64, 0u64);
        for s in op_spans.iter().filter(|s| s.kind == kind) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            n += 1;
            total += dur;
            own += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        (n, total, own)
    };

    let (b, a) = (&before.metrics, &after.metrics);
    let db = |f: fn(&bolt_core::DbStatsSnapshot) -> u64| f(&a.db).saturating_sub(f(&b.db));
    let io = |f: fn(&bolt_env::IoSnapshot) -> u64| f(&a.io).saturating_sub(f(&b.io));
    let barriers = |c: BarrierCause| a.barrier_count(c).saturating_sub(b.barrier_count(c));

    let (puts, gets) = (ops.puts, ops.gets);
    let all_ops = ops.puts + ops.gets + ops.scans;
    let (n_put, _, put_self) = op_stats(OpKind::Put);
    let (n_get, _, get_self) = op_stats(OpKind::Get);
    let (n_iter, iter_ns, _) = op_stats(OpKind::Iter);
    let (n_seek, seek_ns, _) = op_stats(OpKind::Seek);
    let (n_next, next_ns, _) = op_stats(OpKind::Next);

    let wal_append = sum(&|k| k.0 == EnvOp::Append && k.1 == FileKind::Wal);
    let wal_sync = sum(&|k| k.0 == EnvOp::Sync && k.1 == FileKind::Wal);
    let vlog_sync = sum(&|k| k.0 == EnvOp::Sync && k.1 == FileKind::Vlog);
    let under_get = |op: EnvOp, file: FileKind| {
        sum(&|k: &EnvKey| k.0 == op && k.1 == file && k.2 == Some(OpKind::Get))
    };
    let vlog_open = under_get(EnvOp::Open, FileKind::Vlog);
    let vlog_read = under_get(EnvOp::Read, FileKind::Vlog);
    let table_open = under_get(EnvOp::Open, FileKind::Table);
    let table_read = under_get(EnvOp::Read, FileKind::Table);
    let manifest_sync = sum(&|k| k.0 == EnvOp::Sync && k.1 == FileKind::Manifest);
    let bg = sum(&|k| k.2.is_none());
    let bg_sync = sum(&|k| k.0 == EnvOp::Sync && k.2.is_none());
    let fg = sum(&|k| k.2.is_some());

    let compactions = db(|d| d.compactions);
    let hits = after.cache_hits.saturating_sub(before.cache_hits);
    let misses = after.cache_misses.saturating_sub(before.cache_misses);

    let m = |name, value, unit| LayerMetric { name, value, unit };
    vec![
        m("db.put_self_ns", per(put_self as f64, n_put), "ns"),
        m("db.get_self_ns", per(get_self as f64, n_get), "ns"),
        m("db.iter_ns", per(iter_ns as f64, n_iter), "ns"),
        m("db.seek_ns", per(seek_ns as f64, n_seek), "ns"),
        m("db.next_ns", per(next_ns as f64, n_next), "ns"),
        m(
            "db.scan_ns_per_record",
            per((iter_ns + seek_ns + next_ns) as f64, ops.records),
            "ns",
        ),
        m("db.scan_records", ops.records as f64, "count"),
        m(
            "commit.batches_per_group",
            per(db(|d| d.group_batches) as f64, db(|d| d.write_groups)),
            "ratio",
        ),
        m(
            "commit.queue_wait_ns_per_put",
            per(
                a.queue_wait.sum.saturating_sub(b.queue_wait.sum) as f64,
                puts,
            ),
            "ns",
        ),
        m(
            "commit.wal_syncs_per_put",
            per(db(|d| d.wal_syncs) as f64, puts),
            "ratio",
        ),
        m(
            "commit.stall_ns_per_put",
            per(db(|d| d.stall_nanos) as f64, puts),
            "ns",
        ),
        m("commit.stalls", db(|d| d.stalls) as f64, "count"),
        m("commit.slowdowns", db(|d| d.slowdowns) as f64, "count"),
        m(
            "wal.append_bytes_per_put",
            per(wal_append.bytes as f64, puts),
            "B",
        ),
        m(
            "wal.sync_wait_ns_per_put",
            per(wal_sync.ns as f64, puts),
            "ns",
        ),
        m(
            "vlog.resolves_per_get",
            per(db(|d| d.vlog_resolves) as f64, gets),
            "ratio",
        ),
        m(
            "vlog.opens_per_get",
            per(vlog_open.count as f64, gets),
            "ratio",
        ),
        m("vlog.read_ns_per_get", per(vlog_read.ns as f64, gets), "ns"),
        m(
            "vlog.sync_wait_ns_per_put",
            per(vlog_sync.ns as f64, puts),
            "ns",
        ),
        m("vlog.dead_bytes", db(|d| d.vlog_dead_bytes) as f64, "B"),
        m(
            "vlog.segments_retired",
            db(|d| d.vlog_segments_retired) as f64,
            "count",
        ),
        m("compaction.count", compactions as f64, "count"),
        m(
            "compaction.settled_moves",
            db(|d| d.settled_moves) as f64,
            "count",
        ),
        m(
            "compaction.rewritten_bytes_per_user_byte",
            per(
                db(|d| d.compaction_output_bytes) as f64,
                db(|d| d.user_bytes_written),
            ),
            "ratio",
        ),
        m(
            "compaction.barriers_per_compaction",
            per(
                (barriers(BarrierCause::CompactionData)
                    + barriers(BarrierCause::CompactionManifest)) as f64,
                compactions,
            ),
            "ratio",
        ),
        m(
            "compaction.manifest_syncs",
            manifest_sync.count as f64,
            "count",
        ),
        m("compaction.bg_io_s", bg.ns as f64 / 1e9, "s"),
        m("compaction.bg_sync_wait_s", bg_sync.ns as f64 / 1e9, "s"),
        m(
            "table.cache_hit_rate",
            per(hits as f64, hits + misses),
            "ratio",
        ),
        m(
            "table.opens_per_get",
            per(table_open.count as f64, gets),
            "ratio",
        ),
        m(
            "table.reads_per_get",
            per(table_read.count as f64, gets),
            "ratio",
        ),
        m(
            "table.read_ns_per_get",
            per(table_read.ns as f64, gets),
            "ns",
        ),
        m(
            "table.read_bytes_per_get",
            per(table_read.bytes as f64, gets),
            "B",
        ),
        m(
            "env.fsyncs_per_kop",
            per(io(|s| s.fsync_calls) as f64 * 1000.0, all_ops),
            "ratio",
        ),
        m("env.fg_io_ns_per_op", per(fg.ns as f64, all_ops), "ns"),
        m(
            "env.bytes_read_per_op",
            per(io(|s| s.bytes_read) as f64, all_ops),
            "B",
        ),
        m("env.holes_punched", io(|s| s.holes_punched) as f64, "count"),
        m(
            "trace.overhead",
            if ops.untraced_ops_per_s > 0.0 {
                ops.traced_ops_per_s / ops.untraced_ops_per_s
            } else {
                0.0
            },
            "ratio",
        ),
        m(
            "trace.spans",
            (op_spans.len() + env_spans.len()) as f64,
            "count",
        ),
    ]
}
