//! `bolt-tool bench` — the standing benchmark runner.
//!
//! Folds the former one-off PR benches (`bench_trajectory`,
//! `bench_policies`) and the value-separation suite into one subcommand
//! with a stable result schema, so every PR appends to the same
//! measurement surface instead of minting a new binary:
//!
//! * **trajectory** — sharded vs. single-engine write scaling on a
//!   bandwidth-bound simulated SSD (1 shard vs. 4 shards, YCSB Load/A/C).
//! * **policies** — write/read/space amplification per compaction policy
//!   (leveled, size-tiered, lazy-leveled) over the full YCSB suite.
//! * **value-separation** — YCSB Load write amplification and throughput
//!   at 4/16/64 KiB values with WAL-time key-value separation off vs. on.
//!
//! `--smoke` runs every suite at toy scale on a nearly-free device to
//! exercise the harness in CI; results are printed but not recorded and
//! the perf floors are not asserted (a toy key space says nothing about
//! amplification). A full run writes `BENCH_PR9.json` and enforces the
//! accumulated acceptance floors:
//!
//! * trajectory: 4-shard Load throughput ≥ 2.5× the single engine (PR 6),
//! * policies: lazy-leveled cumulative write amp below leveled's (PR 7),
//! * value-separation: 16 KiB-value Load write amp ≥ 2× lower with
//!   separation on than off (PR 9).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bolt_bench::{bench_device, CAPACITY_SCALE};
use bolt_common::{Error, Result};
use bolt_core::{CompactionPolicyKind, Db, Options};
use bolt_env::{DeviceModel, Env, SimEnv};
use bolt_sharded::{Router, ShardedDb};
use bolt_ycsb::{load_db, run_workload, BenchConfig, KvTarget, RunResult, Workload};

/// Stable schema version of the emitted JSON.
pub const BENCH_SCHEMA: u32 = 1;

/// Parsed `bolt-tool bench` arguments.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Toy scale, nearly-free device, no file output, no perf floors.
    pub smoke: bool,
    /// Output path for the full-run JSON.
    pub out: String,
    /// Suites to run (empty = all).
    pub suites: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            smoke: false,
            out: "BENCH_PR9.json".to_string(),
            suites: Vec::new(),
        }
    }
}

/// A nearly-free device so `--smoke` exercises every code path in
/// milliseconds.
fn smoke_device() -> DeviceModel {
    DeviceModel {
        write_bandwidth: 256 * 1024 * 1024,
        read_bandwidth: 256 * 1024 * 1024,
        read_base_latency: Duration::ZERO,
        barrier_latency: Duration::from_micros(10),
        time_scale: 1.0,
    }
}

/// The write-bandwidth-bound device of the trajectory suite: 2 MB/s
/// sequential writes and a 0.5 ms barrier make a synced group
/// queue-drain-bound, so aggregate throughput tracks aggregate device
/// bandwidth.
fn trajectory_device() -> DeviceModel {
    DeviceModel {
        write_bandwidth: 2 * 1024 * 1024,
        read_bandwidth: 48 * 1024 * 1024,
        read_base_latency: Duration::from_micros(30),
        barrier_latency: Duration::from_micros(500),
        time_scale: 1.0,
    }
}

// ---------------------------------------------------------------------
// trajectory suite
// ---------------------------------------------------------------------

struct TrajectoryRow {
    workload: &'static str,
    shards: usize,
    ops: u64,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
}

struct TrajectoryResult {
    rows: Vec<TrajectoryRow>,
    speedups: Vec<(&'static str, f64)>,
}

const TRAJECTORY_THREADS: usize = 8;
const TRAJECTORY_SHARDS: usize = 4;

fn trajectory_row(workload: &'static str, shards: usize, r: &RunResult) -> TrajectoryRow {
    TrajectoryRow {
        workload,
        shards,
        ops: r.ops,
        ops_per_sec: r.throughput(),
        p50_us: r.percentile(50.0) / 1_000,
        p99_us: r.percentile(99.0) / 1_000,
        p999_us: r.percentile(99.9) / 1_000,
    }
}

fn trajectory_phases<T: KvTarget>(
    db: &Arc<T>,
    shards: usize,
    cfg: &BenchConfig,
) -> Result<Vec<TrajectoryRow>> {
    let mut rows = Vec::new();
    rows.push(trajectory_row("Load", shards, &load_db(db, cfg)?));
    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    rows.push(trajectory_row(
        "A",
        shards,
        &run_workload(db, &Workload::a(), cfg, &cursor)?,
    ));
    rows.push(trajectory_row(
        "C",
        shards,
        &run_workload(db, &Workload::c(), cfg, &cursor)?,
    ));
    Ok(rows)
}

fn trajectory_suite(smoke: bool) -> Result<TrajectoryResult> {
    let device = if smoke {
        smoke_device()
    } else {
        trajectory_device()
    };
    let opts = || {
        let mut opts = Options::bolt().scaled(CAPACITY_SCALE);
        // The paper's durable-write regime: the WAL device gates
        // throughput, which is what sharding parallelizes.
        opts.sync_wal = true;
        opts
    };
    let cfg = BenchConfig {
        record_count: if smoke { 400 } else { 4_000 },
        op_count: if smoke { 400 } else { 4_000 },
        threads: TRAJECTORY_THREADS,
        value_len: 1024,
        seed: 0x5eed,
    };

    let env: Arc<dyn Env> = Arc::new(SimEnv::new(device));
    let db = Arc::new(Db::open(Arc::clone(&env), "bench-db", opts())?);
    let mut rows = trajectory_phases(&db, 1, &cfg)?;
    db.close()?;

    let envs: Vec<Arc<dyn Env>> = (0..TRAJECTORY_SHARDS)
        .map(|_| Arc::new(SimEnv::new(device)) as Arc<dyn Env>)
        .collect();
    let sharded = Arc::new(ShardedDb::open_with_envs(
        envs,
        "bench-db",
        opts(),
        Router::hash(TRAJECTORY_SHARDS)?,
    )?);
    rows.extend(trajectory_phases(&sharded, TRAJECTORY_SHARDS, &cfg)?);
    sharded.close()?;

    let mut speedups = Vec::new();
    for workload in ["Load", "A", "C"] {
        let single = rows
            .iter()
            .find(|r| r.workload == workload && r.shards == 1)
            .map_or(0.0, |r| r.ops_per_sec);
        let multi = rows
            .iter()
            .find(|r| r.workload == workload && r.shards == TRAJECTORY_SHARDS)
            .map_or(0.0, |r| r.ops_per_sec);
        speedups.push((workload, multi / single.max(1e-9)));
    }
    Ok(TrajectoryResult { rows, speedups })
}

// ---------------------------------------------------------------------
// policies suite
// ---------------------------------------------------------------------

struct PolicyRow {
    policy: &'static str,
    workload: &'static str,
    ops: u64,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    write_amp: f64,
    read_amp: f64,
}

struct PolicySummary {
    policy: &'static str,
    write_amp: f64,
    read_amp_c: f64,
    space_amp: f64,
    barriers_per_compaction: f64,
    compaction_reads: u64,
    compaction_spans: u64,
    manifest_bytes: u64,
    manifest_roll_bound: u64,
}

/// The count-based floors every run asserts, smoke runs included: they
/// count events rather than time them, so a noisy host cannot flip them.
///
/// * Compaction reads each input span once: reads ≤ spans.
/// * The live MANIFEST stays within its roll bound.
fn check_count_floors(p: &PoliciesResult) -> Result<()> {
    for s in &p.summary {
        if s.compaction_reads > s.compaction_spans {
            return Err(Error::InvalidState(format!(
                "{}: {} compaction reads over {} input spans (each span is read once)",
                s.policy, s.compaction_reads, s.compaction_spans
            )));
        }
        if s.manifest_bytes > s.manifest_roll_bound {
            return Err(Error::InvalidState(format!(
                "{}: live MANIFEST {} B past its roll bound {} B",
                s.policy, s.manifest_bytes, s.manifest_roll_bound
            )));
        }
    }
    Ok(())
}

struct PoliciesResult {
    rows: Vec<PolicyRow>,
    summary: Vec<PolicySummary>,
}

const POLICY_THREADS: usize = 4;

fn policy_leg(
    db: &Arc<Db>,
    policy: &'static str,
    workload: &'static str,
    result: &RunResult,
    before: &bolt_core::MetricsSnapshot,
    value_len: usize,
) -> PolicyRow {
    let after = db.metrics();
    let wrote = after.io.bytes_written - before.io.bytes_written;
    let accepted = after.db.user_bytes_written - before.db.user_bytes_written;
    let read = after.io.bytes_read - before.io.bytes_read;
    let requested = result.ops * value_len as u64;
    PolicyRow {
        policy,
        workload,
        ops: result.ops,
        ops_per_sec: result.throughput(),
        p50_us: result.percentile(50.0) / 1_000,
        p99_us: result.percentile(99.0) / 1_000,
        write_amp: if accepted == 0 {
            0.0
        } else {
            wrote as f64 / accepted as f64
        },
        read_amp: if requested == 0 {
            0.0
        } else {
            read as f64 / requested as f64
        },
    }
}

fn run_policy(
    policy: CompactionPolicyKind,
    device: DeviceModel,
    cfg: &BenchConfig,
) -> Result<(Vec<PolicyRow>, PolicySummary)> {
    let name = policy.as_str();
    let env: Arc<dyn Env> = Arc::new(SimEnv::new(device));
    let opts = {
        let mut opts = Options::bolt().scaled(CAPACITY_SCALE);
        opts.compaction_policy = policy;
        opts
    };
    let db = Arc::new(Db::open(Arc::clone(&env), "bench-db", opts)?);

    let mut rows = Vec::new();
    let before = db.metrics();
    let load = load_db(&db, cfg)?;
    rows.push(policy_leg(&db, name, "Load", &load, &before, cfg.value_len));

    let cursor = Arc::new(AtomicU64::new(cfg.record_count));
    let mut read_amp_c = 0.0;
    for workload in [
        Workload::a(),
        Workload::b(),
        Workload::c(),
        Workload::d(),
        Workload::e(),
        Workload::f(),
    ] {
        let before = db.metrics();
        let result = run_workload(&db, &workload, cfg, &cursor)?;
        let row = policy_leg(&db, name, workload.name, &result, &before, cfg.value_len);
        if workload.name == "C" {
            read_amp_c = row.read_amp;
        }
        rows.push(row);
    }

    // Settle so the space measurement sees committed tables, not an
    // in-flight memtable.
    db.flush()?;
    let metrics = db.metrics();
    let live_bytes: u64 = metrics.levels.iter().map(|l| l.bytes).sum();
    let loaded = cursor.load(Ordering::Relaxed) * cfg.value_len as u64;
    let summary = PolicySummary {
        policy: name,
        write_amp: metrics.write_amplification(),
        read_amp_c,
        space_amp: if loaded == 0 {
            0.0
        } else {
            live_bytes as f64 / loaded as f64
        },
        barriers_per_compaction: metrics.barriers_per_compaction(),
        compaction_reads: metrics.db.compaction_reads,
        compaction_spans: metrics.db.compaction_spans,
        manifest_bytes: metrics.manifest_bytes,
        manifest_roll_bound: metrics.manifest_roll_bound,
    };
    db.close()?;
    Ok((rows, summary))
}

fn policies_suite(smoke: bool) -> Result<PoliciesResult> {
    let device = if smoke {
        smoke_device()
    } else {
        bench_device()
    };
    let cfg = BenchConfig {
        record_count: if smoke { 400 } else { 8_000 },
        op_count: if smoke { 400 } else { 4_000 },
        threads: POLICY_THREADS,
        value_len: 1024,
        seed: 0x5eed,
    };
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for policy in [
        CompactionPolicyKind::Leveled,
        CompactionPolicyKind::SizeTiered,
        CompactionPolicyKind::LazyLeveled,
    ] {
        let (r, s) = run_policy(policy, device, &cfg)?;
        rows.extend(r);
        summary.push(s);
    }
    Ok(PoliciesResult { rows, summary })
}

// ---------------------------------------------------------------------
// value-separation suite
// ---------------------------------------------------------------------

struct VsepRow {
    value_len: usize,
    separated: bool,
    ops: u64,
    ops_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    write_amp: f64,
}

struct VsepResult {
    rows: Vec<VsepRow>,
    /// Per value size: `(value_len, write_amp_off / write_amp_on)`.
    reductions: Vec<(usize, f64)>,
}

/// Values above this go to the value log in the separated configuration.
const VSEP_THRESHOLD: u64 = 1024;

fn vsep_suite(smoke: bool) -> Result<VsepResult> {
    let sizes: &[usize] = if smoke {
        &[4096]
    } else {
        &[4096, 16384, 65536]
    };
    let total_bytes: u64 = if smoke { 1 << 20 } else { 16 << 20 };
    let mut rows = Vec::new();
    for &value_len in sizes {
        for separated in [false, true] {
            let device = if smoke {
                smoke_device()
            } else {
                bench_device()
            };
            let env: Arc<dyn Env> = Arc::new(SimEnv::new(device));
            let mut opts = Options::bolt().scaled(CAPACITY_SCALE);
            if separated {
                opts.value_separation_threshold = Some(VSEP_THRESHOLD);
            }
            let db = Arc::new(Db::open(Arc::clone(&env), "bench-db", opts)?);
            let cfg = BenchConfig {
                record_count: (total_bytes / value_len as u64).max(64),
                op_count: 0,
                threads: 4,
                value_len,
                seed: 0x5eed,
            };
            let before = db.metrics();
            let load = load_db(&db, &cfg)?;
            // Settle the tail so both configurations account for every
            // accepted byte, not whatever happened to still sit in the
            // memtable when the clock stopped.
            db.flush()?;
            let after = db.metrics();
            let wrote = after.io.bytes_written - before.io.bytes_written;
            let accepted = after.db.user_bytes_written - before.db.user_bytes_written;
            rows.push(VsepRow {
                value_len,
                separated,
                ops: load.ops,
                ops_per_sec: load.throughput(),
                p50_us: load.percentile(50.0) / 1_000,
                p99_us: load.percentile(99.0) / 1_000,
                p999_us: load.percentile(99.9) / 1_000,
                write_amp: if accepted == 0 {
                    0.0
                } else {
                    wrote as f64 / accepted as f64
                },
            });
            db.close()?;
        }
    }
    let mut reductions = Vec::new();
    for &value_len in sizes {
        let amp = |sep: bool| {
            rows.iter()
                .find(|r| r.value_len == value_len && r.separated == sep)
                .map_or(0.0, |r| r.write_amp)
        };
        reductions.push((value_len, amp(false) / amp(true).max(1e-9)));
    }
    Ok(VsepResult { rows, reductions })
}

// ---------------------------------------------------------------------
// rendering + driver
// ---------------------------------------------------------------------

fn render_json(
    smoke: bool,
    trajectory: Option<&TrajectoryResult>,
    policies: Option<&PoliciesResult>,
    vsep: Option<&VsepResult>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"bolt-tool-bench\",\n");
    out.push_str(&format!("  \"schema\": {BENCH_SCHEMA},\n"));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    let mut sections: Vec<String> = Vec::new();
    if let Some(t) = trajectory {
        let mut s = String::new();
        s.push_str("  \"trajectory\": {\n");
        s.push_str(&format!("    \"threads\": {TRAJECTORY_THREADS},\n"));
        s.push_str("    \"value_len\": 1024,\n    \"rows\": [\n");
        for (i, r) in t.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"workload\": \"{}\", \"shards\": {}, \"ops\": {}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}{}\n",
                r.workload,
                r.shards,
                r.ops,
                r.ops_per_sec,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                if i + 1 < t.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n    \"speedup_4x_over_1x\": {");
        for (i, (w, v)) in t.speedups.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {:.2}{}",
                w,
                v,
                if i + 1 < t.speedups.len() { ", " } else { "" }
            ));
        }
        s.push_str("}\n  }");
        sections.push(s);
    }
    if let Some(p) = policies {
        let mut s = String::new();
        s.push_str("  \"policies\": {\n");
        s.push_str(&format!("    \"threads\": {POLICY_THREADS},\n"));
        s.push_str("    \"value_len\": 1024,\n    \"rows\": [\n");
        for (i, r) in p.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"policy\": \"{}\", \"workload\": \"{}\", \"ops\": {}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"write_amp\": {:.2}, \"read_amp\": {:.2}}}{}\n",
                r.policy,
                r.workload,
                r.ops,
                r.ops_per_sec,
                r.p50_us,
                r.p99_us,
                r.write_amp,
                r.read_amp,
                if i + 1 < p.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n    \"summary\": [\n");
        for (i, x) in p.summary.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"policy\": \"{}\", \"write_amp\": {:.2}, \"read_amp_c\": {:.2}, \
                 \"space_amp\": {:.2}, \"barriers_per_compaction\": {:.2}}}{}\n",
                x.policy,
                x.write_amp,
                x.read_amp_c,
                x.space_amp,
                x.barriers_per_compaction,
                if i + 1 < p.summary.len() { "," } else { "" }
            ));
        }
        s.push_str("    ]\n  }");
        sections.push(s);
    }
    if let Some(v) = vsep {
        let mut s = String::new();
        s.push_str("  \"value_separation\": {\n");
        s.push_str(&format!(
            "    \"threads\": 4,\n    \"separation_threshold\": {VSEP_THRESHOLD},\n    \"rows\": [\n"
        ));
        for (i, r) in v.rows.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"workload\": \"Load\", \"value_len\": {}, \"separated\": {}, \
                 \"ops\": {}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \
                 \"p999_us\": {}, \"write_amp\": {:.2}}}{}\n",
                r.value_len,
                r.separated,
                r.ops,
                r.ops_per_sec,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.write_amp,
                if i + 1 < v.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("    ],\n    \"write_amp_reduction\": {");
        for (i, (len, red)) in v.reductions.iter().enumerate() {
            s.push_str(&format!(
                "\"{}\": {:.2}{}",
                len,
                red,
                if i + 1 < v.reductions.len() { ", " } else { "" }
            ));
        }
        s.push_str("}\n  }");
        sections.push(s);
    }
    out.push_str(&sections.join(",\n"));
    out.push_str("\n}\n");
    out
}

fn print_trajectory(t: &TrajectoryResult) {
    println!(
        "{:<9} {:>7} {:>12} {:>9} {:>9} {:>9}",
        "workload", "shards", "ops/s", "p50(us)", "p99(us)", "p999(us)"
    );
    for r in &t.rows {
        println!(
            "{:<9} {:>7} {:>12.1} {:>9} {:>9} {:>9}",
            r.workload, r.shards, r.ops_per_sec, r.p50_us, r.p99_us, r.p999_us
        );
    }
    for (w, s) in &t.speedups {
        println!("speedup {w}: {s:.2}x");
    }
}

fn print_policies(p: &PoliciesResult) {
    println!(
        "{:<13} {:<9} {:>10} {:>9} {:>9} {:>10} {:>9}",
        "policy", "workload", "ops/s", "p50(us)", "p99(us)", "write-amp", "read-amp"
    );
    for r in &p.rows {
        println!(
            "{:<13} {:<9} {:>10.1} {:>9} {:>9} {:>10.2} {:>9.2}",
            r.policy, r.workload, r.ops_per_sec, r.p50_us, r.p99_us, r.write_amp, r.read_amp
        );
    }
    for s in &p.summary {
        println!(
            "{}: write amp {:.2} | read amp (C) {:.2} | space amp {:.2} | barriers/compaction {:.2} \
             | compaction reads {} / spans {} | MANIFEST {} B of {} B",
            s.policy,
            s.write_amp,
            s.read_amp_c,
            s.space_amp,
            s.barriers_per_compaction,
            s.compaction_reads,
            s.compaction_spans,
            s.manifest_bytes,
            s.manifest_roll_bound
        );
    }
}

fn print_vsep(v: &VsepResult) {
    println!(
        "{:<10} {:>10} {:>12} {:>9} {:>9} {:>9} {:>10}",
        "value_len", "separated", "ops/s", "p50(us)", "p99(us)", "p999(us)", "write-amp"
    );
    for r in &v.rows {
        println!(
            "{:<10} {:>10} {:>12.1} {:>9} {:>9} {:>9} {:>10.2}",
            r.value_len, r.separated, r.ops_per_sec, r.p50_us, r.p99_us, r.p999_us, r.write_amp
        );
    }
    for (len, red) in &v.reductions {
        println!("write-amp reduction at {len} B values: {red:.2}x");
    }
}

/// Run the requested suites, print their tables, write the JSON (full
/// runs only), and enforce the accumulated perf floors.
///
/// # Errors
///
/// Returns database errors, I/O errors writing the result file, and
/// [`Error::InvalidState`] when a perf floor regressed.
pub fn run_bench(args: &BenchArgs) -> Result<()> {
    let known = ["trajectory", "policies", "value-separation"];
    for suite in &args.suites {
        if !known.contains(&suite.as_str()) {
            return Err(Error::InvalidArgument(format!(
                "unknown bench suite `{suite}` (try: {})",
                known.join(", ")
            )));
        }
    }
    let want = |name: &str| args.suites.is_empty() || args.suites.iter().any(|s| s == name);

    let trajectory = if want("trajectory") {
        let t = trajectory_suite(args.smoke)?;
        print_trajectory(&t);
        Some(t)
    } else {
        None
    };
    let policies = if want("policies") {
        let p = policies_suite(args.smoke)?;
        print_policies(&p);
        check_count_floors(&p)?;
        Some(p)
    } else {
        None
    };
    let vsep = if want("value-separation") {
        let v = vsep_suite(args.smoke)?;
        print_vsep(&v);
        Some(v)
    } else {
        None
    };

    if args.smoke {
        // CI smoke: harness correctness only — a toy key space on a free
        // device says nothing about amplification or scaling.
        let empty_phase = trajectory
            .iter()
            .flat_map(|t| t.rows.iter())
            .any(|r| r.ops == 0 || r.ops_per_sec <= 0.0)
            || policies
                .iter()
                .flat_map(|p| p.rows.iter())
                .any(|r| r.ops == 0 || r.ops_per_sec <= 0.0)
            || vsep
                .iter()
                .flat_map(|v| v.rows.iter())
                .any(|r| r.ops == 0 || r.ops_per_sec <= 0.0);
        if empty_phase {
            return Err(Error::InvalidState(
                "smoke run produced an empty phase".to_string(),
            ));
        }
        println!("smoke ok (results not recorded)");
        return Ok(());
    }

    let json = render_json(
        args.smoke,
        trajectory.as_ref(),
        policies.as_ref(),
        vsep.as_ref(),
    );
    std::fs::write(&args.out, &json)
        .map_err(|e| Error::io(format!("writing {}: {e}", args.out)))?;
    println!("(results written to {})", args.out);

    if let Some(t) = &trajectory {
        let load_speedup = t.speedups.first().map_or(0.0, |(_, s)| *s);
        if load_speedup < 2.5 {
            return Err(Error::InvalidState(format!(
                "write-heavy speedup regressed below the PR-6 floor: {load_speedup:.2}x < 2.5x"
            )));
        }
    }
    if let Some(p) = &policies {
        let leveled = p.summary.first().map_or(0.0, |s| s.write_amp);
        let lazy = p.summary.last().map_or(f64::MAX, |s| s.write_amp);
        if lazy >= leveled {
            return Err(Error::InvalidState(format!(
                "lazy-leveled write amp must beat leveled on the write-heavy suite: \
                 {lazy:.2} >= {leveled:.2}"
            )));
        }
    }
    if let Some(v) = &vsep {
        let at_16k = v
            .reductions
            .iter()
            .find(|(len, _)| *len == 16384)
            .map_or(0.0, |(_, r)| *r);
        if at_16k < 2.0 {
            return Err(Error::InvalidState(format!(
                "16 KiB-value Load write amp must be >=2x lower with separation on: \
                 got {at_16k:.2}x"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_vsep_suite_runs_and_separates() {
        let v = vsep_suite(true).unwrap();
        assert_eq!(v.rows.len(), 2);
        assert!(v.rows.iter().all(|r| r.ops > 0));
        // Even at toy scale the separated configuration must write fewer
        // device bytes per user byte than the unseparated one — the values
        // skip the flush path entirely.
        let off = v.rows.iter().find(|r| !r.separated).unwrap().write_amp;
        let on = v.rows.iter().find(|r| r.separated).unwrap().write_amp;
        assert!(on < off, "separated {on:.2} >= unseparated {off:.2}");
    }

    #[test]
    fn unknown_suite_is_rejected() {
        let args = BenchArgs {
            suites: vec!["no-such-suite".to_string()],
            ..BenchArgs::default()
        };
        assert!(run_bench(&args).is_err());
    }

    #[test]
    fn render_json_emits_every_section() {
        let t = TrajectoryResult {
            rows: vec![TrajectoryRow {
                workload: "Load",
                shards: 1,
                ops: 10,
                ops_per_sec: 100.0,
                p50_us: 1,
                p99_us: 2,
                p999_us: 3,
            }],
            speedups: vec![("Load", 3.0)],
        };
        let v = VsepResult {
            rows: vec![VsepRow {
                value_len: 16384,
                separated: true,
                ops: 10,
                ops_per_sec: 100.0,
                p50_us: 1,
                p99_us: 2,
                p999_us: 3,
                write_amp: 1.1,
            }],
            reductions: vec![(16384, 2.5)],
        };
        let json = render_json(false, Some(&t), None, Some(&v));
        assert!(json.contains("\"trajectory\""));
        assert!(json.contains("\"value_separation\""));
        assert!(json.contains("\"write_amp_reduction\": {\"16384\": 2.50}"));
        assert!(!json.contains("\"policies\""));
        // Well-formed JSON (no trailing commas, balanced braces).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
    }
}
