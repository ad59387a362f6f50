//! Crash-point sweep harness.
//!
//! Runs a write + flush + group-compaction + settled-compaction +
//! pinned-hole-punch workload over a [`FaultEnv`], *records* the op trace,
//! then replays the workload crashing at every selected op index (plus an
//! `EIO` sweep over sync ordinals, plus a *double-crash* sweep that crashes
//! again inside the `Db::open` recovery replay). After each crash the
//! database is reopened and the four recovery invariants of DESIGN.md §9
//! are checked:
//!
//! * **I1 — acked-sync durability**: every write acknowledged with
//!   `sync = true` (or acknowledged at all before a completed flush)
//!   survives recovery.
//! * **I2 — batch atomicity**: a batch is visible in full or not at all;
//!   the workload writes each batch as a two-key pair that must never
//!   diverge.
//! * **I3 — MANIFEST integrity**: the recovered MANIFEST references only
//!   logical SSTables whose bytes are present and checksum-clean (never
//!   unsynced or hole-punched data).
//! * **I4 — idempotent re-recovery**: closing and reopening the recovered
//!   database yields the identical key space.
//!
//! With [`SweepConfig::vlog`] the same workload runs under WAL-time value
//! separation (a tiny threshold routes every pair value through the value
//! log, and tiny segments force rotations), every `.vlog` op in the trace
//! becomes a forced crash point, and the invariants above subsume the
//! value-log contract of DESIGN.md §14:
//!
//! * **V1 — no dangling pointers**: every key readable after recovery
//!   resolves to its full value (`get` and the full scan of I4 resolve
//!   every stored pointer; a pointer into missing, truncated, or punched
//!   value-log bytes surfaces as a `Corruption` error and is reported).
//!
//! The workload also runs a *range-delete phase* (a dedicated `rd*` key
//! space whose middle is covered by one ranged tombstone, then partially
//! resurrected), checked after every crash as:
//!
//! * **I5 — range-tombstone durability**: once the tombstone is durable,
//!   covered keys stay gone (unless durably reborn); uncovered keys and
//!   not-yet-deleted keys read back their exact durable values.
//!
//! With [`SweepConfig::checkpoint`] the workload ends with an online
//! [`Db::checkpoint`] into `ckpt/`, every op in the checkpoint window is a
//! forced crash point, and each crash additionally checks DESIGN.md §15:
//!
//! * **C1 — checkpoint atomicity**: an *acked* checkpoint directory opens
//!   cleanly and scans byte-identical to the pinned snapshot; an unacked
//!   one either lacks `CURRENT` (ignorable garbage) or opens cleanly.
//!
//! Invariant violations are *collected*, not thrown, so one sweep reports
//! every broken crash point at once.

use std::sync::Arc;

use bolt_common::Result;
use bolt_core::{CompactionPolicyKind, Db, Options, WriteBatch, WriteOptions};
use bolt_env::{CrashConfig, Env, FaultEnv, FaultPlan, OpKind, OpRecord};

use crate::verify_db;

/// Number of two-key pairs in the workload key space.
const PAIRS: usize = 24;
/// Write rounds; every pair is rewritten each round.
const ROUNDS: u32 = 6;
/// Disjoint filler ranges cycled across rounds. Each range is written in
/// its own round(s), so whole L0 runs have zero overlap at the level below
/// — the shape settled compaction promotes without rewriting.
const FILLER_RANGES: u32 = 3;
/// Filler keys written per round.
const FILLER_PER_ROUND: u32 = 60;
/// Keys in the pinned hole-punch range (`h0000..`); the middle third is
/// rewritten to kill its logical tables while the flanks stay live.
const HOLE_KEYS: u32 = 120;

/// Keys in the range-delete phase key space (`rd0000..`).
const RD_KEYS: u32 = 90;
/// The ranged tombstone covers `[RD_DEL_BEGIN, RD_DEL_END)`.
const RD_DEL_BEGIN: u32 = 20;
const RD_DEL_END: u32 = 70;
/// Covered keys rewritten ("reborn") after the tombstone.
const RD_REBIRTH_BEGIN: u32 = 30;
const RD_REBIRTH_END: u32 = 35;

/// Length of the two keys the MANIFEST-roll phase rewrites. Every edit
/// naming a table that holds them carries their bytes, while compaction
/// keeps the live snapshot to a few such tables, so a handful of flushes
/// outgrows the MANIFEST's roll bound.
const ROLL_KEY_BYTES: usize = 4096;
/// Flush rounds the roll phase may take before the sweep gives up on it.
const ROLL_MAX_ROUNDS: u32 = 64;

fn hole_key(i: u32) -> String {
    format!("h{i:04}")
}

fn rd_key(i: u32) -> String {
    format!("rd{i:04}")
}

fn roll_key(i: u32) -> String {
    format!("m{i}{}", "k".repeat(ROLL_KEY_BYTES))
}

fn rd_alive(i: u32) -> Vec<u8> {
    // Padding pushes the value past the vlog separation threshold, so in
    // vlog mode the tombstone covers separated values.
    format!("alive-{i:04}-{}", "a".repeat(72)).into_bytes()
}

fn rd_reborn(i: u32) -> Vec<u8> {
    format!("reborn-{i:04}-{}", "b".repeat(72)).into_bytes()
}

/// How far the workload's range-delete phase provably got, in durability
/// terms. Each transition is recorded *around* the call that makes it
/// true, so after a crash the recovered state can be asserted exactly at
/// the boundaries and left indeterminate in between (an unsynced
/// tombstone may or may not have reached the WAL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
enum RdPhase {
    /// Phase not reached (or its writes not yet flushed).
    #[default]
    NotStarted,
    /// All `rd*` writes flushed: they are durable.
    WritesDurable,
    /// `delete_range` was issued; its ack is unknown.
    DeleteAttempted,
    /// `delete_range` returned `Ok` (unsynced).
    DeleteAcked,
    /// A flush completed after the ack: the tombstone is durable.
    DeleteDurable,
    /// Rebirth writes were issued over the covered range.
    RebirthAttempted,
    /// Rebirth writes flushed: they are durable.
    RebirthDurable,
}

/// Sweep tuning knobs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Base seed for torn-tail crash randomness (the sweep itself is
    /// deterministic given the seed).
    pub seed: u64,
    /// Upper bound on enumerated crash points.
    pub max_crash_points: usize,
    /// Upper bound on `EIO`-on-sync points.
    pub max_eio_points: usize,
    /// Workload crash points re-used as the *first* crash of a
    /// double-crash pair (0 disables the double-crash phase).
    pub max_double_crash_first: usize,
    /// Recovery-replay ops crashed per first crash point (the *second*
    /// crash, landing inside `Db::open`).
    pub max_double_crash_second: usize,
    /// Compaction policy the swept database runs. The recovery invariants
    /// I1–I4 must hold regardless of how victims are picked.
    pub policy: CompactionPolicyKind,
    /// Run the workload under WAL-time value separation and force-cover
    /// every `.vlog` op (appends torn) as a crash point.
    pub vlog: bool,
    /// End the workload with an online [`Db::checkpoint`] into `ckpt/`,
    /// force-cover every op inside the checkpoint window, and check
    /// invariant C1 after each crash: an acked checkpoint opens cleanly
    /// and equals the pinned snapshot; an unacked one either has no
    /// `CURRENT` (ignorable garbage) or still opens cleanly.
    pub checkpoint: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xB017,
            max_crash_points: 72,
            max_eio_points: 16,
            max_double_crash_first: 4,
            max_double_crash_second: 5,
            policy: CompactionPolicyKind::Leveled,
            vlog: false,
            checkpoint: false,
        }
    }
}

/// Workload phase coverage observed during the record run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepCoverage {
    /// MemTable flushes completed.
    pub flushes: u64,
    /// Compactions completed.
    pub compactions: u64,
    /// Settled (MANIFEST-only) promotions.
    pub settled_moves: u64,
    /// Holes punched reclaiming dead logical SSTables.
    pub holes_punched: u64,
    /// Self-healing MANIFEST re-cuts (O5) that absorbed an injected fault.
    pub recuts: u64,
    /// MANIFEST rolls completed (the live MANIFEST outgrew its bound).
    pub manifest_rolls: u64,
    /// MANIFEST rolls that failed; each absorbed one injected fault behind
    /// a commit that was already durable.
    pub roll_failures: u64,
    /// Values routed to the value log (vlog mode only).
    pub vlog_separated: u64,
    /// Value-log segments retired whole by compaction (vlog mode only).
    pub vlog_retired: u64,
    /// Ranged tombstones written by the range-delete phase.
    pub range_deletes: u64,
    /// Online checkpoints completed (checkpoint mode only).
    pub checkpoints: u64,
}

/// Everything a sweep learned.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Compaction policy the sweep ran under.
    pub policy: CompactionPolicyKind,
    /// Ops counted in the record run.
    pub ops_recorded: u64,
    /// Sync/ordering barriers counted in the record run.
    pub syncs_recorded: u64,
    /// Phase markers from the record run, as `(op_index, label)`.
    pub phases: Vec<(u64, String)>,
    /// Crash points actually exercised (op indices).
    pub crash_points: Vec<u64>,
    /// Force-covered windows reached by the record run, as `(name, crash
    /// points inside the window)`.
    pub windows: Vec<(&'static str, usize)>,
    /// Sync ordinals exercised with injected `EIO`.
    pub eio_points: Vec<u64>,
    /// Double-crash pairs exercised, as `(workload op, recovery op)`: the
    /// first crash interrupts the workload, the second interrupts the
    /// `Db::open` replay recovering from it.
    pub double_crash_points: Vec<(u64, u64)>,
    /// Coverage counters from the record run.
    pub coverage: SweepCoverage,
    /// Human-readable invariant violations (empty on a clean sweep).
    pub violations: Vec<String>,
}

/// Per-pair model of what the workload was told about its own writes.
#[derive(Debug, Clone, Copy, Default)]
struct PairState {
    /// Highest round whose write call was *issued* (acked or not).
    attempted: Option<u32>,
    /// Highest round acknowledged (`write_opt` returned `Ok`).
    acked: Option<u32>,
    /// Highest round guaranteed durable: acked with `sync = true`, or
    /// acked before a flush that completed.
    durable_floor: Option<u32>,
}

struct WorkloadOutcome {
    pairs: Vec<PairState>,
    /// Range-delete phase progress (see [`RdPhase`]).
    rd: RdPhase,
    /// `Db::checkpoint("ckpt")` returned `Ok` (checkpoint mode only).
    ckpt_acked: bool,
    /// Full scan captured right after the checkpoint ack, while quiescent:
    /// exactly the image the checkpoint pinned.
    ckpt_expected: Option<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Errors the workload observed (write/flush/compact/close).
    errors: usize,
    stats: SweepCoverage,
}

fn pair_keys(p: usize) -> (String, String) {
    (format!("k{p:03}a"), format!("k{p:03}b"))
}

fn pair_value(round: u32, p: usize) -> String {
    // Round is recoverable from the value; padding forces enough bytes
    // through the memtable that flushes and compactions actually happen.
    format!("r{round:04}-p{p:03}-{}", "v".repeat(72))
}

fn value_round(value: &[u8]) -> Option<u32> {
    let s = std::str::from_utf8(value).ok()?;
    s.strip_prefix('r')?.get(..4)?.parse().ok()
}

/// Run the fixed workload over `env`. Every I/O failure is tolerated and
/// counted; once the env reports a crash the workload stops early.
fn run_workload(env: &FaultEnv, opts: &Options, marks: bool, checkpoint: bool) -> WorkloadOutcome {
    let mut out = WorkloadOutcome {
        pairs: vec![PairState::default(); PAIRS],
        rd: RdPhase::default(),
        ckpt_acked: false,
        ckpt_expected: None,
        errors: 0,
        stats: SweepCoverage::default(),
    };
    let arc_env: Arc<dyn Env> = Arc::new(env.clone());
    let db = match Db::open(arc_env, "db", opts.clone()) {
        Ok(db) => db,
        Err(_) => {
            out.errors += 1;
            return out;
        }
    };
    'work: {
        for round in 0..ROUNDS {
            for p in 0..PAIRS {
                let (ka, kb) = pair_keys(p);
                let value = pair_value(round, p);
                let mut batch = WriteBatch::new();
                batch.put(ka.as_bytes(), value.as_bytes());
                batch.put(kb.as_bytes(), value.as_bytes());
                let sync = (round as usize + p).is_multiple_of(3);
                out.pairs[p].attempted = Some(round);
                match db.write_opt(batch, &WriteOptions { sync: Some(sync) }) {
                    Ok(()) => {
                        out.pairs[p].acked = Some(round);
                        if sync {
                            out.pairs[p].durable_floor = Some(round);
                        }
                    }
                    Err(_) => {
                        out.errors += 1;
                        if env.crashed() {
                            break 'work;
                        }
                    }
                }
            }
            // Filler writes: round r rewrites disjoint range `f{r % 3}`.
            // The disjointness manufactures settled-compaction victims;
            // rewriting a range on a later round kills the earlier tables so
            // garbage collection has holes to punch.
            for i in 0..FILLER_PER_ROUND {
                let key = format!("f{:02}key{i:04}", round % FILLER_RANGES);
                if db.put(key.as_bytes(), &[b'z'; 100]).is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                }
            }
            if marks {
                env.mark(&format!("round-{round}"));
            }
            match db.flush() {
                Ok(()) => {
                    // A completed flush commits the memtable: everything
                    // acknowledged so far is durable even without sync.
                    for pair in &mut out.pairs {
                        if pair.acked.is_some() {
                            pair.durable_floor = pair.durable_floor.max(pair.acked);
                        }
                    }
                }
                Err(_) => {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                }
            }
            if round % 2 == 1 {
                if db.compact_until_quiet().is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                } else if marks {
                    env.mark(&format!("compact-{round}"));
                }
            }
        }
        if db.compact_until_quiet().is_err() {
            out.errors += 1;
        } else if marks {
            env.mark("final-compact");
        }
        // Pinned hole-punch phase: settle one compaction file full of `h*`
        // logical tables, then rewrite and compact only the middle of the
        // range. The flanking tables stay live and pin the file, so GC can
        // only reclaim the dead middle by punching holes — deterministic
        // `holes_punched > 0` coverage instead of hoping a partially-live
        // file falls out of the main workload.
        'punch: {
            for i in 0..HOLE_KEYS {
                if db.put(hole_key(i).as_bytes(), &[b'h'; 160]).is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'punch;
                }
            }
            if db.flush().is_err() || db.compact_until_quiet().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'punch;
            }
            for i in HOLE_KEYS / 3..2 * HOLE_KEYS / 3 {
                if db.put(hole_key(i).as_bytes(), &[b'H'; 160]).is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'punch;
                }
            }
            if db.flush().is_err()
                || db
                    .compact_range(
                        hole_key(HOLE_KEYS / 3).as_bytes(),
                        hole_key(2 * HOLE_KEYS / 3).as_bytes(),
                    )
                    .is_err()
                || db.compact_until_quiet().is_err()
            {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'punch;
            }
            if marks {
                env.mark("hole-punch");
            }
        }
        // Range-delete phase: write a dedicated key space durably, cover
        // its middle with one ranged tombstone, make the tombstone durable,
        // then resurrect a few covered keys and push everything through
        // compaction. `out.rd` records each durability boundary so the
        // recovery invariants can assert exactly at the boundaries and
        // stay agnostic in between.
        'rdel: {
            for i in 0..RD_KEYS {
                if db.put(rd_key(i).as_bytes(), &rd_alive(i)).is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'rdel;
                }
            }
            if db.flush().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'rdel;
            }
            out.rd = RdPhase::WritesDurable;
            if marks {
                env.mark("range-delete");
            }
            out.rd = RdPhase::DeleteAttempted;
            match db.delete_range(
                rd_key(RD_DEL_BEGIN).as_bytes(),
                rd_key(RD_DEL_END).as_bytes(),
            ) {
                Ok(()) => out.rd = RdPhase::DeleteAcked,
                Err(_) => {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'rdel;
                }
            }
            if db.flush().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'rdel;
            }
            out.rd = RdPhase::DeleteDurable;
            out.rd = RdPhase::RebirthAttempted;
            for i in RD_REBIRTH_BEGIN..RD_REBIRTH_END {
                if db.put(rd_key(i).as_bytes(), &rd_reborn(i)).is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'rdel;
                }
            }
            if db.flush().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'rdel;
            }
            out.rd = RdPhase::RebirthDurable;
            // Drive the tombstone down through the data tables.
            if db.compact_until_quiet().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
            }
        }
        // Self-healing re-cut phase (O5): write one more round, then arm a
        // MANIFEST-sync EIO and flush. The failed commit barrier must be
        // absorbed by a re-cut — the flush still acknowledges durably, with
        // no reopen. The `recut-arm`/`recut-done` markers bound the window
        // whose every intermediate state (torn old MANIFEST, unswung
        // CURRENT, not-yet-re-appended edit) the crash sweep force-covers.
        'recut: {
            for p in 0..PAIRS {
                let (ka, kb) = pair_keys(p);
                let value = pair_value(ROUNDS, p);
                let mut batch = WriteBatch::new();
                batch.put(ka.as_bytes(), value.as_bytes());
                batch.put(kb.as_bytes(), value.as_bytes());
                out.pairs[p].attempted = Some(ROUNDS);
                match db.write_opt(batch, &WriteOptions { sync: Some(false) }) {
                    Ok(()) => out.pairs[p].acked = Some(ROUNDS),
                    Err(_) => {
                        out.errors += 1;
                        if env.crashed() {
                            break 'work;
                        }
                        break 'recut;
                    }
                }
            }
            if marks {
                env.mark("recut-arm");
            }
            env.extend_plan(
                FaultPlan::parse("eio:sync:glob=MANIFEST-*:nth=0").expect("static plan"),
            );
            match db.flush() {
                Ok(()) => {
                    for pair in &mut out.pairs {
                        if pair.acked.is_some() {
                            pair.durable_floor = pair.durable_floor.max(pair.acked);
                        }
                    }
                }
                Err(_) => {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'recut;
                }
            }
            if marks {
                env.mark("recut-done");
            }
        }
        // MANIFEST-roll phase: rewrite two long keys, flush and settle,
        // round after round, until a commit rolls the MANIFEST. Every round
        // starts quiescent and ends settled, so a roll a background
        // compaction commits stays inside the round that triggered it. The
        // last `roll-arm` before `roll-done` bounds that round, and the
        // sweep force-covers it: the fresh snapshot's append and sync, the
        // CURRENT temp write and rename, and the old file's delete are all
        // crash points checked against I1-I4.
        'roll: {
            if db.compact_until_quiet().is_err() {
                out.errors += 1;
                if env.crashed() {
                    break 'work;
                }
                break 'roll;
            }
            for _ in 0..ROLL_MAX_ROUNDS {
                let rolls = db.metrics().manifest_rolls;
                if marks {
                    env.mark("roll-arm");
                }
                for i in 0..2 {
                    if db.put(roll_key(i).as_bytes(), b"v").is_err() {
                        out.errors += 1;
                        if env.crashed() {
                            break 'work;
                        }
                        break 'roll;
                    }
                }
                if db.flush().is_err() || db.compact_until_quiet().is_err() {
                    out.errors += 1;
                    if env.crashed() {
                        break 'work;
                    }
                    break 'roll;
                }
                if db.metrics().manifest_rolls > rolls {
                    if marks {
                        env.mark("roll-done");
                    }
                    break 'roll;
                }
            }
        }
        // Online-checkpoint phase (C1): checkpoint into `ckpt/` and capture
        // the exact image the ack promised (the workload is quiescent, so a
        // post-ack scan *is* the pinned snapshot). The `ckpt-arm` /
        // `ckpt-done` markers bound the window whose every op the sweep
        // force-covers: a crash anywhere inside must leave either no
        // `ckpt/CURRENT` (ignorable garbage) or a complete, openable image.
        if checkpoint {
            'ckpt: {
                if marks {
                    env.mark("ckpt-arm");
                }
                match db.checkpoint("ckpt") {
                    Ok(_) => out.ckpt_acked = true,
                    Err(_) => {
                        out.errors += 1;
                        if env.crashed() {
                            break 'work;
                        }
                        break 'ckpt;
                    }
                }
                match full_scan(&db) {
                    Ok(scan) => out.ckpt_expected = Some(scan),
                    Err(_) => {
                        out.errors += 1;
                        if env.crashed() {
                            break 'work;
                        }
                    }
                }
                if marks {
                    env.mark("ckpt-done");
                }
            }
        }
    }
    if db.close().is_err() {
        out.errors += 1;
    }
    // Capture coverage only after close() has joined the background
    // thread: a MANIFEST re-cut absorbing an injected sync error can land
    // in a late background compaction, and snapshotting `manifest_recuts`
    // before the join undercounts it — making a correctly-absorbed fault
    // look swallowed.
    let s = db.stats().snapshot();
    let m = db.metrics();
    out.stats = SweepCoverage {
        flushes: s.flushes,
        compactions: s.compactions,
        settled_moves: s.settled_moves,
        holes_punched: env.stats().snapshot().holes_punched,
        recuts: m.manifest_recuts,
        manifest_rolls: m.manifest_rolls,
        roll_failures: m.manifest_roll_failures,
        vlog_separated: s.vlog_values_separated,
        vlog_retired: s.vlog_segments_retired,
        range_deletes: s.range_deletes,
        checkpoints: s.checkpoints,
    };
    out
}

/// Pick crash points from a recorded trace: every metadata op (create,
/// sync, barrier, rename, delete, punch) plus its successor, plus evenly
/// sampled appends (exercised as *torn* appends). Returns
/// `(op_index, torn_keep)` pairs, evenly thinned to `max`.
pub(crate) fn select_crash_points(trace: &[OpRecord], max: usize) -> Vec<(u64, u64)> {
    let total = trace.len() as u64;
    let mut points: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for record in trace {
        if record.kind != OpKind::Append {
            points.entry(record.index).or_insert(0);
            if record.index + 1 < total {
                points.entry(record.index + 1).or_insert(0);
            }
        }
    }
    // Torn-append sampling: every `stride`-th append crashes mid-payload.
    let appends: Vec<&OpRecord> = trace
        .iter()
        .filter(|r| r.kind == OpKind::Append && r.bytes >= 2)
        .collect();
    let stride = (appends.len() / (max / 4).max(1)).max(1);
    for record in appends.iter().step_by(stride) {
        points.entry(record.index).or_insert(record.bytes / 2);
    }
    let points: Vec<(u64, u64)> = points.into_iter().collect();
    if points.len() > max {
        // Thin evenly so coverage still spans the whole trace.
        let len = points.len();
        (0..max).map(|i| points[i * len / max]).collect()
    } else {
        points
    }
}

/// Open the recovered database and check invariants I1–I5 (plus C1 when a
/// checkpoint was attempted) against the replay's model, appending any
/// violation to `violations`.
fn check_invariants(
    env: &FaultEnv,
    opts: &Options,
    model: &WorkloadOutcome,
    label: &str,
    violations: &mut Vec<String>,
) {
    let arc_env: Arc<dyn Env> = Arc::new(env.clone());

    // C1 first, so a wedged source database cannot mask checkpoint damage:
    // an acked checkpoint must open and equal the pinned snapshot; an
    // unacked one must either have no CURRENT (ignorable garbage, never
    // opened — `Db::open` would create a fresh database there) or open
    // cleanly as the complete image whose ack simply never returned.
    if model.ckpt_acked || env.file_exists("ckpt/CURRENT") {
        match Db::open(Arc::clone(&arc_env), "ckpt", opts.clone()) {
            Ok(copy) => {
                if let Err(e) = verify_db(&copy) {
                    violations.push(format!("{label}: C1 checkpoint integrity walk failed: {e}"));
                }
                match (full_scan(&copy), &model.ckpt_expected) {
                    (Ok(scan), Some(expected)) if &scan != expected => {
                        violations.push(format!(
                            "{label}: C1 checkpoint diverged from pinned snapshot: \
                             {} vs {} entries",
                            scan.len(),
                            expected.len()
                        ));
                    }
                    (Err(e), _) => {
                        violations.push(format!("{label}: C1 checkpoint scan failed: {e}"));
                    }
                    _ => {}
                }
                let _ = copy.close();
            }
            Err(e) => violations.push(format!("{label}: C1 checkpoint failed to open: {e}")),
        }
    }

    let db = match Db::open(Arc::clone(&arc_env), "db", opts.clone()) {
        Ok(db) => db,
        Err(e) => {
            violations.push(format!("{label}: recovery failed to open: {e}"));
            return;
        }
    };

    // I3: MANIFEST references only present, checksum-clean data.
    if let Err(e) = verify_db(&db) {
        violations.push(format!("{label}: I3 integrity walk failed: {e}"));
    }

    // I1 + I2 per pair.
    for (p, state) in model.pairs.iter().enumerate() {
        let (ka, kb) = pair_keys(p);
        let va = db.get(ka.as_bytes());
        let vb = db.get(kb.as_bytes());
        let (va, vb) = match (va, vb) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                violations.push(format!("{label}: pair {p} reads failed: {a:?} / {b:?}"));
                continue;
            }
        };
        if va != vb {
            violations.push(format!(
                "{label}: I2 torn batch visible for pair {p}: {:?} vs {:?}",
                va.as_deref().map(String::from_utf8_lossy),
                vb.as_deref().map(String::from_utf8_lossy),
            ));
            continue;
        }
        let recovered = va.as_deref().and_then(value_round);
        match (state.durable_floor, recovered) {
            (Some(floor), None) => violations.push(format!(
                "{label}: I1 pair {p} lost: durable through round {floor}, found nothing"
            )),
            (Some(floor), Some(r)) if r < floor => violations.push(format!(
                "{label}: I1 pair {p} rolled back: durable through round {floor}, found {r}"
            )),
            _ => {}
        }
        if let Some(r) = recovered {
            // Sanity: recovery can surface an unacked write (it may have
            // reached the WAL) but never one that was not even attempted.
            let attempted = state.attempted.unwrap_or(0);
            if state.attempted.is_none() || r > attempted {
                violations.push(format!(
                    "{label}: pair {p} contains round {r} beyond attempts ({:?})",
                    state.attempted
                ));
            }
        }
    }

    // I5: range-tombstone visibility at the recorded durability
    // boundaries. Uncovered keys are never deleted, so once their writes
    // were durable they must read back exactly; covered keys must be gone
    // once the tombstone was durable (unless durably reborn) and intact
    // while it was never attempted. Between attempt and durability the
    // unsynced tombstone may or may not have reached the WAL, so only the
    // *value* is pinned, not presence.
    if model.rd >= RdPhase::WritesDurable {
        for i in (0..RD_DEL_BEGIN).chain(RD_DEL_END..RD_KEYS) {
            match db.get(rd_key(i).as_bytes()) {
                Ok(Some(v)) if v == rd_alive(i) => {}
                Ok(v) => violations.push(format!(
                    "{label}: I5 uncovered key rd{i:04} corrupted: {:?}",
                    v.as_deref().map(String::from_utf8_lossy)
                )),
                Err(e) => violations.push(format!("{label}: I5 read rd{i:04} failed: {e}")),
            }
        }
        for i in RD_DEL_BEGIN..RD_DEL_END {
            let reborn = (RD_REBIRTH_BEGIN..RD_REBIRTH_END).contains(&i);
            let got = match db.get(rd_key(i).as_bytes()) {
                Ok(got) => got,
                Err(e) => {
                    violations.push(format!("{label}: I5 read rd{i:04} failed: {e}"));
                    continue;
                }
            };
            let bad = match model.rd {
                RdPhase::NotStarted => false,
                // Tombstone never issued: the durable write must be there.
                RdPhase::WritesDurable => got.as_deref() != Some(&rd_alive(i)[..]),
                // Issued but not durable: absent or the old value.
                RdPhase::DeleteAttempted | RdPhase::DeleteAcked => {
                    got.is_some() && got.as_deref() != Some(&rd_alive(i)[..])
                }
                // Tombstone durable, rebirth not: absent, or the reborn
                // value if its unsynced write happened to survive.
                RdPhase::DeleteDurable | RdPhase::RebirthAttempted => {
                    got.is_some() && !(reborn && got.as_deref() == Some(&rd_reborn(i)[..]))
                }
                // Rebirth durable: reborn keys back, the rest still gone.
                RdPhase::RebirthDurable => {
                    if reborn {
                        got.as_deref() != Some(&rd_reborn(i)[..])
                    } else {
                        got.is_some()
                    }
                }
            };
            if bad {
                violations.push(format!(
                    "{label}: I5 covered key rd{i:04} wrong at phase {:?}: {:?}",
                    model.rd,
                    got.as_deref().map(String::from_utf8_lossy)
                ));
            }
        }
    }

    // I4: a second recovery must see the identical key space.
    let scan1 = match full_scan(&db) {
        Ok(scan) => scan,
        Err(e) => {
            violations.push(format!("{label}: scan after recovery failed: {e}"));
            let _ = db.close();
            return;
        }
    };
    if let Err(e) = db.close() {
        violations.push(format!("{label}: close after recovery failed: {e}"));
        return;
    }
    match Db::open(arc_env, "db", opts.clone()) {
        Ok(db2) => {
            match full_scan(&db2) {
                Ok(scan2) if scan2 == scan1 => {}
                Ok(scan2) => violations.push(format!(
                    "{label}: I4 re-recovery diverged: {} vs {} entries",
                    scan1.len(),
                    scan2.len()
                )),
                Err(e) => violations.push(format!("{label}: I4 re-scan failed: {e}")),
            }
            let _ = db2.close();
        }
        Err(e) => violations.push(format!("{label}: I4 re-open failed: {e}")),
    }
}

/// [`check_invariants`], but a panic anywhere in recovery (e.g. a violated
/// `debug_assert` while rebuilding a version) is itself recorded as an
/// invariant violation instead of killing the sweep.
fn checked_invariants(
    env: &FaultEnv,
    opts: &Options,
    model: &WorkloadOutcome,
    label: &str,
    violations: &mut Vec<String>,
) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut local = Vec::new();
        check_invariants(env, opts, model, label, &mut local);
        local
    }));
    match result {
        Ok(local) => violations.extend(local),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic");
            violations.push(format!("{label}: recovery panicked: {msg}"));
        }
    }
}

fn full_scan(db: &Db) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut iter = db.iter()?;
    iter.seek_to_first()?;
    let mut out = Vec::new();
    while iter.valid() {
        out.push((iter.key().to_vec(), iter.value().to_vec()));
        iter.next()?;
    }
    Ok(out)
}

/// Record the workload once, then sweep crash points and `EIO` injections.
///
/// Deterministic for a given [`SweepConfig`]: the workload is fixed, torn
/// tails derive from `cfg.seed`, and the invariants hold at *any* op cut,
/// so background-thread interleaving cannot flip a verdict.
///
/// # Errors
///
/// Returns an error only if the harness itself cannot run (e.g. the record
/// run fails outright); invariant violations are reported in
/// [`SweepOutcome::violations`].
pub fn run_crash_sweep(cfg: &SweepConfig) -> Result<SweepOutcome> {
    // Compact eagerly and keep level 1 tiny so the short workload reaches
    // group compaction, settled promotion (L1 → L2 moves), and
    // hole-punching — every barrier in the §9 ordering contract shows up
    // in the recorded trace. In vlog mode every pair value (~90 B) and
    // hole value (160 B) crosses the separation threshold and tiny
    // segments force rotations, so the rotate/seal windows are covered.
    let opts = sweep_options(cfg);

    // Phase 1: record.
    let env = FaultEnv::over_mem();
    env.start_recording();
    let record = run_workload(&env, &opts, true, cfg.checkpoint);
    let trace = env.stop_recording();
    if record.errors > 0 {
        return Err(bolt_common::Error::io(format!(
            "record run saw {} unexpected errors",
            record.errors
        )));
    }
    if cfg.vlog && (record.stats.vlog_separated == 0 || record.stats.vlog_retired == 0) {
        return Err(bolt_common::Error::io(format!(
            "vlog sweep did not exercise value separation \
             ({} separated, {} segments retired)",
            record.stats.vlog_separated, record.stats.vlog_retired
        )));
    }
    if record.rd != RdPhase::RebirthDurable || record.stats.range_deletes == 0 {
        return Err(bolt_common::Error::io(format!(
            "sweep did not exercise the range-delete phase \
             (reached {:?}, {} tombstones)",
            record.rd, record.stats.range_deletes
        )));
    }
    if record.stats.manifest_rolls == 0 {
        return Err(bolt_common::Error::io(
            "sweep did not exercise a MANIFEST roll".to_string(),
        ));
    }
    if cfg.checkpoint && (!record.ckpt_acked || record.stats.checkpoints == 0) {
        return Err(bolt_common::Error::io(
            "checkpoint sweep did not complete its checkpoint".to_string(),
        ));
    }
    let ops_recorded = env.op_count();
    let syncs_recorded = env.sync_count();
    let phases = env.markers();

    // Phase 2: crash-point sweep. Every op inside the re-cut window is
    // force-included after thinning (appends as torn appends): the torn old
    // MANIFEST, the fresh-but-unswung CURRENT, and the not-yet-re-appended
    // edit are exactly the intermediate states O5 must keep I1-I4 through.
    // The roll window likewise covers every op of a MANIFEST roll.
    // Checkpoint mode: every op between `ckpt-arm` and `ckpt-done` is a
    // forced crash point — each link, the manifest write, the CURRENT
    // staging and the publishing rename must leave garbage or a database.
    let mut points = select_crash_points(&trace, cfg.max_crash_points);
    let mut windows = Vec::new();
    for (name, arm, done) in [
        ("recut", "recut-arm", "recut-done"),
        ("roll", "roll-arm", "roll-done"),
        ("checkpoint", "ckpt-arm", "ckpt-done"),
    ] {
        if let Some((arm, done)) = marker_window(&phases, arm, done) {
            points = merge_window(points, &trace, arm, done);
            let covered = points
                .iter()
                .filter(|&&(k, _)| k >= arm && k < done)
                .count();
            windows.push((name, covered));
        }
    }
    // Vlog mode: force every value-log metadata op (create, sync/barrier,
    // punch, delete) plus its successor into the point set — these bound
    // the append-barrier-ack and punch windows of the §14 crash contract —
    // and tear a sample of the (far more numerous) value appends.
    if cfg.vlog {
        let mut merged: std::collections::BTreeMap<u64, u64> = points.iter().copied().collect();
        let total = trace.len() as u64;
        let vlog_appends: Vec<&OpRecord> = trace
            .iter()
            .filter(|r| r.path.ends_with(".vlog") && r.kind == OpKind::Append && r.bytes >= 2)
            .collect();
        let stride = (vlog_appends.len() / 16).max(1);
        for record in vlog_appends.iter().step_by(stride) {
            merged.entry(record.index).or_insert(record.bytes / 2);
        }
        for record in &trace {
            if record.path.ends_with(".vlog") && record.kind != OpKind::Append {
                merged.entry(record.index).or_insert(0);
                if record.index + 1 < total {
                    merged.entry(record.index + 1).or_insert(0);
                }
            }
        }
        points = merged.into_iter().collect();
    }
    let mut violations = Vec::new();
    let mut crash_points = Vec::new();
    for &(k, keep) in &points {
        let env = FaultEnv::over_mem();
        let plan = if keep > 0 {
            FaultPlan::new().torn_crash_at_op(k, keep)
        } else {
            FaultPlan::new().crash_at_op(k)
        };
        env.set_plan(plan);
        let replay = run_workload(&env, &opts, false, cfg.checkpoint);
        let label = format!("crash@op{k}{}", if keep > 0 { " (torn)" } else { "" });
        env.crash_inner(CrashConfig::TornTail {
            seed: cfg.seed ^ k.wrapping_mul(0x9E37_79B9),
        });
        env.reset();
        checked_invariants(&env, &opts, &replay, &label, &mut violations);
        crash_points.push(k);
    }

    // Phase 3: EIO-on-sync sweep — injected errors must never be swallowed.
    let mut eio_points = Vec::new();
    let eio_count = (syncs_recorded as usize).min(cfg.max_eio_points.max(1));
    for i in 0..eio_count {
        let n = i as u64 * syncs_recorded / eio_count as u64;
        let env = FaultEnv::over_mem();
        env.set_plan(FaultPlan::new().fail_sync(n));
        let replay = run_workload(&env, &opts, false, cfg.checkpoint);
        let label = format!("eio@sync{n}");
        // Every injected fault must be accounted for: either a caller saw
        // an error, or a self-healing re-cut absorbed it (the workload's
        // own armed MANIFEST EIO is always absorbed when healthy), or a
        // failed MANIFEST roll did (its triggering commit was already
        // durable, and each failed roll stops at its first fault).
        let injected = env.faults_injected();
        let absorbed = replay.stats.recuts + replay.stats.roll_failures;
        if injected > 0 && replay.errors == 0 && absorbed < injected {
            violations.push(format!(
                "{label}: injected EIO was swallowed ({} re-cut(s) and {} failed roll(s) \
                 for {injected} fault(s), no caller observed an error)",
                replay.stats.recuts, replay.stats.roll_failures
            ));
        }
        // The EIO may have poisoned the database; a crash right after must
        // still recover to a consistent state.
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        checked_invariants(&env, &opts, &replay, &label, &mut violations);
        eio_points.push(n);
    }

    // Phase 4: double-crash sweep — crash the workload at op `k`, then
    // crash *recovery itself* at op `j` of the `Db::open` replay, and
    // require the third open to restore a consistent state. Each `(k, j)`
    // pair rebuilds the post-first-crash filesystem from scratch so the
    // second crash always lands on identical bytes.
    let mut double_crash_points = Vec::new();
    if cfg.max_double_crash_first > 0 && cfg.max_double_crash_second > 0 && !points.is_empty() {
        let stride = (points.len() / cfg.max_double_crash_first).max(1);
        for &(k, keep) in points
            .iter()
            .step_by(stride)
            .take(cfg.max_double_crash_first)
        {
            // Probe: how many ops does recovering from this crash perform?
            let (env, _) = build_first_crash(cfg, &opts, k, keep);
            attempt_open(&env, &opts);
            let recovery_ops = env.op_count();
            if recovery_ops == 0 {
                continue;
            }
            let seconds = cfg.max_double_crash_second.min(recovery_ops as usize);
            for i in 0..seconds {
                let j = i as u64 * recovery_ops / seconds as u64;
                let (env, replay) = build_first_crash(cfg, &opts, k, keep);
                env.set_plan(FaultPlan::new().crash_at_op(j));
                let label = format!("crash@op{k}+recovery-crash@op{j}");
                if !attempt_open(&env, &opts) {
                    violations.push(format!("{label}: interrupted recovery panicked"));
                }
                env.crash_inner(CrashConfig::TornTail {
                    seed: cfg.seed ^ k.wrapping_mul(0x9E37_79B9) ^ j.wrapping_mul(0x517C_C1B7),
                });
                env.reset();
                checked_invariants(&env, &opts, &replay, &label, &mut violations);
                double_crash_points.push((k, j));
            }
        }
    }

    Ok(SweepOutcome {
        policy: cfg.policy,
        ops_recorded,
        syncs_recorded,
        phases,
        crash_points,
        windows,
        eio_points,
        double_crash_points,
        coverage: record.stats,
        violations,
    })
}

/// The `[arm, done)` op-index window bounded by two phase markers from the
/// record run, if both were reached: the first `done` and the last `arm`
/// before it (a phase may re-arm once per attempt).
fn marker_window(phases: &[(u64, String)], arm: &str, done: &str) -> Option<(u64, u64)> {
    let done = phases.iter().find(|(_, l)| l == done)?.0;
    let arm = phases
        .iter()
        .rev()
        .find(|(at, l)| l == arm && *at <= done)?
        .0;
    Some((arm, done))
}

/// Force every op inside `[arm, done)` into the crash-point set (appends
/// as torn appends), keeping the set sorted and deduplicated.
fn merge_window(
    points: Vec<(u64, u64)>,
    trace: &[OpRecord],
    arm: u64,
    done: u64,
) -> Vec<(u64, u64)> {
    let mut merged: std::collections::BTreeMap<u64, u64> = points.into_iter().collect();
    for record in trace {
        if record.index >= arm && record.index < done {
            if record.kind == OpKind::Append {
                merged.entry(record.index).or_insert(record.bytes / 2);
            } else {
                merged.entry(record.index).or_insert(0);
            }
        }
    }
    merged.into_iter().collect()
}

/// Run the workload to its first crash at op `k` (torn-keeping `keep`
/// append bytes), power-cycle, and return the env holding the surviving
/// filesystem plus the workload's acked/durable model.
fn build_first_crash(
    cfg: &SweepConfig,
    opts: &Options,
    k: u64,
    keep: u64,
) -> (FaultEnv, WorkloadOutcome) {
    let env = FaultEnv::over_mem();
    let plan = if keep > 0 {
        FaultPlan::new().torn_crash_at_op(k, keep)
    } else {
        FaultPlan::new().crash_at_op(k)
    };
    env.set_plan(plan);
    let replay = run_workload(&env, opts, false, cfg.checkpoint);
    env.crash_inner(CrashConfig::TornTail {
        seed: cfg.seed ^ k.wrapping_mul(0x9E37_79B9),
    });
    env.reset();
    (env, replay)
}

/// Open (and close) the database, tolerating errors — the plan may crash
/// the env mid-recovery. Returns `false` if the attempt panicked.
fn attempt_open(env: &FaultEnv, opts: &Options) -> bool {
    let arc_env: Arc<dyn Env> = Arc::new(env.clone());
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Ok(db) = Db::open(arc_env, "db", opts.clone()) {
            let _ = db.close();
        }
    }))
    .is_ok()
}

/// The options every sweep run uses, derived from the config.
fn sweep_options(cfg: &SweepConfig) -> Options {
    let mut opts = Options::bolt().scaled(1.0 / 256.0);
    opts.level0_compaction_trigger = 2;
    opts.level1_max_bytes = 12 << 10;
    opts.compaction_policy = cfg.policy;
    if cfg.policy != CompactionPolicyKind::Leveled {
        opts.size_tiered_min_threshold = 2;
    }
    if cfg.vlog {
        opts.value_separation_threshold = Some(64);
        opts.vlog_segment_bytes = 4 << 10;
    }
    opts
}

/// Render a sweep outcome for the CLI.
pub fn render_report(outcome: &SweepOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "recorded {} ops ({} syncs/barriers) under policy {} across phases:",
        outcome.ops_recorded,
        outcome.syncs_recorded,
        outcome.policy.as_str()
    )
    .expect("write");
    for (at, label) in &outcome.phases {
        writeln!(out, "  op {at:>5}  {label}").expect("write");
    }
    let c = outcome.coverage;
    writeln!(
        out,
        "coverage: {} flushes, {} compactions, {} settled moves, {} holes punched, \
         {} manifest re-cuts, {} manifest rolls, {} range deletes",
        c.flushes,
        c.compactions,
        c.settled_moves,
        c.holes_punched,
        c.recuts,
        c.manifest_rolls,
        c.range_deletes
    )
    .expect("write");
    if c.checkpoints > 0 {
        writeln!(
            out,
            "checkpoint coverage: {} online checkpoint(s)",
            c.checkpoints
        )
        .expect("write");
    }
    if c.vlog_separated > 0 {
        writeln!(
            out,
            "vlog coverage: {} values separated, {} segments retired",
            c.vlog_separated, c.vlog_retired
        )
        .expect("write");
    }
    writeln!(
        out,
        "swept {} crash points + {} EIO points + {} double-crash pairs",
        outcome.crash_points.len(),
        outcome.eio_points.len(),
        outcome.double_crash_points.len()
    )
    .expect("write");
    for (name, covered) in &outcome.windows {
        writeln!(out, "  forced window {name}: {covered} crash points").expect("write");
    }
    if outcome.violations.is_empty() {
        writeln!(out, "ok: all recovery invariants held").expect("write");
    } else {
        writeln!(out, "{} VIOLATION(S):", outcome.violations.len()).expect("write");
        for v in &outcome.violations {
            writeln!(out, "  {v}").expect("write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full workload followed by a clean power-cycle must satisfy every
    /// invariant — in particular I5: a durable range tombstone must not let
    /// covered keys resurface after recovery, no matter how compaction
    /// fragmented it across output tables.
    #[test]
    fn workload_invariants_hold_after_clean_powercycle() {
        let cfg = SweepConfig {
            checkpoint: true,
            ..SweepConfig::default()
        };
        let opts = sweep_options(&cfg);
        let env = FaultEnv::over_mem();
        let record = run_workload(&env, &opts, false, cfg.checkpoint);
        assert_eq!(record.errors, 0, "record run saw errors");
        assert_eq!(record.rd, RdPhase::RebirthDurable);
        assert!(record.ckpt_acked);
        // The live scan the checkpoint pinned must already honour the
        // tombstone: covered, un-reborn keys are absent.
        let expected = record.ckpt_expected.as_ref().expect("scan captured");
        for i in RD_DEL_BEGIN..RD_DEL_END {
            if (RD_REBIRTH_BEGIN..RD_REBIRTH_END).contains(&i) {
                continue;
            }
            assert!(
                !expected.iter().any(|(k, _)| k == rd_key(i).as_bytes()),
                "live scan resurrected covered key rd{i:04}"
            );
        }
        env.crash_inner(CrashConfig::Clean);
        env.reset();
        let mut violations = Vec::new();
        check_invariants(&env, &opts, &record, "clean-powercycle", &mut violations);
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
