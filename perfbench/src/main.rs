//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload on `SimEnv` with the `bolt_bench::bench_device()` model
//! and `Options::bolt().scaled(1/64)`, with two closed-loop client threads in
//! this process (each waits for its reply before the next call). Every read
//! and every acked write is checked; any wrong read, out-of-order or
//! incomplete scan, or lost acked write makes the run exit non-zero.
//!
//! | workload | timed phase | why |
//! |---|---|---|
//! | `ingest` | empty DB, unique hashed keys, 1 KiB values, WAL unsynced, then `flush` + `compact_until_quiet` | memtable, flush, group/settled compaction and the L0 governors, read path idle |
//! | `durable_mixed` | 1024 keys of 4 KiB separated values, `sync_wal`, 50/50 zipfian get/put | group-commit queue, vlog and WAL barriers on every put, a vlog resolve on every get |
//! | `read_scan` | 24576 keys of 1 KiB settled values, 90 % zipfian gets, 10 % scans of 1..=100 records | get/iter/seek/next, TableCache misses, block cache and device reads |
//!
//! Every workload reports every end-to-end metric, so each also runs a
//! check phase after its timed phase for the operation kinds the timed
//! phase lacks: ingest reads back what it wrote (gets and scans, one
//! client), durable_mixed scans after recovery (two clients), and read_scan
//! applies updates (puts, one client) and settles. A check phase that
//! makes background work runs one client, so that work has a core of its
//! own and the tail stays steady on a two-core host. Every workload ends
//! with a simulated power loss, a timed recovery and a full scan checking
//! every acked write. With `--trace 1` the timed phase runs once with
//! tracing off and once on, and the per-layer metrics of
//! [`perfbench::layers`] are reported instead.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bolt_common::rng::Rng64;
use bolt_common::Result;
use bolt_core::{Db, Options, WriteBatch};
use bolt_env::{Env, SimEnv};
use bolt_ycsb::generator::{KeyChooser, ScrambledZipfian};
use bolt_ycsb::key_name;

use perfbench::env::{BenchEnv, OpKind, Tracer};
use perfbench::layers::{self, Counters, LayerMetric, PhaseOps};
use perfbench::oracle::{Checker, Keyspace};

const DB: &str = "db";
/// Client threads; the host this was tuned on has two cores.
const CLIENTS: usize = 2;
/// Length of a `key_name` key.
const KEY_LEN: usize = 23;
/// YCSB-E scans read 1..=SCAN_MAX records.
const SCAN_MAX: u64 = 100;
/// Records per `WriteBatch` while preloading.
const PRELOAD_BATCH: usize = 64;
/// A percentile is reported only with this many samples beyond it.
const MIN_BEYOND: usize = 10;
/// Recoveries timed per run, each on an identical copy of what survived
/// the power loss; `recovery_s` is their median.
const RECOVERIES: usize = 3;

const INGEST_VALUE: usize = 1024;
/// Id space of ingest; a client stops early if it runs out.
const INGEST_CAPACITY: usize = 1 << 20;
const INGEST_SETUPS: usize = 5;
const INGEST_CHECK_GETS: usize = 10_000;
const INGEST_CHECK_SCANS: usize = 3000;

/// Key+pointer tables of 1024 keys (~60 KiB) fit the 128 KiB block cache.
const MIXED_KEYS: u64 = 1024;
const MIXED_VALUE: usize = 4096;
const MIXED_SEPARATION: u64 = 1024;
const MIXED_SETUPS: usize = 3;
const MIXED_CHECK_SCANS: usize = 1200;

/// 24576 x 1 KiB is ~190x the 128 KiB block cache and ~1500 logical
/// SSTables of 16 KiB, against `max_open_files` = 1000.
const SCAN_KEYS: u64 = 24_576;
const SCAN_VALUE: usize = 1024;
const SCAN_SHARE: f64 = 0.1;
const SCAN_SETUPS: usize = 3;
const SCAN_CHECK_PUTS: usize = 4000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Ingest,
    DurableMixed,
    ReadScan,
}

#[derive(Debug)]
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> std::result::Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = HashMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    let take = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = match take("workload")?.as_str() {
        "ingest" => Workload::Ingest,
        "durable_mixed" => Workload::DurableMixed,
        "read_scan" => Workload::ReadScan,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload --seed --seconds --trace".to_string());
    }
    Ok(Cli {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process-wide origin of call start times.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn base_options() -> Options {
    Options::bolt().scaled(bolt_bench::CAPACITY_SCALE)
}

/// One database on one simulated device.
struct Store {
    sim: Arc<SimEnv>,
    env: Arc<BenchEnv>,
    db: Db,
}

impl Store {
    fn fresh(tracer: &Arc<Tracer>, opts: Options) -> Result<Store> {
        Store::open(
            Arc::new(SimEnv::new(bolt_bench::bench_device())),
            tracer,
            opts,
        )
    }

    fn open(sim: Arc<SimEnv>, tracer: &Arc<Tracer>, opts: Options) -> Result<Store> {
        let env = Arc::new(BenchEnv::new(Arc::clone(&sim), Arc::clone(tracer)));
        let db = Db::open(Arc::clone(&env) as Arc<dyn Env>, DB, opts)?;
        Ok(Store { sim, env, db })
    }

    /// Clean shutdown, then open again with `opts`.
    fn reopen(self, tracer: &Arc<Tracer>, opts: Options) -> Result<Store> {
        self.db.close()?;
        drop(self.db);
        Store::open(self.sim, tracer, opts)
    }

    /// Power loss, then recovery of what survived. Also returns how long
    /// `Db::open` took on each of [`RECOVERIES`] identical copies of the
    /// surviving bytes; the last copy is the original device, returned.
    fn crash_and_recover(self, tracer: &Arc<Tracer>, opts: Options) -> Result<(Store, Vec<f64>)> {
        self.env.crash();
        // Its close fails on the downed handle, but it joins the engine
        // thread, which cannot touch the device any more.
        drop(self.db);
        let image = disk_image(self.sim.as_ref())?;
        let mut times = Vec::with_capacity(RECOVERIES);
        for _ in 1..RECOVERIES {
            let copy = restore(&image)?;
            let start = Instant::now();
            let store = Store::open(copy, tracer, opts.clone())?;
            times.push(start.elapsed().as_secs_f64());
            store.db.close()?;
        }
        let start = Instant::now();
        let store = Store::open(self.sim, tracer, opts)?;
        times.push(start.elapsed().as_secs_f64());
        Ok((store, times))
    }

    /// Flush the memtable and wait until no compaction is due.
    fn settle(&self) -> Result<()> {
        self.db.flush()?;
        self.db.compact_until_quiet()
    }

    /// Bytes of live logical tables plus value-log segments, per live user
    /// byte. Value-log holes count as occupied.
    fn space_amp(&self, live_user_bytes: u64) -> Result<f64> {
        let tables: u64 = self
            .db
            .current_version()
            .all_tables()
            .map(|(_, _, t)| t.size)
            .sum();
        let mut vlog = 0;
        for name in self.env.list_dir(DB)? {
            if name.ends_with(".vlog") {
                vlog += self.env.file_size(&format!("{DB}/{name}"))?;
            }
        }
        Ok((tables + vlog) as f64 / live_user_bytes as f64)
    }

    fn logical_tables(&self) -> usize {
        self.db.current_version().all_tables().count()
    }
}

const PUT: usize = 0;
const GET: usize = 1;
const SCAN: usize = 2;

/// Calls of one client or phase: (start, latency) in ns, with a failed
/// call's latency `u64::MAX`, and the failures.
#[derive(Debug, Default)]
struct OpLog {
    lat: [Vec<(u64, u64)>; 3],
    failed: [u64; 3],
    records: u64,
}

impl OpLog {
    fn absorb(&mut self, other: OpLog) {
        for kind in [PUT, GET, SCAN] {
            self.lat[kind].extend_from_slice(&other.lat[kind]);
            self.failed[kind] += other.failed[kind];
        }
        self.records += other.records;
    }

    fn ops(&self) -> u64 {
        self.lat.iter().map(|l| l.len() as u64).sum()
    }

    fn record(&mut self, kind: usize, start: Instant, ns: u64, ok: bool) {
        let at = start.saturating_duration_since(epoch()).as_nanos() as u64;
        if ok {
            self.lat[kind].push((at, ns));
        } else {
            self.lat[kind].push((at, u64::MAX));
            self.failed[kind] += 1;
        }
    }

    fn phase_ops(&self) -> PhaseOps {
        PhaseOps {
            puts: self.lat[PUT].len() as u64,
            gets: self.lat[GET].len() as u64,
            scans: self.lat[SCAN].len() as u64,
            records: self.records,
            ..PhaseOps::default()
        }
    }
}

/// Run `f(client)` on [`CLIENTS`] threads and collect the results.
fn clients<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    clients_n(CLIENTS, f)
}

/// Run `f(client)` on `n` threads and collect the results.
fn clients_n<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|c| s.spawn(move || f(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn merged(logs: Vec<OpLog>) -> OpLog {
    let mut all = OpLog::default();
    for log in logs {
        all.absorb(log);
    }
    all
}

fn client_rng(seed: u64, client: usize, phase: u64) -> Rng64 {
    let mut z = seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ phase << 48;
    z = (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    Rng64::new(z ^ (z >> 29))
}

/// The benchmark's keys in engine order, for checking scans.
struct KeyOrder {
    ids: Vec<u64>,
    rank: HashMap<u64, usize>,
}

impl KeyOrder {
    fn new(ids: impl IntoIterator<Item = u64>) -> KeyOrder {
        let mut keyed: Vec<(Vec<u8>, u64)> = ids.into_iter().map(|id| (key_name(id), id)).collect();
        keyed.sort();
        let ids: Vec<u64> = keyed.into_iter().map(|(_, id)| id).collect();
        let rank = ids.iter().enumerate().map(|(pos, &id)| (id, pos)).collect();
        KeyOrder { ids, rank }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }
}

fn timed<R>(ns: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *ns += start.elapsed().as_nanos() as u64;
    out
}

/// What every client of a phase shares.
struct Cx<'a> {
    db: &'a Db,
    ks: &'a Keyspace,
    tracer: &'a Tracer,
    check: &'a Checker,
    seed: u64,
}

impl<'a> Cx<'a> {
    fn new(
        store: &'a Store,
        ks: &'a Keyspace,
        tracer: &'a Tracer,
        check: &'a Checker,
        seed: u64,
    ) -> Self {
        Cx {
            db: &store.db,
            ks,
            tracer,
            check,
            seed,
        }
    }
}

/// Every file of the database with its bytes.
fn disk_image(env: &dyn Env) -> Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for name in env.list_dir(DB)? {
        let path = format!("{DB}/{name}");
        let file = env.new_random_access_file(&path)?;
        files.push((path, file.read(0, file.len() as usize)?));
    }
    Ok(files)
}

/// A fresh simulated device holding `image`, every byte synced.
fn restore(image: &[(String, Vec<u8>)]) -> Result<Arc<SimEnv>> {
    let sim = Arc::new(SimEnv::new(bolt_bench::bench_device()));
    sim.create_dir_all(DB)?;
    for (path, bytes) in image {
        let mut file = sim.new_writable_file(path)?;
        file.append(bytes)?;
        file.sync()?;
    }
    Ok(sim)
}

/// One client thread's view of the run.
struct Client<'a> {
    db: &'a Db,
    ks: &'a Keyspace,
    tracer: &'a Tracer,
    check: &'a Checker,
    rng: Rng64,
    log: OpLog,
}

impl<'a> Client<'a> {
    fn new(cx: &Cx<'a>, client: usize, phase: u64) -> Client<'a> {
        Client {
            db: cx.db,
            ks: cx.ks,
            tracer: cx.tracer,
            check: cx.check,
            rng: client_rng(cx.seed, client, phase),
            log: OpLog::default(),
        }
    }

    fn put(&mut self, id: u64) {
        let (version, value) = self.ks.next_write(id);
        let key = key_name(id);
        let start = Instant::now();
        let out = self.tracer.op(OpKind::Put, || self.db.put(&key, &value));
        self.log
            .record(PUT, start, start.elapsed().as_nanos() as u64, out.is_ok());
        if out.is_ok() {
            self.ks.ack(id, version);
        }
    }

    fn get(&mut self, id: u64) {
        let key = key_name(id);
        let floor = self.ks.acked(id);
        let start = Instant::now();
        let out = self.tracer.op(OpKind::Get, || self.db.get(&key));
        self.log
            .record(GET, start, start.elapsed().as_nanos() as u64, out.is_ok());
        if let Ok(value) = out {
            self.check
                .record(self.ks.check(id, floor, value.as_deref()));
        }
    }

    /// A YCSB-E scan: seek to the key at `pos` in `order`, read up to `len`
    /// records. Only the engine calls are timed. No write may run
    /// concurrently: the scan must return exactly the next `len` keys.
    fn scan(&mut self, order: &KeyOrder, pos: usize, len: u64) {
        let start = Instant::now();
        let mut ns = 0u64;
        let out = self.scan_checked(order, pos, len, &mut ns);
        self.log.record(SCAN, start, ns, out.is_ok());
        if let Ok(verdict) = out {
            self.check.record(verdict);
        }
    }

    fn scan_checked(
        &mut self,
        order: &KeyOrder,
        pos: usize,
        len: u64,
        ns: &mut u64,
    ) -> Result<std::result::Result<(), String>> {
        let (db, tracer) = (self.db, self.tracer);
        let start_key = key_name(order.ids[pos]);
        let mut it = timed(ns, || tracer.op(OpKind::Iter, || db.iter()))?;
        timed(ns, || tracer.op(OpKind::Seek, || it.seek(&start_key)))?;
        let mut prev: Option<Vec<u8>> = None;
        for i in 0..len as usize {
            if i > 0 {
                timed(ns, || tracer.op(OpKind::Next, || it.next()))?;
            }
            let Some(&id) = order.ids.get(pos + i) else {
                if it.valid() {
                    return Ok(Err(format!(
                        "scan returned {:?} past the last key",
                        String::from_utf8_lossy(it.key())
                    )));
                }
                break;
            };
            if !it.valid() {
                return Ok(Err(format!(
                    "scan ended after {i} of {len} records with {} keys left",
                    order.len() - pos - i
                )));
            }
            self.log.records += 1;
            let key = it.key();
            if prev.as_deref().is_some_and(|p| p >= key) {
                return Ok(Err(format!(
                    "scan keys not increasing at {:?}",
                    String::from_utf8_lossy(key)
                )));
            }
            if key != key_name(id).as_slice() {
                return Ok(Err(format!(
                    "scan returned {:?} where {:?} was due",
                    String::from_utf8_lossy(key),
                    String::from_utf8_lossy(&key_name(id))
                )));
            }
            let verdict = self.ks.check(id, self.ks.acked(id), Some(it.value()));
            if verdict.is_err() {
                return Ok(verdict);
            }
            prev = Some(key.to_vec());
        }
        Ok(Ok(()))
    }
}

/// Write version 1 of every key in key order, in batches: a bulk load,
/// which settled compaction moves down without rewriting.
fn preload(db: &Db, ks: &Keyspace, order: &KeyOrder) -> Result<()> {
    for chunk in order.ids.chunks(PRELOAD_BATCH) {
        let mut batch = WriteBatch::new();
        let writes: Vec<(u64, u64)> = chunk
            .iter()
            .map(|&id| {
                let (version, value) = ks.next_write(id);
                batch.put(&key_name(id), &value);
                (id, version)
            })
            .collect();
        db.write(batch)?;
        for (id, version) in writes {
            ks.ack(id, version);
        }
    }
    Ok(())
}

/// Full scan after recovery: exactly the keys of `order`, in order, each
/// at its last acked version or later.
fn verify_all(db: &Db, ks: &Keyspace, order: &KeyOrder, check: &Checker) -> Result<()> {
    let mut it = db.iter()?;
    it.seek_to_first()?;
    for (pos, &id) in order.ids.iter().enumerate() {
        if !it.valid() {
            check.record(Err(format!(
                "after recovery the database ends after {pos} of {} keys",
                order.len()
            )));
            return Ok(());
        }
        if it.key() != key_name(id).as_slice() {
            check.record(Err(format!(
                "after recovery key #{pos} is {:?}, expected {:?}",
                String::from_utf8_lossy(it.key()),
                String::from_utf8_lossy(&key_name(id))
            )));
            return Ok(());
        }
        check.record(ks.check(id, ks.acked(id), Some(it.value())));
        it.next()?;
    }
    if it.valid() {
        check.record(Err(format!(
            "after recovery an unwritten key {:?} exists",
            String::from_utf8_lossy(it.key())
        )));
    }
    Ok(())
}

/// `gets` gets and `scans` scans spread over `threads` clients, zipfian
/// over `order`, with no concurrent writes.
fn read_probe(
    cx: &Cx<'_>,
    order: &KeyOrder,
    threads: usize,
    (gets, scans): (usize, usize),
    phase: u64,
) -> OpLog {
    let n = order.len() as u64;
    merged(clients_n(threads, |c| {
        let mut cl = Client::new(cx, c, phase);
        let mut zipf = ScrambledZipfian::new(n);
        for _ in 0..gets / threads {
            let pos = zipf.next(&mut cl.rng, n) as usize;
            cl.get(order.ids[pos]);
        }
        for _ in 0..scans / threads {
            let pos = zipf.next(&mut cl.rng, n) as usize;
            let len = 1 + cl.rng.next_below(SCAN_MAX);
            cl.scan(order, pos, len);
        }
        cl.log
    }))
}

/// The id client `c` owns next to `id`: each key has one writer thread.
fn owned(id: u64, c: usize) -> u64 {
    id - id % CLIENTS as u64 + c as u64
}

/// Device bytes written per user byte accepted while `f` ran.
fn write_amp<T>(store: &Store, f: impl FnOnce() -> Result<T>) -> Result<(T, f64)> {
    let device = store.env.stats().bytes_written();
    let user = store.db.stats().snapshot().user_bytes_written;
    let out = f()?;
    let device = store.env.stats().bytes_written() - device;
    let user = store.db.stats().snapshot().user_bytes_written - user;
    Ok((out, device as f64 / user.max(1) as f64))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// One run of a workload's timed phase.
#[derive(Debug, Default)]
struct Phase {
    log: OpLog,
    secs: f64,
    write_amp: f64,
    /// Ids the phase inserted (ingest only).
    inserted: Vec<u64>,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.log.ops() as f64 / self.secs
    }
}

/// Run `f` with tracing on and compute the per-layer metrics of what it
/// did to `db`; `untraced_ops_per_s` is the same phase's untraced rate.
fn trace_phase(
    tracer: &Tracer,
    db: &Db,
    untraced_ops_per_s: f64,
    f: impl FnOnce() -> Result<Phase>,
) -> Result<(Phase, Vec<LayerMetric>)> {
    let before = Counters::of(db);
    tracer.set_enabled(true);
    let out = f();
    tracer.set_enabled(false);
    let phase = out?;
    let after = Counters::of(db);
    let (op_spans, env_spans) = tracer.take();
    let ops = PhaseOps {
        traced_ops_per_s: phase.ops_per_s(),
        untraced_ops_per_s,
        ..phase.log.phase_ops()
    };
    let layers = layers::compute(&before, &after, &op_spans, &env_spans, ops);
    Ok((phase, layers))
}

/// What a workload measured.
struct Outcome {
    setup_s: Vec<f64>,
    timed: Phase,
    layers: Option<Vec<LayerMetric>>,
    check: OpLog,
    write_amp: f64,
    space_amp: f64,
    recovery_s: Vec<f64>,
    notes: Vec<String>,
}

/// Unique hashed keys until the deadline, then settle, all timed.
fn ingest_phase(cx: &Cx<'_>, store: &Store, seconds: f64, phase: u64) -> Result<Phase> {
    let start = Instant::now();
    let end = deadline(seconds);
    let ((log, max_id), write_amp) = write_amp(store, || {
        let per_client = clients(|c| {
            let mut cl = Client::new(cx, c, phase);
            let mut id = c as u64;
            while Instant::now() < end && (id as usize) < cx.ks.capacity() {
                cl.put(id);
                id += CLIENTS as u64;
            }
            (cl.log, id)
        });
        store.settle()?;
        let max_id = per_client.iter().map(|(_, id)| *id).max().unwrap_or(0);
        Ok((
            merged(per_client.into_iter().map(|(l, _)| l).collect()),
            max_id,
        ))
    })?;
    let secs = start.elapsed().as_secs_f64();
    let inserted = (0..max_id).filter(|&id| cx.ks.acked(id) > 0).collect();
    Ok(Phase {
        log,
        secs,
        write_amp,
        inserted,
    })
}

fn ingest(cli: &Cli, tracer: &Arc<Tracer>, check: &Checker) -> Result<Outcome> {
    let opts = base_options();
    let mut setup_s = Vec::new();
    let mut store = None;
    for _ in 0..INGEST_SETUPS {
        let start = Instant::now();
        let fresh = Store::fresh(tracer, opts.clone())?;
        setup_s.push(start.elapsed().as_secs_f64());
        store = Some(fresh);
    }
    let mut store = store.expect("INGEST_SETUPS > 0");
    let mut ks = Keyspace::new(INGEST_CAPACITY, INGEST_VALUE);
    let mut timed = ingest_phase(
        &Cx::new(&store, &ks, tracer, check, cli.seed),
        &store,
        cli.seconds,
        1,
    )?;
    let mut layers = None;
    if cli.trace {
        // The traced run starts from an empty database too.
        let untraced = timed.ops_per_s();
        store = Store::fresh(tracer, opts.clone())?;
        ks = Keyspace::new(INGEST_CAPACITY, INGEST_VALUE);
        let cx = Cx::new(&store, &ks, tracer, check, cli.seed);
        let (t, l) = trace_phase(tracer, &store.db, untraced, || {
            ingest_phase(&cx, &store, cli.seconds, 2)
        })?;
        timed = t;
        layers = Some(l);
    }

    let order = KeyOrder::new(timed.inserted.iter().copied());
    let live = order.len() as u64 * (KEY_LEN + INGEST_VALUE) as u64;
    let space_amp = store.space_amp(live)?;
    let levels: Vec<usize> = store.db.level_info().iter().map(|l| l.tables).collect();
    let notes = vec![
        format!(
            "data: {} keys x {INGEST_VALUE} B inserted = {:.1} MiB live; {} logical SSTables, per level {levels:?}",
            order.len(),
            live as f64 / (1 << 20) as f64,
            store.logical_tables(),
        ),
        format!(
            "check phase: {INGEST_CHECK_GETS} zipfian gets and {INGEST_CHECK_SCANS} scans of the settled tree from one client give get_* and scan_*"
        ),
    ];
    // One client, so the seek compactions these reads trigger have a core
    // of their own.
    let probe = read_probe(
        &Cx::new(&store, &ks, tracer, check, cli.seed),
        &order,
        1,
        (INGEST_CHECK_GETS, INGEST_CHECK_SCANS),
        3,
    );
    let (store, recovery_s) = store.crash_and_recover(tracer, opts)?;
    verify_all(&store.db, &ks, &order, check)?;
    Ok(Outcome {
        setup_s,
        write_amp: timed.write_amp,
        timed,
        layers,
        check: probe,
        space_amp,
        recovery_s,
        notes,
    })
}

/// 50/50 zipfian gets and synced puts until the deadline.
fn mixed_phase(cx: &Cx<'_>, store: &Store, seconds: f64, phase: u64) -> Result<Phase> {
    let start = Instant::now();
    let end = deadline(seconds);
    let (log, write_amp) = write_amp(store, || {
        Ok(merged(clients(|c| {
            let mut cl = Client::new(cx, c, phase);
            let mut zipf = ScrambledZipfian::new(MIXED_KEYS);
            while Instant::now() < end {
                let id = zipf.next(&mut cl.rng, MIXED_KEYS);
                if cl.rng.next_f64() < 0.5 {
                    cl.get(id);
                } else {
                    cl.put(owned(id, c));
                }
            }
            cl.log
        })))
    })?;
    Ok(Phase {
        log,
        secs: start.elapsed().as_secs_f64(),
        write_amp,
        inserted: Vec::new(),
    })
}

fn durable_mixed(cli: &Cli, tracer: &Arc<Tracer>, check: &Checker) -> Result<Outcome> {
    let mut load_opts = base_options();
    load_opts.value_separation_threshold = Some(MIXED_SEPARATION);
    let opts = Options {
        sync_wal: true,
        ..load_opts.clone()
    };
    let order = KeyOrder::new(0..MIXED_KEYS);
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..MIXED_SETUPS {
        let start = Instant::now();
        let ks = Keyspace::new(MIXED_KEYS as usize, MIXED_VALUE);
        let store = Store::fresh(tracer, load_opts.clone())?;
        preload(&store.db, &ks, &order)?;
        store.settle()?;
        let store = store.reopen(tracer, opts.clone())?;
        setup_s.push(start.elapsed().as_secs_f64());
        loaded = Some((store, ks));
    }
    let (store, ks) = loaded.expect("MIXED_SETUPS > 0");
    // Measured on the loaded database: the garbage the timed phase leaves
    // in the value log grows with the number of puts it completes, so there
    // a faster engine would read as a worse space_amp.
    let space_amp = store.space_amp(MIXED_KEYS * (KEY_LEN + MIXED_VALUE) as u64)?;
    let tables: u64 = store
        .db
        .current_version()
        .all_tables()
        .map(|(_, _, t)| t.size)
        .sum();
    let cache = opts.block_cache_bytes;
    let notes = vec![
        format!(
            "data: {MIXED_KEYS} keys x {MIXED_VALUE} B separated (threshold {MIXED_SEPARATION} B); key+pointer tables {:.1} KiB = {:.2}x the {} KiB block cache",
            tables as f64 / 1024.0,
            tables as f64 / cache as f64,
            cache / 1024
        ),
        format!(
            "check phase: {MIXED_CHECK_SCANS} zipfian scans after recovery give scan_*; space_amp is of the loaded database"
        ),
    ];

    let cx = Cx::new(&store, &ks, tracer, check, cli.seed);
    let mut timed = mixed_phase(&cx, &store, cli.seconds, 1)?;
    let mut layers = None;
    if cli.trace {
        let untraced = timed.ops_per_s();
        let (t, l) = trace_phase(tracer, &store.db, untraced, || {
            mixed_phase(&cx, &store, cli.seconds, 2)
        })?;
        timed = t;
        layers = Some(l);
    }
    let (store, recovery_s) = store.crash_and_recover(tracer, opts)?;
    verify_all(&store.db, &ks, &order, check)?;
    let probe = read_probe(
        &Cx::new(&store, &ks, tracer, check, cli.seed),
        &order,
        CLIENTS,
        (0, MIXED_CHECK_SCANS),
        3,
    );
    Ok(Outcome {
        setup_s,
        write_amp: timed.write_amp,
        timed,
        layers,
        check: probe,
        space_amp,
        recovery_s,
        notes,
    })
}

/// Zipfian gets and scans, read-only, until the deadline.
fn scan_phase(cx: &Cx<'_>, order: &KeyOrder, seconds: f64, phase: u64) -> Phase {
    let start = Instant::now();
    let end = deadline(seconds);
    let log = merged(clients(|c| {
        let mut cl = Client::new(cx, c, phase);
        let mut zipf = ScrambledZipfian::new(SCAN_KEYS);
        while Instant::now() < end {
            let id = zipf.next(&mut cl.rng, SCAN_KEYS);
            if cl.rng.next_f64() < SCAN_SHARE {
                let len = 1 + cl.rng.next_below(SCAN_MAX);
                cl.scan(order, order.rank[&id], len);
            } else {
                cl.get(id);
            }
        }
        cl.log
    }));
    Phase {
        log,
        secs: start.elapsed().as_secs_f64(),
        ..Phase::default()
    }
}

fn read_scan(cli: &Cli, tracer: &Arc<Tracer>, check: &Checker) -> Result<Outcome> {
    let opts = base_options();
    let order = KeyOrder::new(0..SCAN_KEYS);
    let mut setup_s = Vec::new();
    let mut loaded = None;
    for _ in 0..SCAN_SETUPS {
        let start = Instant::now();
        let ks = Keyspace::new(SCAN_KEYS as usize, SCAN_VALUE);
        let store = Store::fresh(tracer, opts.clone())?;
        preload(&store.db, &ks, &order)?;
        store.settle()?;
        setup_s.push(start.elapsed().as_secs_f64());
        loaded = Some((store, ks));
    }
    let (store, ks) = loaded.expect("SCAN_SETUPS > 0");
    let live = SCAN_KEYS * (KEY_LEN + SCAN_VALUE) as u64;
    let notes = vec![
        format!(
            "data: {SCAN_KEYS} keys x {SCAN_VALUE} B = {:.1} MiB live = {:.0}x the {} KiB block cache; {} logical SSTables vs max_open_files {}",
            live as f64 / (1 << 20) as f64,
            live as f64 / opts.block_cache_bytes as f64,
            opts.block_cache_bytes / 1024,
            store.logical_tables(),
            opts.max_open_files
        ),
        format!(
            "check phase: {SCAN_CHECK_PUTS} uniform unsynced updates from one client, then settle, give put_*, write_amp and space_amp"
        ),
    ];

    let cx = Cx::new(&store, &ks, tracer, check, cli.seed);
    let mut timed = scan_phase(&cx, &order, cli.seconds, 1);
    let mut layers = None;
    if cli.trace {
        let untraced = timed.ops_per_s();
        let (t, l) = trace_phase(tracer, &store.db, untraced, || {
            Ok(scan_phase(&cx, &order, cli.seconds, 2))
        })?;
        timed = t;
        layers = Some(l);
    }
    let (updates, write_amp) = write_amp(&store, || {
        // One client, so background work has a core of its own.
        let mut cl = Client::new(&cx, 0, 3);
        for _ in 0..SCAN_CHECK_PUTS {
            let id = cl.rng.next_below(SCAN_KEYS);
            cl.put(id);
        }
        store.settle()?;
        Ok(cl.log)
    })?;
    let space_amp = store.space_amp(live)?;
    let (store, recovery_s) = store.crash_and_recover(tracer, opts)?;
    verify_all(&store.db, &ks, &order, check)?;
    Ok(Outcome {
        setup_s,
        timed,
        layers,
        check: updates,
        write_amp,
        space_amp,
        recovery_s,
        notes,
    })
}

/// One end-to-end metric with how it was sampled.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    detail: String,
}

/// The `p`th percentile of `samples` in µs: the median, over up to five
/// consecutive time windows of equal sample count, of each window's
/// percentile, so a burst of noise on the host moves one window and not
/// the result. Refused unless every window has at least [`MIN_BEYOND`]
/// samples beyond its percentile.
fn percentile(
    name: &'static str,
    samples: &[(u64, u64)],
    p: f64,
) -> std::result::Result<Metric, String> {
    let mut by_time = samples.to_vec();
    by_time.sort_unstable();
    let n = by_time.len();
    let per_window = (MIN_BEYOND as f64 / (1.0 - p / 100.0)).ceil() as usize;
    let windows = [5, 3, 1]
        .into_iter()
        .find(|w| w * per_window <= n)
        .unwrap_or(1);
    let mut values = Vec::with_capacity(windows);
    let mut beyond = usize::MAX;
    for w in 0..windows {
        let mut lat: Vec<u64> = by_time[w * n / windows..(w + 1) * n / windows]
            .iter()
            .map(|&(_, ns)| ns)
            .collect();
        lat.sort_unstable();
        let rank = ((p / 100.0) * lat.len() as f64).ceil().max(1.0) as usize;
        beyond = beyond.min(lat.len().saturating_sub(rank));
        if let Some(&ns) = lat.get(rank - 1) {
            values.push(ns as f64 / 1000.0);
        }
    }
    if values.len() < windows || beyond < MIN_BEYOND {
        return Err(format!(
            "{name}: {n} samples leave {beyond} beyond p{p}, fewer than {MIN_BEYOND}"
        ));
    }
    Ok(Metric {
        name,
        value: median(values),
        unit: "us",
        detail: format!("n={n}, median of {windows} windows, each {beyond}+ beyond"),
    })
}

/// The calls of `kind` a workload's latencies come from: its timed phase
/// if that has any, else its check phase.
fn calls(out: &Outcome, kind: usize) -> (&[(u64, u64)], &'static str) {
    if out.timed.log.lat[kind].is_empty() {
        (&out.check.lat[kind], "check")
    } else {
        (&out.timed.log.lat[kind], "timed")
    }
}

/// p99 of every op kind, printed but not gated: on a two-vCPU VM, host CPU
/// steal moves it by up to 2x between runs while p90 holds.
fn tails(out: &Outcome) -> Vec<String> {
    [
        (PUT, "put_p99_us"),
        (GET, "get_p99_us"),
        (SCAN, "scan_p99_us"),
    ]
    .into_iter()
    .map(|(kind, name)| {
        let (samples, from) = calls(out, kind);
        match percentile(name, samples, 99.0) {
            Ok(m) => format!(
                "{name} = {} us ({}, {from} phase; not gated)",
                m.value, m.detail
            ),
            Err(e) => format!("not reported: {e}"),
        }
    })
    .collect()
}

fn end_to_end(out: &Outcome) -> std::result::Result<Vec<Metric>, String> {
    let timed = &out.timed;
    let mut metrics = vec![
        Metric {
            name: "setup_s",
            value: median(out.setup_s.clone()),
            unit: "s",
            detail: format!(
                "median of {} setups: {:.4?}",
                out.setup_s.len(),
                out.setup_s
            ),
        },
        Metric {
            name: "ops_per_s",
            value: timed.ops_per_s(),
            unit: "1/s",
            detail: format!("{} ops in {:.3} s", timed.log.ops(), timed.secs),
        },
    ];
    for (kind, p50, p90) in [
        (PUT, "put_p50_us", "put_p90_us"),
        (GET, "get_p50_us", "get_p90_us"),
        (SCAN, "scan_p50_us", "scan_p90_us"),
    ] {
        let (samples, from) = calls(out, kind);
        for (name, p) in [(p50, 50.0), (p90, 90.0)] {
            let mut m = percentile(name, samples, p)?;
            m.detail = format!("{}, {from} phase", m.detail);
            metrics.push(m);
        }
    }
    metrics.extend([
        Metric {
            name: "write_amp",
            value: out.write_amp,
            unit: "ratio",
            detail: "device bytes written / user bytes accepted".to_string(),
        },
        Metric {
            name: "space_amp",
            value: out.space_amp,
            unit: "ratio",
            detail: "live tables + vlog bytes / live user bytes".to_string(),
        },
        Metric {
            name: "recovery_s",
            value: median(out.recovery_s.clone()),
            unit: "s",
            detail: format!(
                "median Db::open after power loss, {} copies: {:.4?}",
                out.recovery_s.len(),
                out.recovery_s
            ),
        },
    ]);
    Ok(metrics)
}

fn provenance(cli: &Cli) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let d = bolt_bench::bench_device();
    let o = base_options();
    let logical = match &o.compaction_style {
        bolt_core::CompactionStyle::Bolt(b) => b.logical_sstable_bytes,
        _ => o.sstable_bytes,
    };
    vec![
        format!(
            "workload={:?} seed={} seconds={} trace={}",
            cli.workload, cli.seed, cli.seconds, cli.trace as u8
        ),
        format!("load: nproc={nproc}, client threads={CLIENTS} (closed loop, one process)"),
        format!(
            "device: bench_device() write {} MiB/s, read {} MiB/s, read base {:?}, barrier {:?}, time_scale {}",
            d.write_bandwidth >> 20,
            d.read_bandwidth >> 20,
            d.read_base_latency,
            d.barrier_latency,
            d.time_scale
        ),
        format!(
            "options: Options::bolt().scaled(1/64): memtable {} KiB, logical SSTable {} KiB, block cache {} KiB, max_open_files {}, fd cache {} files",
            o.memtable_bytes >> 10,
            logical >> 10,
            o.block_cache_bytes >> 10,
            o.max_open_files,
            o.fd_cache_files
        ),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in provenance(&cli) {
        println!("# {line}");
    }
    epoch();
    let tracer = Arc::new(Tracer::default());
    let check = Checker::default();
    let outcome = match cli.workload {
        Workload::Ingest => ingest(&cli, &tracer, &check),
        Workload::DurableMixed => durable_mixed(&cli, &tracer, &check),
        Workload::ReadScan => read_scan(&cli, &tracer, &check),
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: engine error outside a timed call: {e}");
            return ExitCode::from(3);
        }
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let metrics = match end_to_end(&out) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: refusing to report {e}");
            return ExitCode::from(4);
        }
    };
    for m in &metrics {
        println!("# {} = {} {} ({})", m.name, m.value, m.unit, m.detail);
    }
    for line in tails(&out) {
        println!("# {line}");
    }
    let logs = [&out.timed.log, &out.check];
    let attempted_by = |k: usize| logs.iter().map(|l| l.lat[k].len() as u64).sum::<u64>();
    let failed_by = |k: usize| logs.iter().map(|l| l.failed[k]).sum::<u64>();
    let attempted: u64 = [PUT, GET, SCAN].map(attempted_by).iter().sum();
    let failed: u64 = [PUT, GET, SCAN].map(failed_by).iter().sum();
    println!(
        "# errors: put {}/{}, get {}/{}, scan {}/{}; error_rate={}",
        failed_by(PUT),
        attempted_by(PUT),
        failed_by(GET),
        attempted_by(GET),
        failed_by(SCAN),
        attempted_by(SCAN),
        failed as f64 / attempted.max(1) as f64
    );
    let reported: Vec<(&str, f64, &str)> = match &out.layers {
        Some(layers) => {
            for l in layers {
                println!("# {} = {} {}", l.name, l.value, l.unit);
            }
            layers.iter().map(|l| (l.name, l.value, l.unit)).collect()
        }
        None => metrics.iter().map(|m| (m.name, m.value, m.unit)).collect(),
    };
    if let Some((name, ..)) = reported.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: {name} is not a finite number");
        return ExitCode::from(4);
    }
    let correct = check.violations() == 0;
    if !correct {
        eprintln!(
            "perfbench: {} correctness violations; first: {}",
            check.violations(),
            check.first().unwrap_or_default()
        );
    }
    println!("{}", json(correct, attempted, failed, &reported));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
