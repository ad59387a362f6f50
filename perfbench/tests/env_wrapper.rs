//! The benchmark's `Env` wrapper must not change what the engine does: a
//! deterministic single-client run through `BenchEnv`, with tracing on,
//! must give the same device counters as the same run on bare `SimEnv`.

use std::sync::Arc;

use bolt_common::rng::Rng64;
use bolt_core::{Db, Options};
use bolt_env::{DeviceModel, Env, IoSnapshot, SimEnv};
use bolt_ycsb::key_name;
use perfbench::env::{BenchEnv, OpKind, Tracer};
use perfbench::oracle::encode;

const KEYS: u64 = 400;

/// Puts (half of them separated into the value log), explicit flushes and
/// compactions, gets, scans, then a reopen. Every background step is
/// waited for, so the I/O sequence depends only on `seed`.
fn run(env: Arc<dyn Env>, tracer: &Tracer, seed: u64) -> IoSnapshot {
    let mut opts = Options::bolt().scaled(1.0 / 64.0);
    opts.value_separation_threshold = Some(1024);
    // A get must not hand the background thread work it would start at a
    // time of its own choosing.
    opts.seek_compaction = false;
    let db = Db::open(Arc::clone(&env), "db", opts.clone()).unwrap();
    let mut rng = Rng64::new(seed);
    for round in 1..=12 {
        for _ in 0..40 {
            let id = rng.next_below(KEYS);
            let len = if id.is_multiple_of(2) { 4096 } else { 512 };
            tracer
                .op(OpKind::Put, || {
                    db.put(&key_name(id), &encode(id, round, len))
                })
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_until_quiet().unwrap();
        for _ in 0..50 {
            let key = key_name(rng.next_below(KEYS));
            tracer.op(OpKind::Get, || db.get(&key)).unwrap();
        }
        let mut it = tracer.op(OpKind::Iter, || db.iter()).unwrap();
        let start = key_name(rng.next_below(KEYS));
        tracer.op(OpKind::Seek, || it.seek(&start)).unwrap();
        for _ in 0..20 {
            if !it.valid() {
                break;
            }
            tracer.op(OpKind::Next, || it.next()).unwrap();
        }
    }
    db.close().unwrap();
    drop(db);
    let db = Db::open(Arc::clone(&env), "db", opts).unwrap();
    let mut it = db.iter().unwrap();
    it.seek_to_first().unwrap();
    while it.valid() {
        it.next().unwrap();
    }
    drop(it);
    db.close().unwrap();
    env.stats().snapshot()
}

#[test]
fn wrapper_is_transparent_to_device_counters() {
    let idle = Tracer::default();
    let bare = run(Arc::new(SimEnv::new(DeviceModel::fast_test())), &idle, 7);

    let tracer = Arc::new(Tracer::default());
    tracer.set_enabled(true);
    let sim = Arc::new(SimEnv::new(DeviceModel::fast_test()));
    let wrapped = run(
        Arc::new(BenchEnv::new(sim, Arc::clone(&tracer))),
        &tracer,
        7,
    );
    let (op_spans, env_spans) = tracer.take();
    assert!(
        !op_spans.is_empty() && !env_spans.is_empty(),
        "spans recorded"
    );

    assert!(bare.bytes_written > 0 && bare.bytes_read > 0 && bare.read_ops > 0);
    assert_eq!(wrapped.bytes_written, bare.bytes_written, "bytes written");
    assert_eq!(wrapped.bytes_read, bare.bytes_read, "bytes read");
    assert_eq!(wrapped.fsync_calls, bare.fsync_calls, "fsyncs");
    assert_eq!(wrapped.read_ops, bare.read_ops, "read ops");
    assert_eq!(wrapped.write_ops, bare.write_ops, "write ops");
}

#[test]
fn crash_keeps_synced_bytes_and_downs_the_handle() {
    let sim = Arc::new(SimEnv::new(DeviceModel::fast_test()));
    let tracer = Arc::new(Tracer::default());
    let env = BenchEnv::new(Arc::clone(&sim), Arc::clone(&tracer));
    env.create_dir_all("d").unwrap();
    let mut f = env.new_writable_file("d/x.log").unwrap();
    f.append(b"synced").unwrap();
    f.sync().unwrap();
    f.append(b" lost").unwrap();

    env.crash();
    assert!(
        f.append(b"late").is_err(),
        "old handles fail after the crash"
    );
    assert!(f.sync().is_err());
    assert!(env.file_size("d/x.log").is_err());

    let after = BenchEnv::new(sim, tracer);
    assert_eq!(after.file_size("d/x.log").unwrap(), 6);
}
