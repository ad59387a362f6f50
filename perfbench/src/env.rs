//! The benchmark's `Env` wrapper: span tracing and a crash gate around a
//! [`SimEnv`].
//!
//! `Env` is the engine's public I/O seam, so every device call the engine
//! makes passes through [`BenchEnv`]. With tracing on, the wrapper records
//! one [`EnvSpan`] per `append`, `sync`, `read`, `new_random_access_file`,
//! `punch_hole` and `rename`, labelled by the file kind its path names and
//! parented to the enclosing `Db` call on client threads (see
//! [`Tracer::op`]); a span with no enclosing call ran on an engine thread.
//! With tracing off, each call adds a read lock on the crash gate and one
//! relaxed atomic load to the delegation.
//!
//! [`BenchEnv::crash`] models power loss: it waits for in-flight calls,
//! drops every byte no completed `sync` covered, and fails every later call
//! through this handle, so the old engine's threads see I/O errors as a
//! dead process would and cannot touch the files the next `Db::open` owns.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use std::time::Instant;

use bolt_common::{Error, Result};
use bolt_env::{CrashConfig, Env, IoStats, RandomAccessFile, SimEnv, WritableFile};

/// What kind of engine file a path names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// `*.log`: the write-ahead log.
    Wal,
    /// `*.vlog`: value-log segments.
    Vlog,
    /// `MANIFEST-*`, `CURRENT` and its temp file.
    Manifest,
    /// `*.sst`: tables and compaction files.
    Table,
    /// Anything else.
    Other,
}

impl FileKind {
    /// Classify `path` by its file name.
    pub fn of(path: &str) -> FileKind {
        let name = path.rsplit('/').next().unwrap_or(path);
        if name.ends_with(".log") {
            FileKind::Wal
        } else if name.ends_with(".vlog") {
            FileKind::Vlog
        } else if name.starts_with("MANIFEST-")
            || name.starts_with("CURRENT")
            || name.ends_with(".tmp")
        {
            FileKind::Manifest
        } else if name.ends_with(".sst") {
            FileKind::Table
        } else {
            FileKind::Other
        }
    }
}

/// The device call a span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvOp {
    /// `WritableFile::append`.
    Append,
    /// `WritableFile::sync` or `ordering_barrier`.
    Sync,
    /// `RandomAccessFile::read`.
    Read,
    /// `Env::new_random_access_file`.
    Open,
    /// `Env::punch_hole`.
    Punch,
    /// `Env::rename_file`.
    Rename,
}

/// The public `Db` call an op span times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Db::put`.
    Put,
    /// `Db::get`.
    Get,
    /// `Db::iter`.
    Iter,
    /// `DbIterator::seek`.
    Seek,
    /// `DbIterator::next`.
    Next,
}

/// One timed device call.
#[derive(Debug, Clone, Copy)]
pub struct EnvSpan {
    /// The call.
    pub op: EnvOp,
    /// The file kind its path names.
    pub file: FileKind,
    /// Id of the enclosing op span, 0 on engine threads.
    pub parent: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Bytes appended, read or punched.
    pub bytes: u64,
}

/// One timed public `Db` call.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Unique id; env spans name it as their parent.
    pub id: u64,
    /// The call.
    pub kind: OpKind,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

thread_local! {
    /// Id of the op span the current thread is inside, 0 outside any.
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span store shared by the op wrappers and [`BenchEnv`].
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    env_spans: Mutex<Vec<EnvSpan>>,
    op_spans: Mutex<Vec<OpSpan>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            env_spans: Mutex::new(Vec::new()),
            op_spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turn span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn start(&self) -> Option<u64> {
        self.enabled.load(Ordering::Relaxed).then(|| self.now_ns())
    }

    fn finish_env(&self, start: Option<u64>, op: EnvOp, file: FileKind, bytes: u64) {
        if let Some(start_ns) = start {
            let span = EnvSpan {
                op,
                file,
                parent: CURRENT_OP.with(Cell::get),
                start_ns,
                end_ns: self.now_ns(),
                bytes,
            };
            self.env_spans
                .lock()
                .expect("span store poisoned")
                .push(span);
        }
    }

    /// Run `f`, a public `Db` call, inside an op span of `kind`: env spans
    /// on this thread while `f` runs become its children.
    pub fn op<R>(&self, kind: OpKind, f: impl FnOnce() -> R) -> R {
        let Some(start_ns) = self.start() else {
            return f();
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        CURRENT_OP.with(|c| c.set(id));
        let out = f();
        CURRENT_OP.with(|c| c.set(0));
        let span = OpSpan {
            id,
            kind,
            start_ns,
            end_ns: self.now_ns(),
        };
        self.op_spans
            .lock()
            .expect("span store poisoned")
            .push(span);
        out
    }

    /// Remove and return every span recorded so far.
    pub fn take(&self) -> (Vec<OpSpan>, Vec<EnvSpan>) {
        let ops = std::mem::take(&mut *self.op_spans.lock().expect("span store poisoned"));
        let env = std::mem::take(&mut *self.env_spans.lock().expect("span store poisoned"));
        (ops, env)
    }
}

/// `true` once the handle is down. Every call holds a read guard for its
/// whole duration, so [`BenchEnv::crash`] (the writer) cuts between calls.
#[derive(Debug, Default)]
struct Gate(RwLock<bool>);

impl Gate {
    fn enter(&self) -> Result<RwLockReadGuard<'_, bool>> {
        let down = self.0.read().expect("crash gate poisoned");
        if *down {
            Err(Error::io("simulated power loss: env handle is down"))
        } else {
            Ok(down)
        }
    }
}

/// [`SimEnv`] behind the tracer and the crash gate.
#[derive(Debug)]
pub struct BenchEnv {
    sim: Arc<SimEnv>,
    tracer: Arc<Tracer>,
    gate: Arc<Gate>,
}

impl BenchEnv {
    /// A live handle over `sim`.
    pub fn new(sim: Arc<SimEnv>, tracer: Arc<Tracer>) -> BenchEnv {
        BenchEnv {
            sim,
            tracer,
            gate: Arc::default(),
        }
    }

    /// Power loss: wait for in-flight calls, keep only synced bytes, and
    /// fail every later call through this handle and the files it opened.
    pub fn crash(&self) {
        let mut down = self.gate.0.write().expect("crash gate poisoned");
        self.sim.crash(CrashConfig::Clean);
        *down = true;
    }

    fn wrap_writable(&self, path: &str, file: Box<dyn WritableFile>) -> Box<dyn WritableFile> {
        Box::new(TracedWritable {
            inner: file,
            file: FileKind::of(path),
            tracer: Arc::clone(&self.tracer),
            gate: Arc::clone(&self.gate),
        })
    }
}

impl Env for BenchEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let _g = self.gate.enter()?;
        let file = self.sim.new_writable_file(path)?;
        Ok(self.wrap_writable(path, file))
    }

    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        let _g = self.gate.enter()?;
        let file = self.sim.new_appendable_file(path)?;
        Ok(self.wrap_writable(path, file))
    }

    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        let _g = self.gate.enter()?;
        let kind = FileKind::of(path);
        let start = self.tracer.start();
        let file = self.sim.new_random_access_file(path);
        self.tracer.finish_env(start, EnvOp::Open, kind, 0);
        Ok(Arc::new(TracedRandomAccess {
            inner: file?,
            file: kind,
            tracer: Arc::clone(&self.tracer),
            gate: Arc::clone(&self.gate),
        }))
    }

    fn file_exists(&self, path: &str) -> bool {
        self.gate.enter().is_ok() && self.sim.file_exists(path)
    }

    fn file_size(&self, path: &str) -> Result<u64> {
        let _g = self.gate.enter()?;
        self.sim.file_size(path)
    }

    fn delete_file(&self, path: &str) -> Result<()> {
        let _g = self.gate.enter()?;
        self.sim.delete_file(path)
    }

    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.sim.rename_file(from, to);
        self.tracer
            .finish_env(start, EnvOp::Rename, FileKind::of(to), 0);
        out
    }

    fn create_dir_all(&self, path: &str) -> Result<()> {
        let _g = self.gate.enter()?;
        self.sim.create_dir_all(path)
    }

    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        let _g = self.gate.enter()?;
        self.sim.list_dir(dir)
    }

    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.sim.punch_hole(path, offset, len);
        self.tracer
            .finish_env(start, EnvOp::Punch, FileKind::of(path), len);
        out
    }

    fn link_file(&self, src: &str, dst: &str) -> Result<()> {
        let _g = self.gate.enter()?;
        self.sim.link_file(src, dst)
    }

    fn link_count(&self, path: &str) -> Result<u64> {
        let _g = self.gate.enter()?;
        self.sim.link_count(path)
    }

    fn stats(&self) -> &IoStats {
        self.sim.stats()
    }

    fn supports_ordering_barrier(&self) -> bool {
        self.sim.supports_ordering_barrier()
    }
}

struct TracedWritable {
    inner: Box<dyn WritableFile>,
    file: FileKind,
    tracer: Arc<Tracer>,
    gate: Arc<Gate>,
}

impl WritableFile for TracedWritable {
    fn append(&mut self, data: &[u8]) -> Result<()> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.inner.append(data);
        self.tracer
            .finish_env(start, EnvOp::Append, self.file, data.len() as u64);
        out
    }

    fn flush(&mut self) -> Result<()> {
        let _g = self.gate.enter()?;
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<()> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.inner.sync();
        self.tracer.finish_env(start, EnvOp::Sync, self.file, 0);
        out
    }

    fn ordering_barrier(&mut self) -> Result<()> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.inner.ordering_barrier();
        self.tracer.finish_env(start, EnvOp::Sync, self.file, 0);
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

struct TracedRandomAccess {
    inner: Arc<dyn RandomAccessFile>,
    file: FileKind,
    tracer: Arc<Tracer>,
    gate: Arc<Gate>,
}

impl RandomAccessFile for TracedRandomAccess {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let _g = self.gate.enter()?;
        let start = self.tracer.start();
        let out = self.inner.read(offset, len);
        let bytes = out.as_ref().map_or(0, |d| d.len() as u64);
        self.tracer.finish_env(start, EnvOp::Read, self.file, bytes);
        out
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}
