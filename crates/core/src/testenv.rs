//! A recording [`Env`] for unit tests: a [`MemEnv`] that logs every
//! read-handle open and every read, and can flip one byte of what a read
//! returns (a transient media error that never reaches the stored file).

use std::sync::{Arc, Mutex};

use bolt_common::Result;
use bolt_env::{Env, IoStats, MemEnv, RandomAccessFile, WritableFile};

/// One read: `(path, offset, len)`.
pub(crate) type Read = (String, u64, u64);

#[derive(Default)]
struct Log {
    reads: Mutex<Vec<Read>>,
    /// `(path, absolute offset)` of the byte flipped in every read
    /// covering it.
    flip: Mutex<Option<(String, u64)>>,
}

/// A [`MemEnv`] that records opens and reads.
#[derive(Default)]
pub(crate) struct RecordingEnv {
    inner: MemEnv,
    opens: Mutex<Vec<String>>,
    log: Arc<Log>,
}

impl RecordingEnv {
    /// Read-handle opens of paths ending in `suffix`.
    pub(crate) fn opens(&self, suffix: &str) -> u64 {
        let opens = self.opens.lock().unwrap();
        opens.iter().filter(|p| p.ends_with(suffix)).count() as u64
    }

    /// Every read of a path ending in `suffix`, oldest first.
    pub(crate) fn reads(&self, suffix: &str) -> Vec<Read> {
        let reads = self.log.reads.lock().unwrap();
        reads
            .iter()
            .filter(|(p, _, _)| p.ends_with(suffix))
            .cloned()
            .collect()
    }

    /// Forget the recorded reads.
    pub(crate) fn clear_reads(&self) {
        self.log.reads.lock().unwrap().clear();
    }

    /// Flip the byte at `offset` of `path` in every read that covers it
    /// (`None` disarms). The stored file is never changed.
    pub(crate) fn flip_byte(&self, at: Option<(&str, u64)>) {
        *self.log.flip.lock().unwrap() = at.map(|(path, offset)| (path.to_string(), offset));
    }
}

struct RecordingFile {
    path: String,
    inner: Arc<dyn RandomAccessFile>,
    log: Arc<Log>,
}

impl RandomAccessFile for RecordingFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.log
            .reads
            .lock()
            .unwrap()
            .push((self.path.clone(), offset, len as u64));
        let mut data = self.inner.read(offset, len)?;
        if let Some((path, at)) = self.log.flip.lock().unwrap().as_ref() {
            if *path == self.path && (offset..offset + data.len() as u64).contains(at) {
                data[(at - offset) as usize] ^= 0x40;
            }
        }
        Ok(data)
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl Env for RecordingEnv {
    fn new_writable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.inner.new_writable_file(path)
    }
    fn new_appendable_file(&self, path: &str) -> Result<Box<dyn WritableFile>> {
        self.inner.new_appendable_file(path)
    }
    fn new_random_access_file(&self, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        self.opens.lock().unwrap().push(path.to_string());
        Ok(Arc::new(RecordingFile {
            path: path.to_string(),
            inner: self.inner.new_random_access_file(path)?,
            log: Arc::clone(&self.log),
        }))
    }
    fn file_exists(&self, path: &str) -> bool {
        self.inner.file_exists(path)
    }
    fn file_size(&self, path: &str) -> Result<u64> {
        self.inner.file_size(path)
    }
    fn delete_file(&self, path: &str) -> Result<()> {
        self.inner.delete_file(path)
    }
    fn rename_file(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename_file(from, to)
    }
    fn create_dir_all(&self, path: &str) -> Result<()> {
        self.inner.create_dir_all(path)
    }
    fn list_dir(&self, dir: &str) -> Result<Vec<String>> {
        self.inner.list_dir(dir)
    }
    fn punch_hole(&self, path: &str, offset: u64, len: u64) -> Result<()> {
        self.inner.punch_hole(path, offset, len)
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
}
