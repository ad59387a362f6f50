//! TableCache and the BoLT file-descriptor cache.
//!
//! LevelDB sizes its TableCache by *entry count* (`max_open_files`), not
//! bytes — so large SSTables get the same number of slots as small ones
//! while each miss re-reads a proportionally larger index block (§2.6).
//! BoLT additionally caches file handles **per compaction file** (§3.2.1):
//! one physical file hosts many logical SSTables, so a small fd cache
//! eliminates most filesystem metadata lookups.
//!
//! [`TableCache::open_file`] is the one way the engine opens a physical
//! file for reading, for tables and value-log segments alike. Handles are
//! keyed by file number, which is sound because every file kind draws its
//! number from the same MANIFEST counter and numbers are never reused.
//!
//! Compaction inputs bypass both caches: [`TableCache::read_span`] reads a
//! stretch of adjacent logical tables in one call, and
//! [`TableCache::open_in_span`] opens each of them over that in-memory
//! copy, so tables about to be deleted never displace foreground entries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bolt_common::cache::LruCache;
use bolt_common::{Error, Result};
use bolt_env::{Env, RandomAccessFile};

use crate::table::{Table, TableReadOptions};

/// Identity and location of one (logical) SSTable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Unique id of the logical table (MANIFEST-assigned, never reused).
    pub table_id: u64,
    /// Number of the physical file containing it.
    pub file_number: u64,
    /// Full path of the physical file.
    pub path: String,
    /// Byte offset of the table within the file.
    pub offset: u64,
    /// Byte size of the table.
    pub size: u64,
}

/// An in-memory copy of bytes `[base, base + data.len())` of one physical
/// file, read once by [`TableCache::read_span`]. Reads outside the copy
/// are errors, never silent refetches.
struct SpanFile {
    base: u64,
    data: Vec<u8>,
}

impl RandomAccessFile for SpanFile {
    fn read(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let start = offset
            .checked_sub(self.base)
            .filter(|&start| start <= self.data.len() as u64)
            .ok_or_else(|| {
                Error::io(format!(
                    "read at {offset} outside the span [{}, {})",
                    self.base,
                    self.len()
                ))
            })? as usize;
        let end = start.saturating_add(len).min(self.data.len());
        Ok(self.data[start..end].to_vec())
    }

    fn len(&self) -> u64 {
        self.base + self.data.len() as u64
    }
}

// LruCache stores Arc<V>; for the fd cache V = dyn RandomAccessFile, which
// is unsized — wrap it in a sized entry.
struct FdEntry(Arc<dyn RandomAccessFile>);

/// Cache of open [`Table`]s (metadata in memory) plus an optional
/// per-physical-file descriptor cache.
pub struct TableCache {
    env: Arc<dyn Env>,
    tables: LruCache<u64, Table>,
    fds: Option<LruCache<u64, FdEntry>>,
    opts: TableReadOptions,
    open_count: AtomicU64,
    file_opens: AtomicU64,
}

impl std::fmt::Debug for TableCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCache")
            .field("opens", &self.open_count.load(Ordering::Relaxed))
            .field("fd_cache", &self.fds.is_some())
            .finish()
    }
}

impl TableCache {
    /// Create a cache holding at most `max_open_tables` tables; when
    /// `fd_cache_capacity` is `Some(n)`, up to `n` physical-file handles are
    /// kept open across table opens (BoLT's `+FC`).
    pub fn new(
        env: Arc<dyn Env>,
        max_open_tables: u64,
        fd_cache_capacity: Option<u64>,
        opts: TableReadOptions,
    ) -> Self {
        TableCache {
            env,
            tables: LruCache::new(max_open_tables),
            fds: fd_cache_capacity.map(LruCache::new),
            opts,
            open_count: AtomicU64::new(0),
            file_opens: AtomicU64::new(0),
        }
    }

    /// A read handle on physical file `file_number` at `path`: the cached
    /// one when the fd cache holds it, else a fresh open (cached when the
    /// fd cache is on). Whoever deletes the file must call
    /// [`TableCache::evict_file`] so no cached handle outlives it.
    ///
    /// # Errors
    ///
    /// Returns [`bolt_common::Error::NotFound`] if the file does not exist,
    /// or another I/O error from the environment.
    pub fn open_file(&self, file_number: u64, path: &str) -> Result<Arc<dyn RandomAccessFile>> {
        if let Some(entry) = self.fds.as_ref().and_then(|fds| fds.get(&file_number)) {
            return Ok(Arc::clone(&entry.0));
        }
        self.file_opens.fetch_add(1, Ordering::Relaxed);
        let file = self.env.new_random_access_file(path)?;
        if let Some(fds) = &self.fds {
            fds.insert(file_number, Arc::new(FdEntry(Arc::clone(&file))), 1);
        }
        Ok(file)
    }

    /// Fetch (or open and cache) the table described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns open/corruption errors from [`Table::open`].
    pub fn table(&self, spec: &TableSpec) -> Result<Arc<Table>> {
        if let Some(table) = self.tables.get(&spec.table_id) {
            return Ok(table);
        }
        self.open_count.fetch_add(1, Ordering::Relaxed);
        let file = self.open_file(spec.file_number, &spec.path)?;
        let table = Arc::new(Table::open(
            file,
            spec.offset,
            spec.size,
            spec.file_number,
            self.opts.clone(),
        )?);
        self.tables.insert(spec.table_id, Arc::clone(&table), 1);
        Ok(table)
    }

    /// Read `len` bytes of physical file `file_number` at `offset` in one
    /// call (handle through [`TableCache::open_file`]) and return them as
    /// an in-memory file for [`TableCache::open_in_span`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors, and [`Error::Corruption`] when the file ends
    /// before the span does.
    pub fn read_span(
        &self,
        file_number: u64,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Arc<dyn RandomAccessFile>> {
        let file = self.open_file(file_number, path)?;
        // Bound the allocation by the file before trusting `len`.
        let end = offset.checked_add(len).filter(|&end| end <= file.len());
        let (Some(_), Ok(want)) = (end, usize::try_from(len)) else {
            return Err(Error::corruption(format!(
                "{path}: span [{offset}, +{len}) past the end of the file ({} B)",
                file.len()
            )));
        };
        let data = file.read(offset, want)?;
        if data.len() != want {
            return Err(Error::corruption(format!(
                "{path}: span [{offset}, {}) truncated at {}",
                offset + len,
                offset + data.len() as u64
            )));
        }
        Ok(Arc::new(SpanFile { base: offset, data }))
    }

    /// Open the table `spec` over `span`, a [`TableCache::read_span`] copy
    /// covering it, bypassing the table slot cache, the block cache and the
    /// filter: every footer and block checksum is still verified, but
    /// nothing is cached and no counter of this cache moves.
    ///
    /// # Errors
    ///
    /// Returns corruption errors from [`Table::open`].
    pub fn open_in_span(
        &self,
        span: Arc<dyn RandomAccessFile>,
        spec: &TableSpec,
    ) -> Result<Arc<Table>> {
        let opts = TableReadOptions {
            filter_policy: None,
            block_cache: None,
            ..self.opts.clone()
        };
        Ok(Arc::new(Table::open(
            span,
            spec.offset,
            spec.size,
            spec.file_number,
            opts,
        )?))
    }

    /// Drop a table from the cache (after compaction invalidates it).
    pub fn evict(&self, table_id: u64) {
        self.tables.erase(&table_id);
    }

    /// Drop a cached file handle (after the physical file is deleted).
    pub fn evict_file(&self, file_number: u64) {
        if let Some(fds) = &self.fds {
            fds.erase(&file_number);
        }
    }

    /// Number of `Table::open` calls (TableCache misses).
    pub fn open_count(&self) -> u64 {
        self.open_count.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the table slot cache.
    pub fn stats(&self) -> &bolt_common::cache::CacheStats {
        self.tables.stats()
    }

    /// Physical-file handle counters: `(hits, misses)`, where a hit reuses
    /// a cached handle and a miss is an open through the environment. With
    /// the fd cache off every [`TableCache::open_file`] call is a miss.
    pub fn fd_stats(&self) -> (u64, u64) {
        let hits = self.fds.as_ref().map_or(0, |fds| fds.stats().hits());
        (hits, self.file_opens.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FilterKey, TableBuilder, TableFormat};
    use crate::comparator::InternalKeyComparator;
    use crate::ikey::{lookup_key, make_internal_key, ValueType};
    use bolt_common::bloom::BloomFilterPolicy;
    use bolt_env::MemEnv;

    fn opts() -> TableReadOptions {
        TableReadOptions {
            comparator: Arc::new(InternalKeyComparator::default()),
            filter_policy: Some(BloomFilterPolicy::default()),
            filter_key: FilterKey::UserKey,
            block_cache: None,
        }
    }

    fn build(env: &Arc<dyn Env>, path: &str, tag: u32) -> (u64, u64) {
        let mut file = env.new_writable_file(path).unwrap();
        let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
        for i in 0..50u32 {
            let key = make_internal_key(format!("{tag}/k{i:04}").as_bytes(), 1, ValueType::Value);
            b.add(&key, b"v").unwrap();
        }
        let built = b.finish().unwrap();
        file.sync().unwrap();
        (built.offset, built.size)
    }

    fn spec(id: u64, file_number: u64, path: &str, offset: u64, size: u64) -> TableSpec {
        TableSpec {
            table_id: id,
            file_number,
            path: path.to_string(),
            offset,
            size,
        }
    }

    #[test]
    fn caches_open_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        let t1 = cache.table(&s).unwrap();
        let t2 = cache.table(&s).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(cache.open_count(), 1);
    }

    #[test]
    fn capacity_bounds_open_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut specs = Vec::new();
        for i in 0..64u64 {
            let path = format!("{i:06}.ldb");
            let (offset, size) = build(&env, &path, i as u32);
            specs.push(spec(i, i, &path, offset, size));
        }
        // Tiny cache: repeated round-robin access must keep re-opening.
        let cache = TableCache::new(Arc::clone(&env), 16, None, opts());
        for _ in 0..3 {
            for s in &specs {
                cache.table(s).unwrap();
            }
        }
        assert!(
            cache.open_count() > 64,
            "expected re-opens, got {}",
            cache.open_count()
        );
    }

    #[test]
    fn evict_forces_reopen() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let (offset, size) = build(&env, "000001.ldb", 1);
        let cache = TableCache::new(Arc::clone(&env), 100, None, opts());
        let s = spec(1, 1, "000001.ldb", offset, size);
        cache.table(&s).unwrap();
        cache.evict(1);
        cache.table(&s).unwrap();
        assert_eq!(cache.open_count(), 2);
    }

    #[test]
    fn fd_cache_shares_handles_across_logical_tables() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        // Two logical tables in one physical file.
        let mut file = env.new_writable_file("000007.cf").unwrap();
        let mut builts = Vec::new();
        for t in 0..2u32 {
            let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..20u32 {
                let key = make_internal_key(format!("{t}/k{i:04}").as_bytes(), 1, ValueType::Value);
                b.add(&key, b"v").unwrap();
            }
            builts.push(b.finish().unwrap());
        }
        file.sync().unwrap();
        drop(file);

        let cache = TableCache::new(Arc::clone(&env), 100, Some(10), opts());
        let s0 = spec(10, 7, "000007.cf", builts[0].offset, builts[0].size);
        let s1 = spec(11, 7, "000007.cf", builts[1].offset, builts[1].size);
        let t0 = cache.table(&s0).unwrap();
        let t1 = cache.table(&s1).unwrap();
        // Both tables work.
        assert!(t0
            .internal_get(&lookup_key(b"0/k0001", 100))
            .unwrap()
            .is_some());
        assert!(t1
            .internal_get(&lookup_key(b"1/k0001", 100))
            .unwrap()
            .is_some());
        cache.evict_file(7); // must not panic; handle drops when tables do
    }

    #[test]
    fn span_reads_open_tables_without_the_cache_and_reject_overruns() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut file = env.new_writable_file("000003.cf").unwrap();
        let mut builts = Vec::new();
        for t in 0..2u32 {
            let mut b = TableBuilder::new(file.as_mut(), TableFormat::default());
            for i in 0..20u32 {
                let key = make_internal_key(format!("{t}/k{i:04}").as_bytes(), 1, ValueType::Value);
                b.add(&key, b"v").unwrap();
            }
            builts.push(b.finish().unwrap());
        }
        file.sync().unwrap();
        drop(file);
        let len = builts[1].offset + builts[1].size;
        assert_eq!(builts[0].offset + builts[0].size, builts[1].offset);

        let cache = TableCache::new(Arc::clone(&env), 100, Some(10), opts());
        let span = cache.read_span(3, "000003.cf", 0, len).unwrap();
        for (t, built) in builts.iter().enumerate() {
            let table = cache
                .open_in_span(
                    Arc::clone(&span),
                    &spec(t as u64, 3, "000003.cf", built.offset, built.size),
                )
                .unwrap();
            let mut iter = table.iter();
            iter.seek_to_first().unwrap();
            let mut n = 0;
            while iter.valid() {
                n += 1;
                iter.next().unwrap();
            }
            assert_eq!(n, 20);
        }
        assert_eq!(cache.open_count(), 0);
        assert_eq!(cache.stats().hits() + cache.stats().misses(), 0);
        // The copy serves nothing outside itself.
        assert!(span.read(len + 1, 1).is_err());
        let tail = cache.read_span(3, "000003.cf", builts[1].offset, builts[1].size);
        assert!(tail.unwrap().read(0, 1).is_err());
        // A span past the end of the file is corruption, not a short copy.
        assert!(matches!(
            cache.read_span(3, "000003.cf", 0, len + 1),
            Err(e) if e.is_corruption()
        ));
        assert!(cache.read_span(3, "000003.cf", u64::MAX, 2).is_err());
    }

    #[test]
    fn open_file_reuses_handles_until_evicted() {
        let env: Arc<dyn Env> = Arc::new(MemEnv::new());
        let mut file = env.new_writable_file("000009.vlog").unwrap();
        file.append(b"value").unwrap();
        drop(file);

        let cached = TableCache::new(Arc::clone(&env), 100, Some(10), opts());
        let a = cached.open_file(9, "000009.vlog").unwrap();
        let b = cached.open_file(9, "000009.vlog").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cached.fd_stats(), (1, 1));
        cached.evict_file(9);
        env.delete_file("000009.vlog").unwrap();
        assert!(matches!(
            cached.open_file(9, "000009.vlog"),
            Err(e) if e.is_not_found()
        ));
        assert_eq!(cached.fd_stats(), (1, 2));

        let uncached = TableCache::new(Arc::clone(&env), 100, None, opts());
        assert!(uncached.open_file(9, "000009.vlog").is_err());
        assert!(uncached.open_file(9, "000009.vlog").is_err());
        assert_eq!(uncached.fd_stats(), (0, 2));
    }
}
