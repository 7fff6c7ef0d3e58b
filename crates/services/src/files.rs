//! AmpFiles — a replicated file store in the network cache (slide 12).
//!
//! "Applications can use the network to rebuild" (slide 2): because
//! the file store lives in a cache region, every node holds the whole
//! store; a node failure loses nothing, and a failover successor reads
//! its predecessor's files locally.
//!
//! Layout inside the region: a fixed directory of entries (name,
//! active buffer offset/capacity, standby buffer offset/capacity,
//! length, version, in-use flag) followed by a bump-allocated data
//! heap. Overwrites ping-pong between the two buffers: the new
//! contents land in the standby buffer and the directory entry —
//! the single commit point — swaps the roles, so a steady stream of
//! same-sized overwrites never consumes fresh heap. Fresh heap is
//! bump-allocated only when a file is created or outgrows both of
//! its buffers. Single-writer discipline per store (multi-writer
//! stores serialize with a network semaphore, as slide 10
//! prescribes).

use ampnet_cache::{CacheError, NetworkCache, RegionId};
use ampnet_packet::MicroPacket;

/// Maximum file-name bytes.
pub const NAME_LEN: usize = 16;
/// Directory entry size: name + offset + len + version + flags +
/// active capacity + standby offset + standby capacity.
const ENTRY: u32 = NAME_LEN as u32 + 4 + 4 + 4 + 4 + 4 + 4 + 4;

/// Store geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStoreLayout {
    /// Region holding the store.
    pub region: RegionId,
    /// Maximum number of files.
    pub max_files: u32,
    /// Bytes of data heap.
    pub heap_bytes: u32,
}

impl FileStoreLayout {
    /// Region bytes needed: 8 (heap cursor) + directory + heap.
    pub fn footprint(&self) -> u32 {
        8 + self.max_files * ENTRY + self.heap_bytes
    }

    fn entry_offset(&self, slot: u32) -> u32 {
        8 + slot * ENTRY
    }

    fn heap_base(&self) -> u32 {
        8 + self.max_files * ENTRY
    }
}

/// Decoded directory entry (in-use slots only).
#[derive(Debug, Clone)]
struct RawEntry {
    /// The stored name bytes, NUL-padded.
    name: [u8; NAME_LEN],
    /// Active buffer offset (absolute region offset).
    offset: u32,
    /// Committed file length.
    len: u32,
    version: u32,
    /// Active buffer capacity.
    cap: u32,
    /// Standby buffer offset (0 when none allocated yet).
    alt_offset: u32,
    /// Standby buffer capacity (0 when none allocated yet).
    alt_cap: u32,
}

impl RawEntry {
    /// The stored name, up to its first NUL.
    fn name_bytes(&self) -> &[u8] {
        let end = self.name.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
        &self.name[..end]
    }

    fn info(&self) -> FileInfo {
        FileInfo {
            name: String::from_utf8_lossy(self.name_bytes()).into_owned(),
            len: self.len,
            version: self.version,
        }
    }
}

/// File metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// File name (UTF-8, ≤ 16 bytes).
    pub name: String,
    /// Size in bytes.
    pub len: u32,
    /// Write version (increments on overwrite).
    pub version: u32,
}

/// Errors from the file store.
#[derive(Debug, Clone, PartialEq)]
pub enum FileError {
    /// Underlying cache failure.
    Cache(CacheError),
    /// Name empty, longer than [`NAME_LEN`] bytes, or holding a NUL
    /// byte (the directory reads a name only up to its first NUL).
    BadName,
    /// Directory full.
    DirectoryFull,
    /// Heap exhausted.
    HeapFull,
    /// No such file.
    NotFound,
}

impl From<CacheError> for FileError {
    fn from(e: CacheError) -> Self {
        FileError::Cache(e)
    }
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileError::Cache(e) => write!(f, "cache: {e}"),
            FileError::BadName => write!(f, "file name empty, over {NAME_LEN} bytes or holding a NUL"),
            FileError::DirectoryFull => write!(f, "directory full"),
            FileError::HeapFull => write!(f, "data heap exhausted"),
            FileError::NotFound => write!(f, "no such file"),
        }
    }
}

impl std::error::Error for FileError {}

/// Writer handle over a node's cache replica.
#[derive(Debug)]
pub struct FileStore {
    layout: FileStoreLayout,
}

impl FileStore {
    /// Bind to a store layout (the region must already be defined with
    /// at least `layout.footprint()` bytes).
    pub fn new(layout: FileStoreLayout) -> Self {
        FileStore { layout }
    }

    fn encode_name(name: &str) -> Result<[u8; NAME_LEN], FileError> {
        let bytes = name.as_bytes();
        if bytes.is_empty() || bytes.len() > NAME_LEN || bytes.contains(&0) {
            return Err(FileError::BadName);
        }
        let mut out = [0u8; NAME_LEN];
        out[..bytes.len()].copy_from_slice(bytes);
        Ok(out)
    }

    fn read_entry(&self, cache: &NetworkCache, slot: u32) -> Result<Option<RawEntry>, FileError> {
        let off = self.layout.entry_offset(slot);
        let raw = cache.read(self.layout.region, off, ENTRY)?;
        let flags = u32::from_be_bytes(raw[28..32].try_into().expect("4 bytes"));
        if flags == 0 {
            return Ok(None);
        }
        let word = |at: usize| u32::from_be_bytes(raw[at..at + 4].try_into().expect("4 bytes"));
        Ok(Some(RawEntry {
            name: raw[..NAME_LEN].try_into().expect("16 bytes"),
            offset: word(16),
            len: word(20),
            version: word(24),
            cap: word(32),
            alt_offset: word(36),
            alt_cap: word(40),
        }))
    }

    /// The slot holding `name`, compared byte for byte with the stored
    /// name in place.
    fn find(&self, cache: &NetworkCache, name: &str) -> Result<Option<u32>, FileError> {
        for slot in 0..self.layout.max_files {
            if let Some(e) = self.read_entry(cache, slot)? {
                if e.name_bytes() == name.as_bytes() {
                    return Ok(Some(slot));
                }
            }
        }
        Ok(None)
    }

    fn heap_cursor(&self, cache: &NetworkCache) -> Result<u32, FileError> {
        Ok(cache.read_u64(self.layout.region, 0)? as u32)
    }

    /// Create or overwrite a file; returns the replication packets.
    ///
    /// Overwrites reuse the file's standby buffer when it is large
    /// enough (ping-pong), so sustained overwrites of a bounded-size
    /// file consume no fresh heap; the directory entry written last is
    /// the single commit point either way.
    pub fn write(
        &self,
        cache: &mut NetworkCache,
        name: &str,
        data: &[u8],
    ) -> Result<Vec<MicroPacket>, FileError> {
        let name_bytes = Self::encode_name(name)?;
        let slot = match self.find(cache, name)? {
            Some(s) => s,
            None => {
                // First free slot.
                let mut free = None;
                for s in 0..self.layout.max_files {
                    if self.read_entry(cache, s)?.is_none() {
                        free = Some(s);
                        break;
                    }
                }
                free.ok_or(FileError::DirectoryFull)?
            }
        };
        let prev = self.read_entry(cache, slot)?;
        let len = data.len() as u32;
        // Place the new contents: reuse the standby buffer when it
        // fits, otherwise bump-allocate fresh heap (file creation or
        // growth beyond both buffers).
        let (data_off, cap, alt_offset, alt_cap, new_cursor) = match &prev {
            Some(e) if e.alt_cap >= len => {
                (e.alt_offset, e.alt_cap, e.offset, e.cap, None)
            }
            _ => {
                let cursor = self.heap_cursor(cache)?;
                if cursor + len > self.layout.heap_bytes {
                    return Err(FileError::HeapFull);
                }
                let (alt_offset, alt_cap) =
                    prev.as_ref().map(|e| (e.offset, e.cap)).unwrap_or((0, 0));
                (
                    self.layout.heap_base() + cursor,
                    len,
                    alt_offset,
                    alt_cap,
                    Some(cursor + len),
                )
            }
        };
        let prev_version = prev.map(|e| e.version).unwrap_or(0);

        let mut pkts = vec![];
        // 1. Data into the (standby or fresh) buffer — readers still
        //    see the committed buffer through the old entry.
        if !data.is_empty() {
            pkts.extend(cache.write(self.layout.region, data_off, data, 12, 3)?);
        }
        // 2. Bump the heap cursor if fresh heap was claimed.
        if let Some(cursor) = new_cursor {
            pkts.extend(cache.write(
                self.layout.region,
                0,
                &(cursor as u64).to_be_bytes(),
                12,
                3,
            )?);
        }
        // 3. Publish the directory entry last (commit point): the
        //    buffers swap roles atomically with the new length/version.
        let mut entry = [0u8; ENTRY as usize];
        entry[..NAME_LEN].copy_from_slice(&name_bytes);
        entry[16..20].copy_from_slice(&data_off.to_be_bytes());
        entry[20..24].copy_from_slice(&len.to_be_bytes());
        entry[24..28].copy_from_slice(&(prev_version + 1).to_be_bytes());
        entry[28..32].copy_from_slice(&1u32.to_be_bytes());
        entry[32..36].copy_from_slice(&cap.to_be_bytes());
        entry[36..40].copy_from_slice(&alt_offset.to_be_bytes());
        entry[40..44].copy_from_slice(&alt_cap.to_be_bytes());
        pkts.extend(cache.write(
            self.layout.region,
            self.layout.entry_offset(slot),
            &entry,
            12,
            3,
        )?);
        Ok(pkts)
    }

    /// Read a file from the local replica.
    pub fn read(&self, cache: &NetworkCache, name: &str) -> Result<Vec<u8>, FileError> {
        let slot = self.find(cache, name)?.ok_or(FileError::NotFound)?;
        let e = self.read_entry(cache, slot)?.ok_or(FileError::NotFound)?;
        Ok(cache.read(self.layout.region, e.offset, e.len)?.into_owned())
    }

    /// File metadata.
    pub fn stat(&self, cache: &NetworkCache, name: &str) -> Result<FileInfo, FileError> {
        let slot = self.find(cache, name)?.ok_or(FileError::NotFound)?;
        let e = self.read_entry(cache, slot)?.ok_or(FileError::NotFound)?;
        Ok(e.info())
    }

    /// Delete a file; returns the replication packets.
    pub fn delete(
        &self,
        cache: &mut NetworkCache,
        name: &str,
    ) -> Result<Vec<MicroPacket>, FileError> {
        let slot = self.find(cache, name)?.ok_or(FileError::NotFound)?;
        let zero = [0u8; ENTRY as usize];
        Ok(cache.write(
            self.layout.region,
            self.layout.entry_offset(slot),
            &zero,
            12,
            3,
        )?)
    }

    /// List all files.
    pub fn list(&self, cache: &NetworkCache) -> Result<Vec<FileInfo>, FileError> {
        let mut out = vec![];
        for slot in 0..self.layout.max_files {
            if let Some(e) = self.read_entry(cache, slot)? {
                out.push(e.info());
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NetworkCache, NetworkCache, FileStore) {
        let layout = FileStoreLayout {
            region: 4,
            max_files: 8,
            heap_bytes: 4096,
        };
        let mut a = NetworkCache::new(0);
        a.define_region(4, layout.footprint()).unwrap();
        let mut b = NetworkCache::new(7);
        b.define_region(4, layout.footprint()).unwrap();
        (a, b, FileStore::new(layout))
    }

    #[test]
    fn write_read_roundtrip() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "config.db", b"key=value").unwrap();
        assert_eq!(fs.read(&a, "config.db").unwrap(), b"key=value");
        let info = fs.stat(&a, "config.db").unwrap();
        assert_eq!(info.len, 9);
        assert_eq!(info.version, 1);
    }

    #[test]
    fn replica_survives_writer_death() {
        let (mut a, mut b, fs) = setup();
        let pkts = fs.write(&mut a, "journal", b"critical state").unwrap();
        for p in &pkts {
            b.apply_packet(p).unwrap();
        }
        // Writer node dies; replica still serves the file.
        drop(a);
        assert_eq!(fs.read(&b, "journal").unwrap(), b"critical state");
    }

    #[test]
    fn overwrite_bumps_version() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "f", b"v1").unwrap();
        fs.write(&mut a, "f", b"version-two").unwrap();
        assert_eq!(fs.read(&a, "f").unwrap(), b"version-two");
        assert_eq!(fs.stat(&a, "f").unwrap().version, 2);
        assert_eq!(fs.list(&a).unwrap().len(), 1);
    }

    #[test]
    fn delete_and_slot_reuse() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "x", b"1").unwrap();
        fs.delete(&mut a, "x").unwrap();
        assert_eq!(fs.read(&a, "x"), Err(FileError::NotFound));
        assert!(fs.list(&a).unwrap().is_empty());
        fs.write(&mut a, "y", b"2").unwrap();
        assert_eq!(fs.list(&a).unwrap().len(), 1);
    }

    #[test]
    fn directory_full() {
        let (mut a, _, fs) = setup();
        for i in 0..8 {
            fs.write(&mut a, &format!("file{i}"), b"x").unwrap();
        }
        assert_eq!(
            fs.write(&mut a, "one-too-many", b"x"),
            Err(FileError::DirectoryFull)
        );
    }

    #[test]
    fn sustained_overwrite_does_not_exhaust_heap() {
        // Regression: the old bump-only allocator leaked one buffer per
        // overwrite, so ~4 overwrites of a 1000-byte file exhausted a
        // 4096-byte heap. Ping-pong buffering bounds a bounded-size
        // file at two buffers no matter how many times it's rewritten.
        let (mut a, _, fs) = setup();
        for i in 0..100u32 {
            fs.write(&mut a, "hot", &vec![i as u8; 1000]).unwrap();
        }
        assert_eq!(fs.read(&a, "hot").unwrap(), vec![99u8; 1000]);
        assert_eq!(fs.stat(&a, "hot").unwrap().version, 100);
        // Exactly two 1000-byte buffers were ever allocated.
        assert_eq!(a.read_u64(4, 0).unwrap(), 2000);
    }

    #[test]
    fn overwrite_growth_allocates_then_pingpongs() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "f", &[1u8; 100]).unwrap();
        // Growth beyond both buffers claims fresh heap…
        fs.write(&mut a, "f", &[2u8; 300]).unwrap();
        assert_eq!(fs.read(&a, "f").unwrap(), vec![2u8; 300]);
        // …a shrink fits the 100-byte standby again…
        fs.write(&mut a, "f", &[3u8; 100]).unwrap();
        let cursor_after = a.read_u64(4, 0).unwrap();
        fs.write(&mut a, "f", &[4u8; 300]).unwrap();
        fs.write(&mut a, "f", &[5u8; 100]).unwrap();
        // Steady alternation between the two established buffers
        // consumes no further heap.
        assert_eq!(a.read_u64(4, 0).unwrap(), cursor_after);
        assert_eq!(fs.read(&a, "f").unwrap(), vec![5u8; 100]);
    }

    #[test]
    fn heap_exhaustion() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "big", &vec![0u8; 4000]).unwrap();
        assert_eq!(
            fs.write(&mut a, "more", &[0u8; 200]),
            Err(FileError::HeapFull)
        );
    }

    #[test]
    fn bad_names_rejected() {
        let (mut a, _, fs) = setup();
        assert_eq!(fs.write(&mut a, "", b"x"), Err(FileError::BadName));
        assert_eq!(
            fs.write(&mut a, "a-name-that-is-way-too-long", b"x"),
            Err(FileError::BadName)
        );
    }

    /// A NUL would end the stored name early: `"a\0b"` would be listed
    /// as `"a"` and never found again, a second write making a second
    /// entry.
    #[test]
    fn names_holding_a_nul_are_rejected() {
        let (mut a, _, fs) = setup();
        for name in ["a\0b", "\0", "ab\0"] {
            assert_eq!(fs.write(&mut a, name, b"x"), Err(FileError::BadName), "{name:?}");
        }
        assert!(fs.list(&a).unwrap().is_empty(), "nothing was stored");
    }

    #[test]
    fn list_multiple() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "a", b"1").unwrap();
        fs.write(&mut a, "b", b"22").unwrap();
        fs.write(&mut a, "c", b"333").unwrap();
        let names: Vec<String> = fs.list(&a).unwrap().into_iter().map(|f| f.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_file_ok() {
        let (mut a, _, fs) = setup();
        fs.write(&mut a, "empty", b"").unwrap();
        assert_eq!(fs.read(&a, "empty").unwrap(), Vec::<u8>::new());
    }
}
