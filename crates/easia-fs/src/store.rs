//! The file store: a host's file system.

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Contents of a stored file.
///
/// `Synthetic` represents a large simulation output by size and seed
/// only; byte ranges are generated deterministically on demand, so a
/// "hundreds of gigabytes" archive fits in test memory while still
/// exercising real read paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileContent {
    /// Real bytes.
    Bytes(Vec<u8>),
    /// Size-only file with deterministically generated contents.
    Synthetic {
        /// Logical size in bytes.
        size: u64,
        /// Seed for the content generator.
        seed: u64,
    },
}

impl FileContent {
    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match self {
            FileContent::Bytes(b) => b.len() as u64,
            FileContent::Synthetic { size, .. } => *size,
        }
    }

    /// True for zero-length files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole file, lent where it lies: stored bytes are borrowed,
    /// and only synthetic contents are generated.
    pub fn bytes(&self) -> Cow<'_, [u8]> {
        match self {
            FileContent::Bytes(b) => Cow::Borrowed(b),
            FileContent::Synthetic { .. } => Cow::Owned(self.read_range(0, self.len())),
        }
    }

    /// Materialise the byte range `[offset, offset+len)` (clamped to the
    /// file size).
    pub fn read_range(&self, offset: u64, len: u64) -> Vec<u8> {
        let end = (offset + len).min(self.len());
        if offset >= end {
            return Vec::new();
        }
        match self {
            FileContent::Bytes(b) => b[offset as usize..end as usize].to_vec(),
            FileContent::Synthetic { seed, .. } => {
                // SplitMix64 keyed by seed and byte index / 8.
                let mut out = Vec::with_capacity((end - offset) as usize);
                let mut i = offset;
                while i < end {
                    let block = i / 8;
                    let word =
                        splitmix64(seed.wrapping_add(block.wrapping_mul(0x9E3779B97F4A7C15)));
                    let bytes = word.to_le_bytes();
                    let start_in_block = (i % 8) as usize;
                    let take = ((8 - start_in_block) as u64).min(end - i) as usize;
                    out.extend_from_slice(&bytes[start_in_block..start_in_block + take]);
                    i += take as u64;
                }
                out
            }
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A flat path → file map (paths are `/`-separated, absolute-ish strings
/// like `/data/S1/t000.edf`).
#[derive(Debug, Default)]
pub struct FileStore {
    files: BTreeMap<String, FileContent>,
}

impl FileStore {
    /// Empty store.
    pub fn new() -> Self {
        FileStore::default()
    }

    /// Create or replace a file.
    pub fn put(&mut self, path: &str, content: FileContent) {
        self.files.insert(normalize(path), content);
    }

    /// Fetch a file's content.
    pub fn get(&self, path: &str) -> Option<&FileContent> {
        self.files.get(&normalize(path))
    }

    /// True if the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(&normalize(path))
    }

    /// Remove a file; returns its content if it existed.
    pub fn remove(&mut self, path: &str) -> Option<FileContent> {
        self.files.remove(&normalize(path))
    }

    /// Rename a file. Returns false if the source is missing or the
    /// destination exists.
    pub fn rename(&mut self, from: &str, to: &str) -> bool {
        let (from, to) = (normalize(from), normalize(to));
        if !self.files.contains_key(&from) || self.files.contains_key(&to) {
            return false;
        }
        let content = self.files.remove(&from).expect("checked above");
        self.files.insert(to, content);
        true
    }

    /// Paths under a directory prefix, sorted.
    pub fn list(&self, dir_prefix: &str) -> Vec<String> {
        let p = normalize(dir_prefix);
        let prefix = if p.ends_with('/') { p } else { format!("{p}/") };
        self.files
            .keys()
            .filter(|k| k.starts_with(&prefix))
            .cloned()
            .collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the store holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total logical bytes stored.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(FileContent::len).sum()
    }
}

fn normalize(path: &str) -> String {
    let mut p = path.trim().replace('\\', "/");
    if !p.starts_with('/') {
        p.insert(0, '/');
    }
    while p.contains("//") {
        p = p.replace("//", "/");
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut s = FileStore::new();
        s.put("/data/a.edf", FileContent::Bytes(b"hello".to_vec()));
        assert!(s.exists("/data/a.edf"));
        assert!(s.exists("data/a.edf"), "paths are normalised");
        assert_eq!(s.get("/data/a.edf").unwrap().len(), 5);
        assert!(s.remove("/data/a.edf").is_some());
        assert!(!s.exists("/data/a.edf"));
    }

    #[test]
    fn rename_semantics() {
        let mut s = FileStore::new();
        s.put("/a", FileContent::Bytes(vec![1]));
        s.put("/b", FileContent::Bytes(vec![2]));
        assert!(!s.rename("/a", "/b"), "destination exists");
        assert!(!s.rename("/missing", "/c"));
        assert!(s.rename("/a", "/c"));
        assert!(s.exists("/c") && !s.exists("/a"));
    }

    #[test]
    fn list_by_prefix() {
        let mut s = FileStore::new();
        s.put("/data/S1/t0.edf", FileContent::Bytes(vec![]));
        s.put("/data/S1/t1.edf", FileContent::Bytes(vec![]));
        s.put("/data/S2/t0.edf", FileContent::Bytes(vec![]));
        assert_eq!(s.list("/data/S1").len(), 2);
        assert_eq!(s.list("/data").len(), 3);
        assert_eq!(s.list("/nope").len(), 0);
    }

    #[test]
    fn synthetic_reads_are_deterministic() {
        let f = FileContent::Synthetic {
            size: 1000,
            seed: 42,
        };
        let a = f.read_range(100, 50);
        let b = f.read_range(100, 50);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        // Non-aligned reads agree with aligned reads.
        let whole = f.read_range(0, 1000);
        assert_eq!(&whole[100..150], &a[..]);
        // Different seeds differ.
        let g = FileContent::Synthetic {
            size: 1000,
            seed: 43,
        };
        assert_ne!(g.read_range(100, 50), a);
    }

    #[test]
    fn range_clamping() {
        let f = FileContent::Bytes(b"abcdef".to_vec());
        assert_eq!(f.read_range(4, 10), b"ef".to_vec());
        assert_eq!(f.read_range(10, 5), Vec::<u8>::new());
        let s = FileContent::Synthetic { size: 8, seed: 1 };
        assert_eq!(s.read_range(6, 100).len(), 2);
    }

    #[test]
    fn whole_file_is_lent_not_copied() {
        let f = FileContent::Bytes(b"abcdef".to_vec());
        let FileContent::Bytes(stored) = &f else {
            unreachable!()
        };
        assert!(matches!(f.bytes(), Cow::Borrowed(b) if std::ptr::eq(b, stored.as_slice())));
        let s = FileContent::Synthetic { size: 13, seed: 5 };
        assert_eq!(s.bytes(), Cow::<[u8]>::Owned(s.read_range(0, 13)));
    }

    #[test]
    fn totals() {
        let mut s = FileStore::new();
        s.put("/a", FileContent::Bytes(vec![0; 10]));
        s.put(
            "/b",
            FileContent::Synthetic {
                size: 544_000_000,
                seed: 7,
            },
        );
        assert_eq!(s.total_bytes(), 544_000_010);
        assert_eq!(s.len(), 2);
    }
}
