//! [`LocalFs`]: the real local file system via `std::fs`.

use crate::{IoSlice, Vfs, VfsFile};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A [`Vfs`] rooted at a directory on the local file system.
///
/// The advertised [`Vfs::block_size`] is configurable because the paper's
/// alignment experiments (Table 1) deliberately configure SIONlib with block
/// sizes that differ from the physical one; `LocalFs::new` defaults to
/// 4 KiB, the common Linux page/block size.
pub struct LocalFs {
    root: PathBuf,
    block_size: u64,
}

impl LocalFs {
    /// A local FS rooted at `root`, advertising a 4 KiB block size.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self::with_block_size(root, 4096)
    }

    /// A local FS advertising a caller-chosen block size (must be > 0).
    pub fn with_block_size(root: impl Into<PathBuf>, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            root: root.into(),
            block_size,
        }
    }

    fn full(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    fn ensure_parent(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(())
    }
}

struct LocalFile {
    file: File,
}

#[cfg(unix)]
impl VfsFile for LocalFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        self.file.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        self.file.write_at(buf, offset)
    }

    /// One submission per iovec. `FileExt::write_vectored_at` (the real
    /// `pwritev`) is unstable on this toolchain and the workspace forbids
    /// `unsafe`, so multi-slice iovecs coalesce into one temporary buffer
    /// and go down as a single `pwrite` — one syscall either way, which is
    /// what the batched submission buys on a kernel FS. Single-slice calls
    /// skip the copy entirely.
    fn write_vectored_at(&self, bufs: &[IoSlice<'_>], offset: u64) -> io::Result<()> {
        match bufs {
            [] => Ok(()),
            [one] => self.write_all_at(one, offset),
            many => {
                let total: usize = many.iter().map(|b| b.len()).sum();
                let mut flat = Vec::with_capacity(total);
                for b in many {
                    flat.extend_from_slice(b);
                }
                self.write_all_at(&flat, offset)
            }
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn sync(&self) -> io::Result<()> {
        self.file.sync_data()
    }
}

impl Vfs for LocalFs {
    fn create(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let full = self.full(path);
        self.ensure_parent(&full)?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(full)?;
        Ok(Arc::new(LocalFile { file }))
    }

    fn open(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new().read(true).open(self.full(path))?;
        Ok(Arc::new(LocalFile { file }))
    }

    fn open_rw(&self, path: &str) -> io::Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.full(path))?;
        Ok(Arc::new(LocalFile { file }))
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(self.full(path))
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).exists()
    }

    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn list(&self, prefix: &str) -> io::Result<Vec<String>> {
        // Walk the directory containing the prefix and filter. The prefix is
        // a path-string prefix, not necessarily a directory.
        let mut out = Vec::new();
        let dir = match prefix.rfind('/') {
            Some(i) => self.root.join(&prefix[..i]),
            None => self.root.clone(),
        };
        if !dir.exists() {
            return Ok(out);
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if let Ok(rel) = path.strip_prefix(&self.root) {
                    let rel = rel.to_string_lossy().into_owned();
                    if rel.starts_with(prefix) {
                        out.push(rel);
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfs-local-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn create_write_read_roundtrip() {
        let dir = tmpdir("rw");
        let fs = LocalFs::new(&dir);
        let f = fs.create("sub/file.bin").unwrap();
        f.write_all_at(b"hello world", 5).unwrap();
        assert_eq!(f.len().unwrap(), 16);
        let mut buf = [0u8; 11];
        f.read_exact_at(&mut buf, 5).unwrap();
        assert_eq!(&buf, b"hello world");
        // Hole before offset 5 reads as zeros.
        let mut head = [9u8; 5];
        f.read_exact_at(&mut head, 0).unwrap();
        assert_eq!(head, [0u8; 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_handles_to_same_file() {
        let dir = tmpdir("conc");
        let fs = LocalFs::new(&dir);
        fs.create("shared.bin").unwrap();
        let a = fs.open_rw("shared.bin").unwrap();
        let b = fs.open_rw("shared.bin").unwrap();
        a.write_all_at(b"AAAA", 0).unwrap();
        b.write_all_at(b"BBBB", 4).unwrap();
        let mut buf = [0u8; 8];
        a.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"AAAABBBB");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_filters_by_prefix() {
        let dir = tmpdir("list");
        let fs = LocalFs::new(&dir);
        fs.create("run/ckpt.000001").unwrap();
        fs.create("run/ckpt.000002").unwrap();
        fs.create("run/other").unwrap();
        let got = fs.list("run/ckpt.").unwrap();
        assert_eq!(
            got,
            vec!["run/ckpt.000001".to_string(), "run/ckpt.000002".to_string()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_fails_and_exists_reports() {
        let dir = tmpdir("missing");
        let fs = LocalFs::new(&dir);
        assert!(fs.open("nope").is_err());
        assert!(!fs.exists("nope"));
        fs.create("yes").unwrap();
        assert!(fs.exists("yes"));
        fs.remove("yes").unwrap();
        assert!(!fs.exists("yes"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vectored_write_lands_contiguously() {
        let dir = tmpdir("vec");
        let fs = LocalFs::new(&dir);
        let f = fs.create("v").unwrap();
        let (a, b, c) = ([1u8; 7], [2u8; 4096], [3u8; 13]);
        f.write_vectored_at(&[IoSlice::new(&a), IoSlice::new(&b), IoSlice::new(&c)], 3)
            .unwrap();
        let mut flat = a.to_vec();
        flat.extend_from_slice(&b);
        flat.extend_from_slice(&c);
        let mut back = vec![0u8; flat.len()];
        f.read_exact_at(&mut back, 3).unwrap();
        assert_eq!(back, flat);
        assert_eq!(f.len().unwrap(), 3 + flat.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn set_len_truncates_and_extends() {
        let dir = tmpdir("setlen");
        let fs = LocalFs::new(&dir);
        let f = fs.create("f").unwrap();
        f.write_all_at(b"0123456789", 0).unwrap();
        f.set_len(4).unwrap();
        assert_eq!(f.len().unwrap(), 4);
        f.set_len(100).unwrap();
        assert_eq!(f.len().unwrap(), 100);
        let mut buf = [7u8; 6];
        f.read_exact_at(&mut buf, 4).unwrap();
        assert_eq!(buf, [0u8; 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
