//! [`NullFile`]: a data-discarding file handle.
//!
//! Accepts every write, tracks only the resulting file length, and serves
//! reads as holes (zero bytes). `sion`'s aggregated write mode runs each
//! member task's stream engine against a `NullFile` *shadow* so the member
//! performs the exact chunk arithmetic and validation of an independent
//! writer — producing the same `used` vector and the same errors — while
//! the real bytes travel to its aggregator over the communicator instead
//! of down a VFS handle.

use crate::{write_end, VfsFile};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// A write sink that discards data and remembers only the file length.
#[derive(Default)]
pub struct NullFile {
    len: AtomicU64,
}

impl NullFile {
    pub fn new() -> NullFile {
        NullFile::default()
    }
}

impl VfsFile for NullFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        let len = self.len.load(Ordering::Relaxed);
        if offset >= len {
            return Ok(0);
        }
        let n = ((len - offset) as usize).min(buf.len());
        buf[..n].fill(0);
        Ok(n)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        let end = write_end(offset, buf.len() as u64)?;
        self.len.fetch_max(end, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.len.store(len, Ordering::Relaxed);
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.len.load(Ordering::Relaxed))
    }

    fn sync(&self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discards_data_but_tracks_length() {
        let f = NullFile::new();
        f.write_all_at(b"hello", 10).unwrap();
        assert_eq!(f.len().unwrap(), 15);
        let mut buf = [1u8; 8];
        let n = f.read_at(&mut buf, 12).unwrap();
        assert_eq!(n, 3);
        assert_eq!(&buf[..3], &[0, 0, 0], "reads see holes");
        f.set_len(4).unwrap();
        assert_eq!(f.len().unwrap(), 4);
        assert_eq!(f.read_at(&mut buf, 4).unwrap(), 0);
        f.sync().unwrap();
    }

    #[test]
    fn vectored_writes_extend_length() {
        let f = NullFile::new();
        let a = [7u8; 3];
        let b = [8u8; 5];
        f.write_vectored_at(&[io::IoSlice::new(&a), io::IoSlice::new(&b)], 100)
            .unwrap();
        assert_eq!(f.len().unwrap(), 108);
    }
}
