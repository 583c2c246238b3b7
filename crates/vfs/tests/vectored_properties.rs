//! Property tests: a backend's batched `write_vectored_at` override must
//! be byte-identical to the trait-default per-slice loop it replaces.
//!
//! For random iovec scripts (slice counts, slice lengths including empty,
//! overlapping offsets), the same script is applied three ways — the
//! backend's native vectored submission, a wrapper that suppresses the
//! override so the trait default runs over the same backend, and a plain
//! in-memory byte model — and the resulting file images are compared.
//! On `MemFs` the script also runs through a [`TapFs`], with an empty tap
//! list and with `[unarmed faults, block guard, recording sink]`: the
//! interposer must be transparent under either vectored-write rule.
//! Runs against both overriding backends: [`MemFs`] (the iovec as one byte
//! run, block by block) and [`LocalFs`] (coalesced single submission).

use proptest::prelude::*;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vfs::{
    AccessKind, AccessSink, BlockGuard, FaultKind, Faults, FileAccess, IoSlice, LocalFs, MemFs,
    TapFs, Vfs, VfsFile,
};

/// Records the extent of every labeled write it is told about.
#[derive(Default)]
struct WriteExtents(Mutex<Vec<(u64, u64)>>);

impl AccessSink for WriteExtents {
    fn on_access(&self, access: &FileAccess) {
        if access.kind == AccessKind::Write {
            self.0.lock().unwrap().push((access.offset, access.len));
        }
    }
}

/// Forwards scalar I/O to the wrapped handle but deliberately does NOT
/// forward `write_vectored_at`, so the trait's default per-slice loop runs
/// against the same backend — the reference the overrides must match.
struct ScalarOnly(Arc<dyn VfsFile>);

impl VfsFile for ScalarOnly {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<usize> {
        self.0.read_at(buf, offset)
    }
    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<usize> {
        self.0.write_at(buf, offset)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn len(&self) -> io::Result<u64> {
        self.0.len()
    }
    fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// Deterministic bytes for the `i`-th slice of the `k`-th op.
fn slice_bytes(k: usize, i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| ((k * 131 + i * 41 + j * 7 + 3) % 251) as u8)
        .collect()
}

/// One iovec script op: a relative offset step back (overlap) and the
/// lengths of its slices.
type Op = (u64, Vec<usize>);

/// Apply the script to `file` via `write_vectored_at` (native or the
/// suppressed-default wrapper, depending on the handle passed in).
fn apply(file: &dyn VfsFile, ops: &[Op]) {
    let mut offset = 0u64;
    for (k, (back, lens)) in ops.iter().enumerate() {
        offset = offset.saturating_sub(*back);
        let owned: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| slice_bytes(k, i, len))
            .collect();
        let slices: Vec<IoSlice<'_>> = owned.iter().map(|b| IoSlice::new(b)).collect();
        file.write_vectored_at(&slices, offset).unwrap();
        offset += lens.iter().sum::<usize>() as u64;
    }
}

/// The `(offset, len)` of every non-empty slice the script writes, in order.
fn slice_extents(ops: &[Op]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut offset = 0u64;
    for (back, lens) in ops {
        offset = offset.saturating_sub(*back);
        for &len in lens {
            if len > 0 {
                out.push((offset, len as u64));
            }
            offset += len as u64;
        }
    }
    out
}

/// Apply the script to a plain byte vector — the ground-truth file image.
fn apply_model(ops: &[Op]) -> Vec<u8> {
    let mut img = Vec::new();
    let mut offset = 0usize;
    for (k, (back, lens)) in ops.iter().enumerate() {
        offset = offset.saturating_sub(*back as usize);
        for (i, &len) in lens.iter().enumerate() {
            if img.len() < offset + len {
                img.resize(offset + len, 0);
            }
            img[offset..offset + len].copy_from_slice(&slice_bytes(k, i, len));
            offset += len;
        }
    }
    img
}

fn image(file: &dyn VfsFile) -> Vec<u8> {
    let mut buf = vec![0u8; file.len().unwrap() as usize];
    file.read_exact_at(&mut buf, 0).unwrap();
    buf
}

static TMP_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// MemFs: the gathered block-by-block override equals the per-slice
    /// default loop and the byte model, for every script.
    #[test]
    fn memfs_vectored_override_matches_default_loop(
        ops in prop::collection::vec(
            (0u64..64, prop::collection::vec(0usize..200, 0..6)),
            1..12,
        ),
    ) {
        let native_fs = MemFs::with_block_size(512);
        let native = native_fs.create("v.bin").unwrap();
        apply(native.as_ref(), &ops);

        let default_fs = MemFs::with_block_size(512);
        let wrapped = ScalarOnly(default_fs.create("v.bin").unwrap());
        apply(&wrapped, &ops);

        let model = apply_model(&ops);
        prop_assert_eq!(&image(native.as_ref()), &model, "native vs model");
        prop_assert_eq!(&image(&wrapped), &model, "default loop vs model");

        // An empty tap list forwards the iovec whole and still serves the
        // backend's leases.
        let bare = TapFs::new(Arc::new(MemFs::with_block_size(512)), vec![]);
        let bare_file = bare.create("v.bin").unwrap();
        apply(bare_file.as_ref(), &ops);
        prop_assert_eq!(&image(bare_file.as_ref()), &model, "empty tap list vs model");
        if !model.is_empty() {
            let lease = bare_file.read_lease(0, model.len()).expect("MemFs lease through TapFs");
            prop_assert_eq!(lease.bytes(), &model[..lease.len()]);
        }

        // With a fault tap listed every slice is its own op: the unarmed
        // tap logs one successful Write per non-empty slice, and the taps
        // after it see the same extents.
        let (faults, guard, sink) =
            (Faults::new(), BlockGuard::new(512), Arc::new(WriteExtents::default()));
        let tapped = TapFs::new(
            Arc::new(MemFs::with_block_size(512)),
            vec![faults.clone(), guard.clone(), sink.clone()],
        );
        let tapped_file = tapped.create("v.bin").unwrap();
        vfs::guard::set_task(0);
        apply(tapped_file.as_ref(), &ops);
        vfs::guard::clear_task();
        prop_assert_eq!(&image(tapped_file.as_ref()), &model, "full tap list vs model");
        let logged: Vec<(u64, u64)> = faults
            .take_log()
            .iter()
            .filter(|r| r.kind == FaultKind::Write)
            .map(|r| {
                assert!(r.ok && r.persisted == r.len, "{r:?}");
                (r.offset, r.len)
            })
            .collect();
        let expected = slice_extents(&ops);
        prop_assert_eq!(&logged, &expected, "one Write record per non-empty slice");
        prop_assert_eq!(&*sink.0.lock().unwrap(), &expected, "sink extents");
        guard.assert_exclusive();
    }

    /// LocalFs: the coalesced single-submission override equals the
    /// per-slice default loop and the byte model, for every script.
    #[test]
    fn localfs_vectored_override_matches_default_loop(
        ops in prop::collection::vec(
            (0u64..64, prop::collection::vec(0usize..200, 0..6)),
            1..8,
        ),
    ) {
        let case = TMP_CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir()
            .join(format!("vfs-vectored-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();

        let fs = LocalFs::new(&root);
        let native = fs.create("native.bin").unwrap();
        apply(native.as_ref(), &ops);
        let wrapped = ScalarOnly(fs.create("default.bin").unwrap());
        apply(&wrapped, &ops);

        let model = apply_model(&ops);
        let native_img = image(native.as_ref());
        let default_img = image(&wrapped);
        std::fs::remove_dir_all(&root).unwrap();
        prop_assert_eq!(&native_img, &model, "native vs model");
        prop_assert_eq!(&default_img, &model, "default loop vs model");
    }
}
