//! Quickstart: write task-local logical files from 8 parallel tasks into
//! one physical multifile on the real file system, read them back, and
//! inspect the metadata.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use simmpi::TaskWorld;
use sionlib::{sion, vfs};
use vfs::{LocalFs, Vfs};

fn main() {
    let dir = std::env::temp_dir().join(format!("sion-quickstart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let fs = LocalFs::with_block_size(&dir, 64 * 1024);

    let ntasks = 8;
    println!("writing a multifile from {ntasks} tasks (2 physical files) ...");

    // --- parallel write (paper Listing 1) --------------------------------
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            // Each task expects to write pieces of at most 64 KiB.
            let params = sion::SionParams::new(64 * 1024).with_nfiles(2);
            let mut w = sion::paropen_write_co(fs, "demo.sion", &params, &comm)
                .await
                .unwrap();
            for line in 0..100 {
                let record = format!("rank {:03} record {:04}\n", comm.rank(), line);
                w.ensure_free_space(record.len() as u64).unwrap();
                w.write_in_chunk(record.as_bytes()).unwrap();
            }
            w.close_co().await.unwrap();
        }
    });

    // --- parallel read (paper Listing 2) ---------------------------------
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let mut r = sion::paropen_read_co(fs, "demo.sion", &comm).await.unwrap();
            let mut data = Vec::new();
            while !r.feof() {
                let avail = r.bytes_avail_in_chunk() as usize;
                let mut buf = vec![0u8; avail];
                r.read_exact(&mut buf).unwrap();
                data.extend_from_slice(&buf);
            }
            let text = String::from_utf8(data).unwrap();
            assert_eq!(text.lines().count(), 100);
            assert!(text.starts_with(&format!("rank {:03} record 0000", comm.rank())));
            r.close_co().await.unwrap();
        }
    });
    println!("parallel read-back OK");

    // --- serial global view (paper Listings 4/5) -------------------------
    let mf = sion::Multifile::open(&fs, "demo.sion").unwrap();
    let loc = mf.locations().unwrap();
    println!(
        "multifile holds {} logical files in {} physical files ({} stored bytes)",
        loc.ntasks,
        loc.nfiles,
        loc.total_stored_bytes()
    );
    let rank3 = mf.read_rank(3).unwrap();
    println!("rank 3 wrote {} bytes; first line: {:?}", rank3.len(), {
        let text = String::from_utf8_lossy(&rank3);
        text.lines().next().unwrap_or("").to_string()
    });

    // Only two physical files exist on disk, not eight.
    let files = fs.list("demo.sion").unwrap();
    println!("files on disk: {files:?}");
    assert_eq!(files.len(), 2);

    std::fs::remove_dir_all(&dir).ok();
    println!("done.");
}
