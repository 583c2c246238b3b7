//! The serial tool suite (paper §3.3 + the §6 robustness extension):
//! create a multifile, inspect it with `dump`, extract logical files with
//! `split`, contract it with `defrag`, then simulate a crash and recover
//! the metadata from rescue headers with `repair`.
//!
//! ```sh
//! cargo run --example multifile_tools
//! ```

use simmpi::TaskWorld;
use sion::rescue::repair;
use sion::{paropen_write_co, Multifile, SionParams};
use vfs::{LocalFs, Vfs};

fn main() {
    let dir = std::env::temp_dir().join(format!("sion-tools-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let fs = LocalFs::with_block_size(&dir, 4096);

    // A multifile with small chunks (so several blocks form) and rescue
    // headers enabled.
    let ntasks = 6;
    TaskWorld::run(ntasks, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(4096).with_nfiles(2).with_rescue();
            let mut w = paropen_write_co(fs, "data.sion", &params, &comm)
                .await
                .unwrap();
            for i in 0..comm.rank() + 2 {
                let chunk = vec![(comm.rank() * 16 + i) as u8; 3000];
                w.write(&chunk).unwrap();
            }
            w.close_co().await.unwrap();
        }
    });

    // --- siondump ---------------------------------------------------------
    println!("== dump ==");
    print!("{}", sion_tools::dump(&fs, "data.sion").unwrap());

    // --- sionsplit --------------------------------------------------------
    let created = sion_tools::split(&fs, "data.sion", &fs, "extracted/task", None).unwrap();
    println!("\n== split == recreated {} task files: {:?}", created.len(), &created[..2]);
    for (rank, path) in created.iter().enumerate() {
        let f = fs.open(path).unwrap();
        assert_eq!(f.len().unwrap() as usize, (rank + 2) * 3000);
    }

    // --- siondefrag -------------------------------------------------------
    let stats = sion_tools::defrag(&fs, "data.sion", &fs, "dense.sion", 1).unwrap();
    println!(
        "\n== defrag == {} tasks, {} blocks contracted to 1, {} bytes copied",
        stats.ntasks, stats.blocks_before, stats.stored_bytes
    );
    let dense = Multifile::open(&fs, "dense.sion").unwrap();
    assert_eq!(dense.max_blocks(), 1);

    // --- crash + sionrepair ------------------------------------------------
    // Chop off metablock 2 of the first physical file, as a killed job
    // would, then reconstruct it from the per-chunk rescue headers.
    {
        let f = fs.open_rw("data.sion").unwrap();
        let len = f.len().unwrap();
        let mut trailer = [0u8; 24];
        f.read_exact_at(&mut trailer, len - 24).unwrap();
        let mb2_off = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        f.set_len(mb2_off).unwrap();
    }
    assert!(Multifile::open(&fs, "data.sion").is_err(), "truncation broke the multifile");
    let report = repair(&fs, "data.sion", false).unwrap();
    println!(
        "\n== repair == scanned {} files, repaired {}, recovered {} chunks / {} bytes",
        report.files_scanned, report.files_repaired, report.chunks_recovered, report.bytes_recovered
    );
    let recovered = Multifile::open(&fs, "data.sion").unwrap();
    for rank in 0..ntasks {
        assert_eq!(recovered.read_rank(rank).unwrap().len(), (rank + 2) * 3000);
    }
    println!("all logical files intact after recovery");

    std::fs::remove_dir_all(&dir).ok();
    println!("done.");
}
