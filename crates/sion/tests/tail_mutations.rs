//! Hostile bytes in a multifile's tail (DESIGN §7): every 8-byte word of
//! each physical file's metablock 2, chunk index and trailer, set one at a
//! time to each of `0`, `u64::MAX`, `w ^ 1`, `w + 1` and `5000`. Whatever
//! `sionverify` calls clean must read back exactly through the serial and
//! the collective reader; whatever `rescue::repair` leaves behind must read
//! back exactly and verify clean; and a file the metadata judge accepts is
//! one repair leaves byte for byte alone.

use simmpi::TaskWorld;
use sion::rescue::repair;
use sion::{
    check_metadata, paropen_read_co, paropen_write_co, physical_name, Multifile, SionParams,
};
use sion_tools::verify;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vfs::{MemFs, Vfs};

const BASE: &str = "tail.sion";
const NTASKS: usize = 4;
const NFILES: u32 = 2;

/// Rank `rank`'s logical file: 300 + 400·rank bytes.
fn payload(rank: usize) -> Vec<u8> {
    (0..300 + 400 * rank)
        .map(|i| ((i * 13 + rank * 71 + 7) % 251) as u8)
        .collect()
}

fn file_bytes(fs: &MemFs, name: &str) -> Vec<u8> {
    let f = fs.open(name).unwrap();
    let mut bytes = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(&mut bytes, 0).unwrap();
    bytes
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The rescue multifile every case starts from: (name, bytes) per file.
fn image() -> Vec<(String, Vec<u8>)> {
    let fs = MemFs::with_block_size(512);
    TaskWorld::run(NTASKS, |comm| {
        let fs = &fs;
        async move {
            let params = SionParams::new(512).with_nfiles(NFILES).with_rescue();
            let mut w = paropen_write_co(fs, BASE, &params, &comm).await.unwrap();
            w.write(&payload(comm.rank())).unwrap();
            w.close_co().await.unwrap();
        }
    });
    (0..NFILES)
        .map(|k| physical_name(BASE, k))
        .map(|name| {
            let bytes = file_bytes(&fs, &name);
            (name, bytes)
        })
        .collect()
}

/// `Ok` when every rank reads back exactly through `read_rank` and through
/// a 4-rank `paropen_read`; else what the first reader to fail said.
fn read_back(fs: &MemFs) -> Result<(), String> {
    let mf = Multifile::open(fs, BASE).map_err(|e| format!("Multifile::open failed: {e}"))?;
    for rank in 0..NTASKS {
        let got = mf
            .read_rank(rank)
            .map_err(|e| format!("read_rank({rank}) failed: {e}"))?;
        if got != payload(rank) {
            return Err(format!(
                "read_rank({rank}) returned {} bytes, not its {}",
                got.len(),
                payload(rank).len()
            ));
        }
    }
    let verdicts = TaskWorld::run(NTASKS, |comm| async move {
        let rank = comm.rank();
        let mut r = paropen_read_co(fs, BASE, &comm)
            .await
            .map_err(|e| format!("paropen_read failed: {e}"))?;
        let (mut got, mut buf) = (Vec::new(), [0u8; 256]);
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => return Err(format!("paropen_read rank {rank} read failed: {e}")),
            }
        }
        r.close_co()
            .await
            .map_err(|e| format!("paropen_read rank {rank} close failed: {e}"))?;
        match got == payload(rank) {
            true => Ok(()),
            false => Err(format!("paropen_read rank {rank} read {} bytes", got.len())),
        }
    });
    verdicts.into_iter().collect()
}

/// What `sionverify` calls clean reads back exactly.
fn clean_means_readable(fs: &MemFs) -> Result<(), String> {
    match verify(fs, BASE) {
        Ok(v) if v.is_clean() => {
            read_back(fs).map_err(|e| format!("verify called it clean, but {e}"))
        }
        _ => Ok(()),
    }
}

/// After `repair(false)` the multifile reads back exactly and verifies
/// clean, and each file the judge accepted is what it was.
fn repair_restores(fs: &MemFs) -> Result<(), String> {
    let checks = check_metadata(fs, BASE).map_err(|e| format!("the judge failed: {e}"))?;
    let before: Vec<Vec<u8>> = (0..NFILES)
        .map(|k| file_bytes(fs, &physical_name(BASE, k)))
        .collect();
    let report = repair(fs, BASE, false).map_err(|e| format!("repair(false) failed: {e}"))?;
    let after_repair = |e| {
        format!(
            "after repair(false) ({} intact, {} repaired, problems {:?}), {e}",
            report.files_intact, report.files_repaired, report.problems
        )
    };
    if !report.is_clean() {
        return Err(after_repair("the report is not clean".into()));
    }
    read_back(fs).map_err(after_repair)?;
    match verify(fs, BASE) {
        Ok(v) if v.is_clean() => {}
        other => return Err(after_repair(format!("verify says {other:?}"))),
    }
    for (k, check) in (0..NFILES).zip(&checks) {
        let sound = check.head.is_empty() && check.tail.is_empty();
        if sound && file_bytes(fs, &physical_name(BASE, k)) != before[k as usize] {
            return Err(format!(
                "repair(false) rewrote file {k}, which the judge accepted"
            ));
        }
    }
    Ok(())
}

#[test]
fn every_tail_word_mutation_is_judged_as_the_readers_read() {
    let image = image();
    let (mut cases, mut failures) = (0, Vec::new());
    for (name, original) in &image {
        // v2 trailer: [mb2_off, mb2_len, idx_off, idx_len, magic].
        let trailer_at = original.len() - 40;
        let (mb2_off, idx_off) = (word(original, trailer_at), word(original, trailer_at + 16));
        for at in (mb2_off as usize..original.len()).step_by(8) {
            let region = match at as u64 {
                a if a < idx_off => "metablock 2",
                _ if at < trailer_at => "chunk index",
                _ => "trailer",
            };
            let w = word(original, at);
            for value in [0, u64::MAX, w ^ 1, w.wrapping_add(1), 5000] {
                cases += 1;
                let fs = MemFs::with_block_size(512);
                for (n, bytes) in &image {
                    let mut bytes = bytes.clone();
                    if n == name {
                        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    }
                    fs.create(n).unwrap().write_all_at(&bytes, 0).unwrap();
                }
                for promise in [clean_means_readable, repair_restores] {
                    let kept = catch_unwind(AssertUnwindSafe(|| promise(&fs)))
                        .unwrap_or_else(|_| Err("a tool panicked".into()));
                    if let Err(e) = kept {
                        failures.push(format!("{name} {region} @{at}: {w} := {value}: {e}"));
                    }
                }
            }
        }
    }
    assert_eq!(cases, 170, "34 tail words, 5 values each");
    assert!(
        failures.is_empty(),
        "{} promises broken over {cases} tail mutations. A judge that checks one \
         usage view calls a metablock-2 word set to 5000 clean although \
         paropen_read then fails on every rank, and a zeroed chunk-index word \
         clean although read_rank(0) then returns 0 of its 300 bytes; a repair \
         that calls a file intact once its metablock 2 decodes leaves such \
         tails in place:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
