//! End-to-end tests of the command-line binaries (paper §3.3): build a
//! real multifile on disk, then drive `siondump`, `sionsplit`,
//! `siondefrag`, `sionverify`, `sioncat`, and `sionrepair` as child
//! processes, exactly as a user would.

use simmpi::World;
use sion::{paropen_write, SionParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use vfs::LocalFs;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sion-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Create a rescue-enabled multifile with 4 tasks / 2 physical files.
fn make_multifile(dir: &Path) {
    let fs = LocalFs::with_block_size(dir, 4096);
    World::run(4, |comm| {
        let params = SionParams::new(4096).with_nfiles(2).with_rescue();
        let mut w = paropen_write(&fs, "data.sion", &params, comm).unwrap();
        for i in 0..3 {
            w.write(&vec![(comm.rank() * 8 + i) as u8; 2500]).unwrap();
        }
        w.close().unwrap();
    });
}

fn run_tool(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .current_dir(dir)
        .args(args)
        .output()
        .expect("tool binary runs")
}

#[test]
fn dump_split_verify_cat_pipeline() {
    let dir = scratch("pipeline");
    make_multifile(&dir);

    // siondump prints the shape.
    let out = run_tool(env!("CARGO_BIN_EXE_siondump"), &dir, &["data.sion"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("tasks:          4"), "{text}");
    assert!(text.contains("rescue=true"));

    // sionverify reports a clean file.
    let out = run_tool(env!("CARGO_BIN_EXE_sionverify"), &dir, &["data.sion"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK: 4 task streams"));

    // sionsplit extracts all four logical files.
    let out = run_tool(env!("CARGO_BIN_EXE_sionsplit"), &dir, &["data.sion", "x/task"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for rank in 0..4 {
        let path = dir.join(format!("x/task.{rank:06}"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 7500, "{path:?}");
    }

    // sioncat streams one rank to stdout.
    let out = run_tool(env!("CARGO_BIN_EXE_sioncat"), &dir, &["data.sion", "2"]);
    assert!(out.status.success());
    assert_eq!(out.stdout.len(), 7500);
    assert_eq!(out.stdout[0], 16); // rank 2, piece 0

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn defrag_then_verify() {
    let dir = scratch("defrag");
    make_multifile(&dir);
    let out = run_tool(env!("CARGO_BIN_EXE_siondefrag"), &dir, &["data.sion", "dense.sion"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("defragmented 4 tasks"));
    let out = run_tool(env!("CARGO_BIN_EXE_sionverify"), &dir, &["dense.sion"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_after_crash_via_cli() {
    let dir = scratch("repair");
    make_multifile(&dir);
    // Truncate metablock 2 off the first physical file.
    {
        use std::os::unix::fs::FileExt;
        let path = dir.join("data.sion");
        let f = std::fs::OpenOptions::new().read(true).write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        let mut tr = [0u8; 24];
        f.read_exact_at(&mut tr, len - 24).unwrap();
        let mb2_off = u64::from_le_bytes(tr[0..8].try_into().unwrap());
        f.set_len(mb2_off).unwrap();
    }
    // dump now fails...
    let out = run_tool(env!("CARGO_BIN_EXE_siondump"), &dir, &["data.sion"]);
    assert!(!out.status.success());
    // ...repair fixes it...
    let out = run_tool(env!("CARGO_BIN_EXE_sionrepair"), &dir, &["data.sion"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 repaired"));
    // ...and verify passes again.
    let out = run_tool(env!("CARGO_BIN_EXE_sionverify"), &dir, &["data.sion"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tools_reject_bad_usage() {
    let dir = scratch("usage");
    for bin in [
        env!("CARGO_BIN_EXE_siondump"),
        env!("CARGO_BIN_EXE_sionsplit"),
        env!("CARGO_BIN_EXE_siondefrag"),
        env!("CARGO_BIN_EXE_sionrepair"),
        env!("CARGO_BIN_EXE_sioncat"),
        env!("CARGO_BIN_EXE_sionverify"),
    ] {
        let out = run_tool(bin, &dir, &[]);
        assert_eq!(out.status.code(), Some(2), "{bin} must exit 2 on bad usage");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
    // Missing file: exit 1.
    let out = run_tool(env!("CARGO_BIN_EXE_siondump"), &dir, &["nope.sion"]);
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sionrepair_rejects_any_flag_but_force() {
    let dir = scratch("repairflags");
    make_multifile(&dir);
    let before = std::fs::read(dir.join("data.sion")).unwrap();
    for flag in ["--forec", "-f", "force"] {
        let out = run_tool(env!("CARGO_BIN_EXE_sionrepair"), &dir, &["data.sion", flag]);
        assert_eq!(out.status.code(), Some(2), "sionrepair must reject {flag}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"), "{flag}");
    }
    assert_eq!(std::fs::read(dir.join("data.sion")).unwrap(), before, "nothing was repaired");
    let out = run_tool(env!("CARGO_BIN_EXE_sionrepair"), &dir, &["data.sion", "--force"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 repaired"));
    std::fs::remove_dir_all(&dir).ok();
}

/// User-input hardening: truncated and garbage files must produce a clean
/// diagnostic and a nonzero exit — never a panic — from every tool, and a
/// malformed numeric argument is a usage error.
#[test]
fn tools_survive_garbage_and_truncated_files() {
    let dir = scratch("garbage");
    make_multifile(&dir);
    // Garbage: plausible length, hostile bytes.
    std::fs::write(dir.join("garbage.sion"), vec![0xA5u8; 4096]).unwrap();
    // Truncated: a valid multifile cut mid-header.
    let whole = std::fs::read(dir.join("data.sion")).unwrap();
    std::fs::write(dir.join("trunc.sion"), &whole[..40]).unwrap();

    for bin in [
        env!("CARGO_BIN_EXE_siondump"),
        env!("CARGO_BIN_EXE_sionverify"),
        env!("CARGO_BIN_EXE_sionrepair"),
    ] {
        for file in ["garbage.sion", "trunc.sion"] {
            let out = run_tool(bin, &dir, &[file]);
            assert_eq!(out.status.code(), Some(1), "{bin} on {file} must fail cleanly");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!err.contains("panicked"), "{bin} on {file} panicked:\n{err}");
            assert!(!err.is_empty(), "{bin} on {file}: no diagnostic");
        }
    }
    for file in ["garbage.sion", "trunc.sion"] {
        let out = run_tool(env!("CARGO_BIN_EXE_sioncat"), &dir, &[file, "0"]);
        assert_eq!(out.status.code(), Some(1), "sioncat on {file} must fail cleanly");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
        let out = run_tool(env!("CARGO_BIN_EXE_sionsplit"), &dir, &[file, "y/task"]);
        assert_eq!(out.status.code(), Some(1), "sionsplit on {file} must fail cleanly");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
        let out = run_tool(env!("CARGO_BIN_EXE_siondefrag"), &dir, &[file, "d.sion"]);
        assert_eq!(out.status.code(), Some(1), "siondefrag on {file} must fail cleanly");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }

    // Malformed numeric arguments are usage errors, not panics.
    let out = run_tool(env!("CARGO_BIN_EXE_siondefrag"), &dir, &["data.sion", "d.sion", "zero"]);
    assert_eq!(out.status.code(), Some(2), "bad nfiles must be a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad nfiles"));
    let out = run_tool(env!("CARGO_BIN_EXE_sioncat"), &dir, &["data.sion", "x"]);
    assert_eq!(out.status.code(), Some(2), "bad rank must be a usage error");

    std::fs::remove_dir_all(&dir).ok();
}
