//! `sionrepair <multifile> [--force]` — rebuild a lost metablock 2 from
//! per-chunk rescue headers (the paper's §6 robustness road map).

use vfs::LocalFs;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = args.get(2).map(String::as_str);
    if args.len() < 2 || args.len() > 3 || flag.is_some_and(|f| f != "--force") {
        eprintln!("usage: sionrepair <multifile> [--force]");
        std::process::exit(2);
    }
    let force = flag.is_some();
    let fs = LocalFs::new(".");
    match sion::rescue::repair(&fs, &args[1], force) {
        Ok(rep) => {
            println!(
                "scanned {} files: {} intact, {} repaired; recovered {} chunks / {} bytes",
                rep.files_scanned,
                rep.files_intact,
                rep.files_repaired,
                rep.chunks_recovered,
                rep.bytes_recovered
            );
            if !rep.is_clean() {
                println!("skipped damage ({} problems):", rep.problems.len());
                for p in &rep.problems {
                    println!("  {p}");
                }
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("sionrepair: {e}");
            std::process::exit(1);
        }
    }
}
