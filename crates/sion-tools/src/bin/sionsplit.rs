//! `sionsplit <multifile> <output-prefix> [rank ...]` — extract logical
//! task-local files back into physical files (paper §3.3).

use vfs::LocalFs;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() < 3 {
        eprintln!("usage: sionsplit <multifile> <output-prefix> [rank ...]");
        std::process::exit(2);
    }
    let ranks: Vec<usize> = args[3..]
        .iter()
        .map(|a| {
            a.parse().unwrap_or_else(|_| {
                eprintln!("sionsplit: bad rank {a:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let fs = LocalFs::new(".");
    let selection = (!ranks.is_empty()).then_some(ranks.as_slice());
    match sion_tools::split(&fs, &args[1], &fs, &args[2], selection) {
        Ok(created) => {
            for path in created {
                println!("{path}");
            }
        }
        Err(e) => {
            eprintln!("sionsplit: {e}");
            std::process::exit(1);
        }
    }
}
