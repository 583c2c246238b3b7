//! Drive the parallel-file-system simulator directly: a miniature version
//! of the paper's Fig. 3 and Fig. 5 on the modelled Jugene and Jaguar
//! machines, entirely on your laptop.
//!
//! ```sh
//! cargo run --release --example simulated_machine
//! ```

use parfs::{simulate, Machine};
use sion::script::{sion_create, sion_par_write, task_local_create, SimSpec};

fn main() {
    for machine in [Machine::jugene(), Machine::jaguar()] {
        println!("== {} ==", machine.name);
        println!(
            "{:>8} {:>16} {:>16} {:>14}",
            "tasks", "create files(s)", "SION create(s)", "SION write MB/s"
        );
        let counts: &[u64] = if machine.name == "jugene" {
            &[4096, 16384, 65536]
        } else {
            &[1024, 4096, 12288]
        };
        for &n in counts {
            let create = simulate(&machine, &task_local_create(n)).makespan;
            let spec = SimSpec::aligned(n, 16.min(n as u32), 0, machine.fsblksize);
            let sion = simulate(&machine, &sion_create(&spec)).makespan;

            // A 1 TB write spread over 32 physical files.
            let spec = SimSpec::aligned(n, 32.min(n as u32), (1u64 << 40) / n, machine.fsblksize);
            let wl = sion_par_write(&spec);
            let bw = simulate(&machine, &wl).write_bandwidth(&wl) / 1e6;

            println!("{n:>8} {create:>16.1} {sion:>16.2} {bw:>14.0}");
        }
        println!();
    }
    println!(
        "(each number is a discrete-event simulation of the machine's metadata\n\
         service, striping, and bandwidth sharing — see crates/parfs and\n\
         EXPERIMENTS.md for the model and its calibration)"
    );
}
