//! `parfs` — a discrete-event parallel file-system simulator.
//!
//! The SIONlib paper's evaluation runs on two petascale machines (Jugene:
//! Blue Gene/P + GPFS; Jaguar: Cray XT4 + Lustre) at up to 64 K tasks. This
//! crate is the reproduction's substitute for that hardware: it simulates
//! the *mechanisms* the paper's results rest on —
//!
//! * **metadata contention**: file creates in one directory serialize on
//!   directory-block locking; GPFS (distributed metadata, every node may
//!   manage it) and Lustre (dedicated MDS) get different service models;
//! * **block-granularity write locks**: chunks of two tasks sharing one FS
//!   block contend like false-shared cache lines (paper Table 1);
//! * **striping and server parallelism**: each file is striped over a
//!   subset of the I/O servers; per-file and aggregate capacities bound
//!   throughput (paper Fig. 4);
//! * **bandwidth sharing**: concurrent transfers share client injection
//!   links, I/O servers, and the aggregate backplane max-min fairly, via a
//!   fluid-flow model (`fluid.rs`);
//! * **client-side read caching**: re-reads may exceed the file-system
//!   maximum (paper Fig. 5(b)).
//!
//! Workloads are [`ScriptSet`]s: per-*class* operation sequences (a class
//! is a group of tasks with identical behaviour — grouping keeps a
//! 64 K-task simulation at a handful of flow classes instead of 64 K
//! flows). The `sion::script` module generates these scripts from the
//! *actual* SIONlib layout code, so the simulated access pattern is exactly
//! the library's.
//!
//! ```
//! use parfs::{Machine, IoOp, FileRef, ScriptClass, ScriptSet, simulate};
//!
//! // 1024 tasks each create their own file in one directory.
//! let wl = ScriptSet {
//!     ntasks: 1024,
//!     classes: vec![ScriptClass {
//!         count: 1024,
//!         ops: vec![IoOp::Create(FileRef::Own)],
//!     }],
//! };
//! let report = simulate(&Machine::jugene(), &wl);
//! // Serialized creates: roughly 1024 * per-create service time.
//! assert!(report.makespan > 1.0);
//! ```

mod engine;
mod fluid;
mod machine;
mod workload;

pub use engine::{simulate, OpTiming, SimReport};
pub use machine::{Machine, StripingConfig};
pub use workload::{FileRef, IoOp, ScriptClass, ScriptSet};
