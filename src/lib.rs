//! `sionlib` — facade crate for the Rust reproduction of SIONlib
//! (Frings, Wolf, Petkov: *Scalable Massively Parallel I/O to Task-Local
//! Files*, SC 2009).
//!
//! Re-exports every workspace crate; see each member's documentation:
//!
//! * [`sion`] — the multifile library itself (the paper's contribution);
//! * [`vfs`] — storage abstraction (local disk, in-memory);
//! * [`simmpi`] — in-process MPI-subset runtime;
//! * [`parfs`] — the parallel-file-system simulator behind the paper's
//!   timing experiments;
//! * [`szip`] — LZSS codec used by transparent compression;
//! * [`tracer`] — Scalasca-like event tracing (paper §5.2);
//! * [`mp2c`] — multi-particle collision mini-app (paper §5.1);
//! * [`sion_tools`] — dump/split/defrag/repair utilities (paper §3.3);
//! * [`simcheck`] — deterministic model checker and runtime sanitizers.

pub use mp2c;
pub use parfs;
pub use simcheck;
pub use simmpi;
pub use sion;
pub use sion_tools;
pub use szip;
pub use tracer;
pub use vfs;
