//! `tracer` — a Scalasca-like event-tracing library.
//!
//! The paper's second use case (§5.2) integrates SIONlib into the Scalasca
//! performance tool: "each task first records local events in a collection
//! buffer and writes them to a task-local file at measurement finalization
//! according to the multiple-file parallel method". Experiment *activation*
//! (creating the trace files and initializing the tracing library) was the
//! scalability bottleneck SIONlib removed (Table 2: 369.1 s → 28.1 s at
//! 32 Ki tasks).
//!
//! This crate reproduces that substrate:
//!
//! * a compact binary [`Event`] model (region enter/exit, message send/
//!   receive) with a self-delimiting wire format;
//! * a per-task [`Tracer`] collection buffer;
//! * two interchangeable trace back-ends — [`TaskLocalBackend`] (one
//!   physical file per task, the original Scalasca scheme) and
//!   [`SionBackend`] (a SIONlib multifile, optionally compressed as the
//!   paper's §6 suggests);
//! * a postmortem [`analyze`] pass in the spirit of Scalasca's wait-state
//!   search (per-region time profile plus late-sender detection), reading
//!   traces through either back-end.

mod analyze;
mod backend;
mod event;
mod synth;

pub use analyze::{analyze, AnalysisReport, RegionStats, TraceSource};
pub use backend::{ActiveTrace, SionBackend, TaskLocalBackend, TraceBackend};
pub use sion::{CloseStats, IoCounters};
pub use event::{DecodeError, Event};
pub use synth::{synthetic_events, SynthConfig};

use sion::Result;

/// A per-task collection buffer: events are encoded on record and flushed
/// to a back-end at finalization (Scalasca's measurement workflow).
pub struct Tracer {
    rank: usize,
    buf: Vec<u8>,
    nevents: u64,
}

impl Tracer {
    /// A fresh collection buffer for `rank`.
    pub fn new(rank: usize) -> Self {
        Tracer { rank, buf: Vec::new(), nevents: 0 }
    }

    /// Record one event into the collection buffer.
    pub fn record(&mut self, ev: &Event) {
        ev.encode(&mut self.buf);
        self.nevents += 1;
    }

    /// This task's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of recorded events.
    pub fn len(&self) -> u64 {
        self.nevents
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nevents == 0
    }

    /// Size of the encoded buffer in bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Flush the buffer into an activated trace and consume the tracer
    /// (measurement finalization).
    pub fn finalize(self, trace: &mut dyn ActiveTrace) -> Result<()> {
        trace.write_events(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_accumulates_encoded_events() {
        let mut t = Tracer::new(3);
        assert!(t.is_empty());
        t.record(&Event::Enter { time: 10, region: 1 });
        t.record(&Event::Exit { time: 20, region: 1 });
        assert_eq!(t.len(), 2);
        assert!(t.buffer_bytes() > 0);
        assert_eq!(t.rank(), 3);
    }
}
