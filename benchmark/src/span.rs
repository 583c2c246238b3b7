//! Spans recorded by the benchmark around each call into a layer.
//!
//! Every rank (and the serial harness) owns a [`Tracer`]. While the rank
//! runs inside a span, its tracer is parked in a thread-local so that
//! [`TimedFs`](crate::timedfs::TimedFs) can attribute each VFS operation
//! to the span that caused it. Rank tasks migrate between worker threads
//! at every `.await`, so the tracer is installed per *poll*, not per task.

use std::cell::RefCell;
use std::future::Future;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

/// Rank id of spans recorded by the serial harness (world runs, tools).
pub const HARNESS: i32 = -1;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The kinds of VFS operation `TimedFs` distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOp {
    Write,
    Read,
    Lease,
    Namespace,
}

impl VfsOp {
    pub fn span_name(self) -> &'static str {
        match self {
            VfsOp::Write => "vfs.write",
            VfsOp::Read => "vfs.read",
            VfsOp::Lease => "vfs.lease",
            VfsOp::Namespace => "vfs.namespace",
        }
    }
}

/// One span. `id`/`parent` index into the owning tracer's span list until
/// [`TraceLog::absorb`] renumbers them process-wide.
///
/// A harness span covers one contiguous interval (`busy_ns` = end − start,
/// `calls` = 1). VFS operations are *folded*: all operations of one kind
/// under one parent share a span whose `busy_ns` is the sum of their
/// durations — a 768 MiB pass is 196 608 page leases, and a span per
/// operation would be the workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub rank: i32,
    pub rep: u32,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
    pub bytes: u64,
}

struct Frame {
    span: usize,
    /// Index of this span's folded child per [`VfsOp`], once one exists.
    folded: [Option<usize>; 4],
}

/// Span recorder of one rank (or of the serial harness) for one rep.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    rank: i32,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    /// Set when this rank opened a shadow handle, i.e. it is an
    /// aggregated-mode *member*.
    pub opened_shadow: bool,
}

thread_local! {
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

impl Tracer {
    /// A recorder for `rank` in `rep`; records nothing unless `on`.
    pub fn new(on: bool, rank: i32, rep: u32) -> Tracer {
        Tracer {
            on,
            rank,
            rep,
            ..Tracer::default()
        }
    }

    fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        let now = now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            rep: self.rep,
            id: id as u64,
            parent: self.stack.last().map(|f| f.span as u64),
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
            bytes: 0,
        });
        self.stack.push(Frame {
            span: id,
            folded: [None; 4],
        });
    }

    fn end(&mut self) {
        let frame = self
            .stack
            .pop()
            .expect("span stack underflow is a harness bug");
        let s = &mut self.spans[frame.span];
        s.end_ns = now_ns();
        s.busy_ns = s.end_ns - s.start_ns;
    }

    /// Park this tracer in the thread-local; returns the one it displaced
    /// (the harness's own, when a rank is polled on the calling thread).
    fn install(&mut self) -> Option<Tracer> {
        CURRENT.with(|c| c.borrow_mut().replace(std::mem::take(self)))
    }

    fn uninstall(&mut self, displaced: Option<Tracer>) {
        *self = CURRENT
            .with(|c| std::mem::replace(&mut *c.borrow_mut(), displaced))
            .expect("a layer call must not clear the installed tracer");
    }

    /// Run synchronous `f` inside span `name`.
    pub fn sync<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        self.begin(name);
        let displaced = self.install();
        let out = f();
        self.uninstall(displaced);
        self.end();
        out
    }

    /// Await `fut` inside span `name`. The span covers the whole await,
    /// including the time this rank is parked.
    pub async fn run<T>(&mut self, name: &'static str, fut: impl Future<Output = T>) -> T {
        if !self.on {
            return fut.await;
        }
        self.begin(name);
        let mut fut = std::pin::pin!(fut);
        let out = std::future::poll_fn(|cx| {
            let displaced = self.install();
            let polled = fut.as_mut().poll(cx);
            self.uninstall(displaced);
            polled
        })
        .await;
        self.end();
        out
    }

    /// The spans recorded so far, ids local to this tracer.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `times` is `None` for operations that are counted but not timed;
    /// their folded span then starts where its parent starts.
    fn fold(&mut self, op: VfsOp, bytes: u64, times: Option<(u64, u64)>) {
        let Some(frame) = self.stack.last_mut() else {
            return;
        };
        let slot = op as usize;
        let idx = match frame.folded[slot] {
            Some(idx) => idx,
            None => {
                let parent_start = self.spans[frame.span].start_ns;
                let (start_ns, _) = times.unwrap_or((parent_start, parent_start));
                self.spans.push(Span {
                    name: op.span_name(),
                    rank: self.rank,
                    rep: self.rep,
                    id: self.spans.len() as u64,
                    parent: Some(frame.span as u64),
                    start_ns,
                    end_ns: start_ns,
                    busy_ns: 0,
                    calls: 0,
                    bytes: 0,
                });
                frame.folded[slot] = Some(self.spans.len() - 1);
                self.spans.len() - 1
            }
        };
        let s = &mut self.spans[idx];
        if let Some((start_ns, end_ns)) = times {
            s.end_ns = end_ns;
            s.busy_ns += end_ns - start_ns;
        }
        s.calls += 1;
        s.bytes += bytes;
    }
}

/// Attribute one VFS operation to the span the current thread runs in, if
/// any. Called by `TimedFs` only.
pub fn record_vfs(op: VfsOp, bytes: u64, times: Option<(u64, u64)>) {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.fold(op, bytes, times);
        }
    });
}

/// Mark the rank running on this thread as an aggregated-mode member.
pub fn note_shadow_open() {
    CURRENT.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.opened_shadow = true;
        }
    });
}

/// All spans of a traced run, ids unique across ranks and reps.
#[derive(Default)]
pub struct TraceLog {
    spans: Vec<Span>,
}

impl TraceLog {
    /// Move `tracer`'s spans in. Its root spans become children of
    /// `parent` (an id returned by an earlier `absorb`), so a rank's spans
    /// hang off the world run that executed them. Returns the new ids of
    /// the absorbed spans, in recording order.
    pub fn absorb(&mut self, tracer: Tracer, parent: Option<u64>) -> std::ops::Range<u64> {
        let base = self.spans.len() as u64;
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
        base..self.spans.len() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of `busy_ns` over the spans named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// The layer's *self* time: like [`busy_s`](Self::busy_s), minus the
    /// busy time of each such span's direct children. `rank` restricts the
    /// sum to one rank's spans.
    pub fn self_s(&self, name: &str, rank: Option<i32>) -> f64 {
        let mut total = 0i128;
        let mut is_parent = vec![false; self.spans.len()];
        let named = self.spans.iter().filter(|s| s.name == name);
        for s in named.filter(|s| rank.is_none_or(|r| s.rank == r)) {
            total += s.busy_ns as i128;
            is_parent[s.id as usize] = true;
        }
        for s in &self.spans {
            if s.parent.is_some_and(|p| is_parent[p as usize]) {
                total -= s.busy_ns as i128;
            }
        }
        total.max(0) as f64 / 1e9
    }

    /// Write one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"rank\":{},\"rep\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"bytes\":{}}}",
                s.id, s.name, s.rank, s.rep, s.start_ns, s.end_ns, s.busy_ns, s.calls, s.bytes
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_vfs_ops_hang_off_the_innermost_span() {
        let mut t = Tracer::new(true, 3, 1);
        t.sync("outer", || {
            record_vfs(VfsOp::Write, 10, Some((100, 130)));
            record_vfs(VfsOp::Write, 5, Some((200, 210)));
            record_vfs(VfsOp::Lease, 7, None);
        });
        // Outside any span nothing is installed: the op is dropped.
        record_vfs(VfsOp::Read, 1, Some((0, 1)));
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        let w = &spans[1];
        assert_eq!(
            (w.name, w.parent, w.calls, w.bytes, w.busy_ns),
            ("vfs.write", Some(0), 2, 15, 40)
        );
        assert_eq!((w.start_ns, w.end_ns), (100, 210));
        assert_eq!(
            (spans[2].name, spans[2].calls, spans[2].busy_ns),
            ("vfs.lease", 1, 0)
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_installs_nothing() {
        let mut t = Tracer::new(false, 0, 0);
        let v = t.sync("x", || {
            record_vfs(VfsOp::Write, 1, Some((0, 1)));
            42
        });
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_and_self_time_subtracts_children() {
        let mut log = TraceLog::default();
        let mut world = Tracer::new(true, HARNESS, 0);
        world.sync("world", || {});
        let world_id = log.absorb(world, None).start;

        let mut rank = Tracer::new(true, 0, 0);
        rank.sync("par.open", || record_vfs(VfsOp::Namespace, 0, Some((5, 9))));
        let ids = log.absorb(rank, Some(world_id));
        assert_eq!(ids, 1..3);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(world_id));
        assert_eq!(spans[2].parent, Some(1));

        let open = log.busy_s("par.open");
        let own = log.self_s("par.open", Some(0));
        assert_eq!(log.self_s("par.open", Some(1)), 0.0);
        assert!(
            (open - own - 4e-9).abs() < 1e-12,
            "self = span minus the 4 ns child"
        );
    }

    #[test]
    fn async_spans_install_per_poll() {
        let mut t = Tracer::new(true, 0, 0);
        let fut = t.run("a", async {
            record_vfs(VfsOp::Read, 8, Some((1, 2)));
            7
        });
        assert_eq!(simmpi::drive_ready(fut), 7);
        assert_eq!(t.spans()[1].name, "vfs.read");
        assert!(CURRENT.with(|c| c.borrow().is_none()));
    }
}
