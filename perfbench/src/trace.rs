//! In-memory trace spans, recorded from the benchmark's own code around
//! its calls into each layer and written out once the run has ended.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// One span: a named interval in ticks, and the span that caused it
/// (0 for a root).
#[derive(Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
}

/// The run's span sink. Threads record into a [`SpanBuf`] of fixed
/// capacity and hand it over when they finish.
pub struct Trace {
    spans: Mutex<Vec<SpanRec>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Records one finished span directly (phase-level spans).
    pub fn span(&self, name: &'static str, id: u64, parent: u64, start: u64, end: u64) {
        self.spans
            .lock()
            .expect("trace lock poisoned")
            .push(SpanRec {
                name,
                id,
                parent,
                start,
                end,
            });
    }

    pub fn absorb(&self, buf: SpanBuf) {
        self.dropped.fetch_add(buf.dropped, Relaxed);
        self.spans
            .lock()
            .expect("trace lock poisoned")
            .extend_from_slice(&buf.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("trace lock poisoned").len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// Writes one JSON object per span, times in ns from `tick0`.
    pub fn write(
        &self,
        path: &std::path::Path,
        tick0: u64,
        ns_per_tick: f64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans.lock().expect("trace lock poisoned");
        let ns = |t: u64| (t.saturating_sub(tick0) as f64 * ns_per_tick) as u64;
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                s.parent,
                ns(s.start),
                ns(s.end)
            )?;
        }
        out.flush()
    }
}

/// A thread's private span buffer: fixed capacity, so recording never
/// allocates while a phase is being measured; overflow is counted.
pub struct SpanBuf {
    spans: Vec<SpanRec>,
    dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(cap: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, name: &'static str, id: u64, parent: u64, start: u64, end: u64) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(SpanRec {
                name,
                id,
                parent,
                start,
                end,
            });
        } else {
            self.dropped += 1;
        }
    }
}
