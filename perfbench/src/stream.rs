//! The `stream` workload and its ladder: one producer and one consumer
//! on different cores. The producer offers one item per call; the
//! consumer drains in batches and checks that the exact sequence arrives.
//! The `spsc` rung drives a raw `spsc::Ring`; the `channel` rung drives
//! `channel::spsc`, which must stay on its `spsc-ring` backend — so this
//! workload never touches wCQ.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wcq::channel::{self, Receiver, Sender};
use wcq::spsc;

use crate::mpmc::Timing;
use crate::slices::{Mark, Slicer};
use crate::stats::{Rng, TickHist};
use crate::sys::{self, Place};
use crate::trace::{SpanBuf, Trace};

/// 2^8 slots, drained whole by one batch receive. With the consumer's
/// back-off below, this keeps the pair in one steady regime: a larger ring
/// lets the backlog, and with it the handoff latency, drift between runs.
const ORDER: u32 = 8;
const BATCH: usize = 1 << ORDER;
/// A consumer that finds the ring empty pauses briefly before polling
/// again, as a polling consumer would, instead of hammering the line that
/// holds the producer's index.
const BACKOFF_SPINS: u32 = 32;
/// One item in `HANDOFF_EVERY` carries a handoff timestamp.
const HANDOFF_EVERY: u64 = 64;
/// Timestamps in flight: more than a full ring of sampled items.
const STAMPS: usize = 1024;
const WARM_ITEMS: u64 = 1 << 20;
const EXPECTED_BACKEND: &str = "spsc-ring";

/// The pause of a consumer that found the ring empty, in warm-up and
/// window alike.
fn backoff() {
    for _ in 0..BACKOFF_SPINS {
        std::hint::spin_loop();
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    Spsc,
    Channel,
}

impl Rung {
    pub fn phase_name(self) -> &'static str {
        match self {
            Rung::Spsc => "stream.spsc",
            Rung::Channel => "stream.channel",
        }
    }

    fn call_names(self) -> (&'static str, &'static str) {
        match self {
            Rung::Spsc => ("spsc.push", "spsc.pop_batch"),
            Rung::Channel => ("channel.try_send", "channel.recv_batch"),
        }
    }
}

pub struct Opts<'a> {
    pub seed: u64,
    pub window: Duration,
    /// The window is measured in this many equal slices.
    pub slices: usize,
    pub cpus: &'a [usize],
    pub timing: Timing,
    pub trace: Option<(&'a Trace, u64)>,
}

/// One slice of the measured window, producer side.
pub struct Slice {
    /// Items sent.
    pub items: u64,
    /// Send calls, and how many found the ring full.
    pub send_calls: u64,
    pub full: u64,
    pub send: TickHist,
    /// One-way handoff: ticks from the producer offering a sampled item
    /// to the consumer's batch receive returning it.
    pub handoff: TickHist,
    pub mark: Mark,
}

impl Slice {
    fn new() -> Slice {
        Slice {
            items: 0,
            send_calls: 0,
            full: 0,
            send: TickHist::new(),
            handoff: TickHist::new(),
            mark: Mark::default(),
        }
    }
}

pub struct Outcome {
    pub setup_ns: u64,
    pub slices: Vec<Slice>,
    /// Batch receives after warm-up, and the items they returned.
    pub recv_calls: u64,
    pub recv_items: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub places: Vec<Place>,
}

impl Outcome {
    /// The whole window as one slice.
    pub fn total(&self) -> Slice {
        let mut t = Slice::new();
        for s in &self.slices {
            t.items += s.items;
            t.send_calls += s.send_calls;
            t.full += s.full;
            t.send.merge(&s.send);
            t.handoff.merge(&s.handoff);
            t.mark.ns += s.mark.ns;
            t.mark.cpu_ns += s.mark.cpu_ns;
            t.mark.peak_heap = t.mark.peak_heap.max(s.mark.peak_heap);
        }
        t
    }
}

trait Tx: Send {
    fn offer(&mut self, v: u64) -> bool;
    fn backend(&self) -> &'static str;
}

trait Rx: Send {
    fn take(&mut self, out: &mut Vec<u64>, max: usize) -> usize;
    fn backend(&self) -> &'static str;
}

impl Tx for spsc::Producer<u64> {
    #[inline]
    fn offer(&mut self, v: u64) -> bool {
        self.push(v).is_ok()
    }
    fn backend(&self) -> &'static str {
        EXPECTED_BACKEND
    }
}

impl Rx for spsc::Consumer<u64> {
    #[inline]
    fn take(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        self.pop_batch(out, max)
    }
    fn backend(&self) -> &'static str {
        EXPECTED_BACKEND
    }
}

impl Tx for Sender<u64> {
    #[inline]
    fn offer(&mut self, v: u64) -> bool {
        self.try_send(v).is_ok()
    }
    fn backend(&self) -> &'static str {
        Sender::backend(self)
    }
}

impl Rx for Receiver<u64> {
    #[inline]
    fn take(&mut self, out: &mut Vec<u64>, max: usize) -> usize {
        self.recv_batch(out, max)
    }
    fn backend(&self) -> &'static str {
        Receiver::backend(self)
    }
}

/// Runs one set-up plus measured window of `rung` and checks it.
pub fn run(rung: Rung, o: &Opts) -> Outcome {
    let span_cap = if o.trace.is_some() { 1 << 16 } else { 0 };
    let probe = Probe {
        slices: (0..o.slices).map(|_| Slice::new()).collect(),
        handoff: (0..o.slices).map(|_| TickHist::new()).collect(),
        stamps: (0..STAMPS).map(|_| AtomicU64::new(0)).collect(),
        tx_spans: SpanBuf::with_capacity(span_cap),
        rx_spans: SpanBuf::with_capacity(span_cap),
        buf: Vec::with_capacity(BATCH),
        labels: [
            format!("{}.producer", rung.phase_name()),
            format!("{}.consumer", rung.phase_name()),
        ],
    };
    // The probe is allocated before this, so the heap figures count the
    // ring and not the benchmark's own buffers.
    let base = harness::alloc::live_bytes();
    harness::alloc::reset_peak();
    let t0 = Instant::now();
    match rung {
        Rung::Spsc => {
            let (tx, rx) = spsc::Ring::<u64>::new(ORDER).split();
            drive(rung, tx, rx, probe, o, t0, base)
        }
        Rung::Channel => {
            let (tx, rx) = channel::spsc::<u64>(ORDER, 2);
            drive(rung, tx, rx, probe, o, t0, base)
        }
    }
}

struct Probe {
    slices: Vec<Slice>,
    handoff: Vec<TickHist>,
    stamps: Vec<AtomicU64>,
    tx_spans: SpanBuf,
    rx_spans: SpanBuf,
    /// The consumer's batch buffer.
    buf: Vec<u64>,
    /// Producer and consumer thread labels.
    labels: [String; 2],
}

fn drive<T: Tx, R: Rx>(
    rung: Rung,
    mut tx: T,
    mut rx: R,
    probe: Probe,
    o: &Opts,
    t0: Instant,
    heap_base: usize,
) -> Outcome {
    let slicer = Slicer::new(o.slices);
    let produced = AtomicU64::new(0);
    // Set by the producer after its last warm-up item and after its last
    // window item.
    let warmed = AtomicBool::new(false);
    let finished = AtomicBool::new(false);
    let ready = Barrier::new(3);
    // Items are consecutive numbers from a seeded start, so a gap or a
    // repeat shows exactly where the sequence broke.
    let first = Rng::new(o.seed, 0x5717).next_u64() >> 16;
    let (send_name, recv_name) = rung.call_names();
    let phase = o.trace.map(|(t, parent)| (t, t.new_id(), parent));
    let mut out = Outcome {
        setup_ns: 0,
        slices: Vec::new(),
        recv_calls: 0,
        recv_items: 0,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        places: Vec::new(),
    };
    let timing = o.timing;
    let Probe {
        mut slices,
        mut handoff,
        stamps,
        mut tx_spans,
        mut rx_spans,
        mut buf,
        labels: [tx_label, rx_label],
    } = probe;
    let stamps = &stamps;
    std::thread::scope(|s| {
        let (slicer, produced, ready) = (&slicer, &produced, &ready);
        let (warmed, finished) = (&warmed, &finished);
        let cpu_p = o.cpus[0];
        let cpu_c = o.cpus[1 % o.cpus.len()];
        let producer = s.spawn(move || {
            let mut place = Place::enter(tx_label, Some(cpu_p));
            let backend_before = tx.backend();
            let mut next = first;
            for _ in 0..WARM_ITEMS {
                while !tx.offer(next) {}
                next += 1;
            }
            warmed.store(true, Ordering::Release);
            ready.wait();
            let loop_start = sys::ticks();
            let loop_id = phase.map_or(0, |(t, _, _)| t.new_id());
            let (mut sent, mut cur) = (0u64, 0);
            let mut calls = 0u64;
            loop {
                if sent & 255 == 0 {
                    if slicer.stopped() {
                        break;
                    }
                    cur = slicer.current();
                    if sent & 0xffff == 0 {
                        place.note();
                    }
                }
                let st = &mut slices[cur];
                if sent % HANDOFF_EVERY == 0 {
                    stamps[(sent / HANDOFF_EVERY) as usize % STAMPS]
                        .store(sys::ticks(), Ordering::Relaxed);
                }
                loop {
                    let timed = timing.sample_mask.is_some_and(|m| calls & m == 0);
                    let c0 = if timed { sys::ticks() } else { 0 };
                    let ok = tx.offer(next);
                    if timed {
                        let c1 = sys::ticks();
                        st.send.record(c1.wrapping_sub(c0));
                        if let (Some(m), Some((t, _, _))) = (timing.span_mask, phase) {
                            if calls & m == 0 {
                                tx_spans.push(send_name, t.new_id(), loop_id, c0, c1);
                            }
                        }
                    }
                    calls += 1;
                    st.send_calls += 1;
                    if ok {
                        break;
                    }
                    st.full += 1;
                }
                st.items += 1;
                next += 1;
                sent += 1;
            }
            place.note();
            if let Some((_, phase_id, _)) = phase {
                tx_spans.push(
                    "stream.producer",
                    loop_id,
                    phase_id,
                    loop_start,
                    sys::ticks(),
                );
            }
            produced.store(next - first, Ordering::Relaxed);
            finished.store(true, Ordering::Release);
            let backend_after = tx.backend();
            (slices, tx_spans, place, [backend_before, backend_after])
        });
        let consumer = s.spawn(move || {
            let mut place = Place::enter(rx_label, Some(cpu_c));
            let backend_before = rx.backend();
            let mut expect = first;
            let (mut lost, mut repeated) = (0u64, 0u64);
            let mut check = |buf: &mut Vec<u64>| {
                for &v in buf.iter() {
                    if v != expect {
                        if v > expect {
                            lost += v - expect;
                        } else {
                            repeated += 1;
                        }
                    }
                    expect = v + 1;
                }
                buf.clear();
            };
            // A producer flag read before an empty take means the ring is
            // drained, so a lost item is counted, not waited for.
            let mut got = 0u64;
            loop {
                let done = warmed.load(Ordering::Acquire);
                let n = rx.take(&mut buf, BATCH) as u64;
                got += n;
                check(&mut buf);
                if n == 0 {
                    if done {
                        break;
                    }
                    backoff();
                }
            }
            ready.wait();
            let loop_start = sys::ticks();
            let loop_id = phase.map_or(0, |(t, _, _)| t.new_id());
            let (mut calls, mut items) = (0u64, 0u64);
            loop {
                let done = finished.load(Ordering::Acquire);
                let spanned = phase.is_some() && timing.span_mask.is_some_and(|m| calls & m == 0);
                let c0 = if spanned { sys::ticks() } else { 0 };
                let n = rx.take(&mut buf, BATCH) as u64;
                let mut now = None;
                for &v in &buf {
                    // Window items are numbered from `first + WARM_ITEMS`.
                    let k = v.wrapping_sub(first + WARM_ITEMS);
                    if k % HANDOFF_EVERY == 0 && k < u64::MAX / 2 {
                        let at = *now.get_or_insert_with(sys::ticks);
                        let sent_at =
                            stamps[(k / HANDOFF_EVERY) as usize % STAMPS].load(Ordering::Relaxed);
                        let k = slicer.current().min(handoff.len() - 1);
                        handoff[k].record(at.wrapping_sub(sent_at));
                    }
                }
                if spanned {
                    if let Some((t, _, _)) = phase {
                        rx_spans.push(recv_name, t.new_id(), loop_id, c0, sys::ticks());
                    }
                }
                calls += 1;
                items += n;
                check(&mut buf);
                if calls & 0xffff == 0 {
                    place.note();
                }
                if n == 0 {
                    if done {
                        break;
                    }
                    backoff();
                }
            }
            place.note();
            if let Some((_, phase_id, _)) = phase {
                rx_spans.push(
                    "stream.consumer",
                    loop_id,
                    phase_id,
                    loop_start,
                    sys::ticks(),
                );
            }
            let backend_after = rx.backend();
            (
                calls,
                items,
                got + items,
                lost,
                repeated,
                rx_spans,
                handoff,
                place,
                [backend_before, backend_after],
            )
        });
        ready.wait();
        out.setup_ns = t0.elapsed().as_nanos() as u64;
        let tick_start = sys::ticks();
        let marks = slicer.measure(o.window, heap_base);
        let (mut slices, tx_spans, p_place, p_backend) =
            producer.join().expect("stream producer panicked");
        let (
            recv_calls,
            recv_items,
            received,
            lost,
            repeated,
            rx_spans,
            handoff,
            c_place,
            c_backend,
        ) = consumer.join().expect("stream consumer panicked");
        for ((sl, m), h) in slices.iter_mut().zip(marks).zip(handoff) {
            sl.mark = m;
            sl.handoff = h;
        }
        out.slices = slices;
        if let Some((t, id, parent)) = phase {
            t.span(rung.phase_name(), id, parent, tick_start, sys::ticks());
            t.absorb(tx_spans);
            t.absorb(rx_spans);
        }
        // The producer has been joined, so this is its final count.
        let total = produced.load(Ordering::Relaxed);
        out.recv_calls = recv_calls;
        out.recv_items = recv_items;
        out.attempted = total;
        let missing = total.saturating_sub(received);
        // A lost item in mid-stream is both skipped and missing; count it once.
        out.failed = (lost + repeated).max(missing);
        if out.failed > 0 {
            out.problems.push(format!(
                "stream: {total} sent, {received} received, {lost} skipped, {repeated} repeated"
            ));
        }
        for b in p_backend.iter().chain(&c_backend) {
            if *b != EXPECTED_BACKEND {
                out.failed += 1;
                out.problems.push(format!(
                    "stream: backend was {b}, expected {EXPECTED_BACKEND}"
                ));
            }
        }
        out.places.push(p_place);
        out.places.push(c_place);
    });
    out
}
