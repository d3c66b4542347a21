//! The `mpmc` workload and its layer ladder: the paper's Fig. 11c mix.
//! Two pinned threads share one queue of the paper's 2^16 slots, half
//! full at the start; each makes a seeded 50/50 choice between a
//! non-blocking send and a non-blocking receive, in a closed loop.
//!
//! The same loop drives every rung — `WcqRing`, `WcqHandle`, `channel`
//! endpoints, and `ScqQueue` as the reference — so a rung's cost minus
//! the rung below it is that layer's own cost.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use wcq::channel::{self, Receiver, Sender};
use wcq::{ScqQueue, WcqConfig, WcqHandle, WcqQueue, WcqRing};

use crate::slices::{Mark, Slicer};
use crate::stats::{mix, Rng, TickHist};
use crate::sys::{self, Place};
use crate::trace::{SpanBuf, Trace};

/// The paper's ring: 2^16 slots.
const ORDER: u32 = 16;
const PREFILL: u64 = 1 << 15;
pub const THREADS: usize = 2;
/// Producer tag of the prefill; the two threads are producers 0 and 1.
const PREFILL_ID: u64 = THREADS as u64;
const PRODUCERS: usize = THREADS + 1;
/// Operations each thread runs before the set-up clock stops.
const WARM_OPS: u64 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Rung {
    Ring,
    Queue,
    Channel,
    Scq,
}

impl Rung {
    pub fn layer(self) -> &'static str {
        match self {
            Rung::Ring => "wcq_ring",
            Rung::Queue => "wcq_queue",
            Rung::Channel => "channel",
            Rung::Scq => "scq",
        }
    }

    fn phase_name(self) -> &'static str {
        match self {
            Rung::Ring => "mpmc.wcq_ring",
            Rung::Queue => "mpmc.wcq_queue",
            Rung::Channel => "mpmc.channel",
            Rung::Scq => "mpmc.scq",
        }
    }

    fn call_names(self) -> (&'static str, &'static str) {
        match self {
            Rung::Ring => ("wcq_ring.enqueue", "wcq_ring.dequeue"),
            Rung::Queue => ("wcq_queue.enqueue", "wcq_queue.dequeue"),
            Rung::Channel => ("channel.try_send", "channel.try_recv"),
            Rung::Scq => ("scq.enqueue", "scq.dequeue"),
        }
    }
}

/// How calls are timed: `sample_mask` times call `i` when
/// `i & mask == 0`; `span_mask` likewise records a span for it.
#[derive(Clone, Copy)]
pub struct Timing {
    pub sample_mask: Option<u64>,
    pub span_mask: Option<u64>,
}

pub const UNTIMED: Timing = Timing {
    sample_mask: None,
    span_mask: None,
};

pub struct Opts<'a> {
    pub seed: u64,
    pub window: Duration,
    /// The window is measured in this many equal slices.
    pub slices: usize,
    pub cpus: &'a [usize],
    pub timing: Timing,
    pub trace: Option<(&'a Trace, u64)>,
}

/// One slice of the measured window, summed over threads.
pub struct Slice {
    /// Calls that moved an item.
    pub ops: u64,
    pub full: u64,
    pub empty: u64,
    pub send: TickHist,
    pub recv: TickHist,
    pub mark: Mark,
}

impl Slice {
    fn new() -> Slice {
        Slice {
            ops: 0,
            full: 0,
            empty: 0,
            send: TickHist::new(),
            recv: TickHist::new(),
            mark: Mark::default(),
        }
    }

    fn add(&mut self, other: &Slice) {
        self.ops += other.ops;
        self.full += other.full;
        self.empty += other.empty;
        self.send.merge(&other.send);
        self.recv.merge(&other.recv);
    }
}

pub struct Outcome {
    pub setup_ns: u64,
    pub slices: Vec<Slice>,
    /// Items enqueued, the prefill included.
    pub attempted: u64,
    /// Items lost, duplicated or reordered.
    pub failed: u64,
    pub problems: Vec<String>,
    pub places: Vec<Place>,
}

impl Outcome {
    /// The whole window as one slice.
    pub fn total(&self) -> Slice {
        let mut t = Slice::new();
        for s in &self.slices {
            t.add(s);
            t.mark.ns += s.mark.ns;
            t.mark.cpu_ns += s.mark.cpu_ns;
            t.mark.peak_heap = t.mark.peak_heap.max(s.mark.peak_heap);
        }
        t
    }
}

/// One thread's view of the queue under test.
trait End: Send {
    /// Offers one item; `false` when the queue is full.
    fn send(&mut self) -> bool;
    /// Takes one item; `false` when the queue is empty.
    fn recv(&mut self) -> bool;
}

/// A queue access path carrying `u64` values.
trait Raw: Send {
    fn try_send(&mut self, v: u64) -> bool;
    fn try_recv(&mut self) -> Option<u64>;
}

struct ChanEnd {
    tx: Sender<u64>,
    rx: Receiver<u64>,
}

impl Raw for ChanEnd {
    #[inline]
    fn try_send(&mut self, v: u64) -> bool {
        self.tx.try_send(v).is_ok()
    }
    #[inline]
    fn try_recv(&mut self) -> Option<u64> {
        self.rx.try_recv().ok()
    }
}

impl Raw for WcqHandle<'_, u64> {
    #[inline]
    fn try_send(&mut self, v: u64) -> bool {
        self.enqueue(v).is_ok()
    }
    #[inline]
    fn try_recv(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

impl Raw for &ScqQueue<u64> {
    #[inline]
    fn try_send(&mut self, v: u64) -> bool {
        self.enqueue(v).is_ok()
    }
    #[inline]
    fn try_recv(&mut self) -> Option<u64> {
        self.dequeue()
    }
}

/// Per-producer bookkeeping: values are `producer << 32 | seq`, so every
/// consumer can check per-producer FIFO, and the mixed sums over
/// everything sent and received must agree at the end.
struct Tally {
    me: u64,
    seq: u64,
    /// Next sequence number expected from each producer (at least).
    next_from: [u64; PRODUCERS],
    sent: u64,
    got: u64,
    sent_ck: u64,
    got_ck: u64,
    reorders: u64,
}

impl Tally {
    fn new(me: u64) -> Tally {
        Tally {
            me,
            seq: 0,
            next_from: [0; PRODUCERS],
            sent: 0,
            got: 0,
            sent_ck: 0,
            got_ck: 0,
            reorders: 0,
        }
    }

    #[inline]
    fn value(&self) -> u64 {
        self.me << 32 | self.seq
    }

    #[inline]
    fn on_sent(&mut self, v: u64) {
        self.sent += 1;
        self.sent_ck = self.sent_ck.wrapping_add(mix(v));
        self.seq += 1;
    }

    #[inline]
    fn on_got(&mut self, v: u64) {
        self.got += 1;
        self.got_ck = self.got_ck.wrapping_add(mix(v));
        let (p, s) = ((v >> 32) as usize, v & 0xffff_ffff);
        match self.next_from.get_mut(p) {
            Some(next) if s >= *next => *next = s + 1,
            _ => self.reorders += 1,
        }
    }
}

struct Tagged<R> {
    raw: R,
    tally: Tally,
}

impl<R: Raw> End for Tagged<R> {
    #[inline]
    fn send(&mut self) -> bool {
        let v = self.tally.value();
        let ok = self.raw.try_send(v);
        if ok {
            self.tally.on_sent(v);
        }
        ok
    }
    #[inline]
    fn recv(&mut self) -> bool {
        match self.raw.try_recv() {
            Some(v) => {
                self.tally.on_got(v);
                true
            }
            None => false,
        }
    }
}

/// Drains what is left through end 0 and checks count, checksum and
/// per-producer FIFO over every item, the prefill included.
fn check_tagged<R: Raw>(mut ends: Vec<Tagged<R>>, prefill: &Tally, out: &mut Outcome) {
    while ends[0].recv() {}
    let (mut sent, mut got, mut sent_ck, mut got_ck, mut reorders) =
        (prefill.sent, 0u64, prefill.sent_ck, 0u64, 0u64);
    for e in &ends {
        sent += e.tally.sent;
        got += e.tally.got;
        sent_ck = sent_ck.wrapping_add(e.tally.sent_ck);
        got_ck = got_ck.wrapping_add(e.tally.got_ck);
        reorders += e.tally.reorders;
    }
    let mut failed = sent.abs_diff(got) + reorders;
    if failed == 0 && sent_ck != got_ck {
        failed = 1;
    }
    if failed > 0 {
        out.problems.push(format!(
            "sent {sent} items, received {got}, {reorders} out of per-producer order, checksums {}",
            if sent_ck == got_ck { "agree" } else { "differ" }
        ));
    }
    out.attempted += sent;
    out.failed += failed;
}

/// The raw index ring: each thread holds a stash of free indices, so a
/// send moves one index from the stash into the ring and a receive moves
/// one back — the index discipline `WcqQueue` keeps for its own rings.
struct RingEnd<'r> {
    ring: &'r WcqRing,
    tid: usize,
    stash: Vec<u64>,
    sent: u64,
}

impl End for RingEnd<'_> {
    #[inline]
    fn send(&mut self) -> bool {
        match self.stash.pop() {
            Some(i) => {
                self.ring.enqueue(self.tid, i);
                self.sent += 1;
                true
            }
            None => false,
        }
    }
    #[inline]
    fn recv(&mut self) -> bool {
        match self.ring.dequeue(self.tid) {
            Some(i) => {
                self.stash.push(i);
                true
            }
            None => false,
        }
    }
}

/// Every index of the ring must be in exactly one place at the end.
fn check_ring(mut ends: Vec<RingEnd<'_>>, n: u64, out: &mut Outcome) {
    while ends[0].recv() {}
    let mut seen = vec![0u32; n as usize];
    for e in &ends {
        for &i in &e.stash {
            seen[i as usize] += 1;
        }
    }
    let lost = seen.iter().filter(|&&c| c == 0).count() as u64;
    let dup: u64 = seen.iter().map(|&c| c.saturating_sub(1) as u64).sum();
    if lost + dup > 0 {
        out.problems
            .push(format!("ring indices: {lost} lost, {dup} duplicated"));
    }
    out.attempted += PREFILL + ends.iter().map(|e| e.sent).sum::<u64>();
    out.failed += lost + dup;
}

struct Probe {
    slices: Vec<Slice>,
    spans: SpanBuf,
}

struct Done<E> {
    end: E,
    probe: Probe,
    place: Place,
}

/// Runs one set-up plus measured window of `rung` and checks it.
pub fn run(rung: Rung, o: &Opts) -> Outcome {
    let span_cap = if o.trace.is_some() { 1 << 16 } else { 0 };
    let probes: Vec<Probe> = (0..THREADS)
        .map(|_| Probe {
            slices: (0..o.slices).map(|_| Slice::new()).collect(),
            spans: SpanBuf::with_capacity(span_cap),
        })
        .collect();
    let mut out = Outcome {
        setup_ns: 0,
        slices: (0..o.slices).map(|_| Slice::new()).collect(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        places: Vec::new(),
    };
    let base = harness::alloc::live_bytes();
    harness::alloc::reset_peak();
    let t0 = Instant::now();
    let cfg = WcqConfig::default();
    match rung {
        Rung::Channel => {
            let (mut tx, rx) = channel::bounded::<u64>(ORDER, 2 * THREADS);
            let mut pre = Tally::new(PREFILL_ID);
            for _ in 0..PREFILL {
                let v = pre.value();
                tx.try_send(v).expect("prefill fits in an empty channel");
                pre.on_sent(v);
            }
            let second = Tagged {
                raw: ChanEnd {
                    tx: tx.clone(),
                    rx: rx.clone(),
                },
                tally: Tally::new(1),
            };
            let first = Tagged {
                raw: ChanEnd { tx, rx },
                tally: Tally::new(0),
            };
            let done = drive(rung, vec![first, second], probes, o, t0, base, &mut out);
            check_tagged(done, &pre, &mut out);
        }
        Rung::Queue => {
            let q = WcqQueue::<u64>::with_config(ORDER, THREADS, &cfg);
            let mut pre = Tally::new(PREFILL_ID);
            {
                let mut h = q.register().expect("a free thread slot");
                for _ in 0..PREFILL {
                    let v = pre.value();
                    h.enqueue(v).expect("prefill fits in an empty queue");
                    pre.on_sent(v);
                }
            }
            let ends = (0..THREADS as u64)
                .map(|me| Tagged {
                    raw: q.register().expect("a free thread slot"),
                    tally: Tally::new(me),
                })
                .collect();
            let done = drive(rung, ends, probes, o, t0, base, &mut out);
            check_tagged(done, &pre, &mut out);
        }
        Rung::Scq => {
            let q = ScqQueue::<u64>::with_config(ORDER, &cfg);
            let mut pre = Tally::new(PREFILL_ID);
            for _ in 0..PREFILL {
                let v = pre.value();
                q.enqueue(v).expect("prefill fits in an empty queue");
                pre.on_sent(v);
            }
            let ends = (0..THREADS as u64)
                .map(|me| Tagged {
                    raw: &q,
                    tally: Tally::new(me),
                })
                .collect();
            let done = drive(rung, ends, probes, o, t0, base, &mut out);
            check_tagged(done, &pre, &mut out);
        }
        Rung::Ring => {
            let ring = WcqRing::new_empty(ORDER, THREADS, &cfg);
            let n = ring.capacity();
            for i in 0..PREFILL {
                ring.enqueue(0, i);
            }
            let share = (n - PREFILL) / THREADS as u64;
            let ends = (0..THREADS)
                .map(|tid| {
                    let from = PREFILL + share * tid as u64;
                    let mut stash = Vec::with_capacity(n as usize);
                    stash.extend(from..from + share);
                    RingEnd {
                        ring: &ring,
                        tid,
                        stash,
                        sent: 0,
                    }
                })
                .collect();
            let done = drive(rung, ends, probes, o, t0, base, &mut out);
            check_ring(done, n, &mut out);
        }
    }
    out
}

/// Spawns one pinned thread per end, warms up, runs the measured window
/// and returns the ends for the final drain and check.
fn drive<E: End>(
    rung: Rung,
    ends: Vec<E>,
    probes: Vec<Probe>,
    o: &Opts,
    t0: Instant,
    heap_base: usize,
    out: &mut Outcome,
) -> Vec<E> {
    let slicer = Slicer::new(o.slices);
    let ready = Barrier::new(ends.len() + 1);
    let (send_name, recv_name) = rung.call_names();
    let phase = o.trace.map(|(t, parent)| (t, t.new_id(), parent));
    let (done, marks): (Vec<Done<E>>, Vec<Mark>) = std::thread::scope(|s| {
        let handles: Vec<_> = ends
            .into_iter()
            .zip(probes)
            .enumerate()
            .map(|(tid, (mut end, mut probe))| {
                let (slicer, ready) = (&slicer, &ready);
                let cpu = o.cpus[tid % o.cpus.len()];
                let (seed, timing) = (o.seed, o.timing);
                s.spawn(move || {
                    let mut place =
                        Place::enter(format!("mpmc.{}.t{tid}", rung.layer()), Some(cpu));
                    let mut rng = Rng::new(seed, tid as u64);
                    let (mut bits, mut nbits) = (0u64, 0u32);
                    let mut coin = move || {
                        if nbits == 0 {
                            bits = rng.next_u64();
                            nbits = 64;
                        }
                        let heads = bits & 1 == 1;
                        bits >>= 1;
                        nbits -= 1;
                        heads
                    };
                    for _ in 0..WARM_OPS {
                        if coin() {
                            end.send();
                        } else {
                            end.recv();
                        }
                    }
                    ready.wait();
                    let loop_start = sys::ticks();
                    let loop_id = phase.map_or(0, |(t, _, _)| t.new_id());
                    let mut cur = 0;
                    let mut i = 0u64;
                    loop {
                        if i & 255 == 0 {
                            if slicer.stopped() {
                                break;
                            }
                            cur = slicer.current();
                            if i & 0xffff == 0 {
                                place.note();
                            }
                        }
                        let st = &mut probe.slices[cur];
                        let is_send = coin();
                        let timed = timing.sample_mask.is_some_and(|m| i & m == 0);
                        let c0 = if timed { sys::ticks() } else { 0 };
                        let ok = if is_send { end.send() } else { end.recv() };
                        if timed {
                            let c1 = sys::ticks();
                            let dt = c1.wrapping_sub(c0);
                            if is_send {
                                st.send.record(dt);
                            } else {
                                st.recv.record(dt);
                            }
                            if let (Some(m), Some((t, _, _))) = (timing.span_mask, phase) {
                                if i & m == 0 {
                                    let name = if is_send { send_name } else { recv_name };
                                    probe.spans.push(name, t.new_id(), loop_id, c0, c1);
                                }
                            }
                        }
                        match (ok, is_send) {
                            (true, _) => st.ops += 1,
                            (false, true) => st.full += 1,
                            (false, false) => st.empty += 1,
                        }
                        i += 1;
                    }
                    place.note();
                    if let Some((_, phase_id, _)) = phase {
                        probe.spans.push(
                            "mpmc.thread",
                            loop_id,
                            phase_id,
                            loop_start,
                            sys::ticks(),
                        );
                    }
                    Done { end, probe, place }
                })
            })
            .collect();
        ready.wait();
        out.setup_ns = t0.elapsed().as_nanos() as u64;
        let tick_start = sys::ticks();
        let marks = slicer.measure(o.window, heap_base);
        let done = handles
            .into_iter()
            .map(|h| h.join().expect("mpmc thread panicked"))
            .collect();
        if let Some((t, id, parent)) = phase {
            t.span(rung.phase_name(), id, parent, tick_start, sys::ticks());
        }
        (done, marks)
    });
    let mut ends = Vec::with_capacity(done.len());
    for d in done {
        for (acc, s) in out.slices.iter_mut().zip(&d.probe.slices) {
            acc.add(s);
        }
        if let Some((t, _)) = o.trace {
            t.absorb(d.probe.spans);
        }
        out.places.push(d.place);
        ends.push(d.end);
    }
    for (acc, m) in out.slices.iter_mut().zip(marks) {
        acc.mark = m;
    }
    ends
}
