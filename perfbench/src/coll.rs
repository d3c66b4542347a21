//! The `collector` workload: an open loop. One generator thread submits
//! spans at a fixed rate into a 2-shard, 1-worker pipeline with the
//! default `Shed` policy, exporting to an exporter the benchmark owns.
//! Each span carries the time it was due in `start_ns`, so the exporter
//! measures due time → export, which includes any wait a stall imposed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use collector::{
    Collector, CollectorConfig, CollectorReport, ExportError, Exporter, NoFaults, ShedPolicy, Span,
};

use crate::mpmc::Timing;
use crate::slices::{Mark, Slicer};
use crate::stats::{Rng, TickHist};
use crate::sys::{self, Place};
use crate::trace::{SpanBuf, Trace};

/// Offered load, well under the pipeline's ceiling on two cores: a
/// generator woken late by a few milliseconds submits a burst that still
/// fits the lanes, so nothing is shed.
pub const RATE_PER_S: u64 = 100_000;
/// Spans pushed through before the set-up clock stops, in rounds that
/// each fill the lanes about half way and are exported before the next:
/// enough work that one late wake-up does not set the set-up time.
const WARM_SPANS: u64 = 1 << 14;
const WARM_ROUND: u64 = 4096;
/// `dur_ns` marks which spans belong to the measured window.
const WARM: u64 = 0;
const MEASURED: u64 = 1;
/// Lateness is bucketed at 2^7 ns.
const LATE_SHIFT: u32 = 7;

pub struct Opts<'a> {
    pub seed: u64,
    pub window: Duration,
    /// The window is measured in this many equal slices.
    pub slices: usize,
    pub cpus: &'a [usize],
    pub timing: Timing,
    /// The exporter runs on a pipeline thread, so it holds the sink by `Arc`.
    pub trace: Option<(&'a Arc<Trace>, u64)>,
    /// Names the step in progress, for the watchdog's report.
    pub step: &'a dyn Fn(&'static str),
}

/// One slice of the window, by due time.
pub struct Slice {
    /// Measured spans due in this slice that reached the sink.
    pub exported: u64,
    /// The due → export latency of each, ns, sorted; capped at a little
    /// over the offered count, so `exported` is the count to use.
    pub latency: Vec<u32>,
    /// What the main thread measured.
    pub mark: Mark,
}

pub struct Outcome {
    pub setup_ns: u64,
    /// Measured spans exported.
    pub exported: u64,
    pub slices: Vec<Slice>,
    /// How late the generator submitted each measured span, ns.
    pub late: TickHist,
    /// `SpanSender::submit` call times, ticks.
    pub submit: TickHist,
    /// Batches and spans the sink received, warm-up included.
    pub batches: u64,
    pub exported_all: u64,
    pub report: CollectorReport,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub places: Vec<Place>,
}

struct BenchExporter {
    epoch: Instant,
    /// Start of the measured window, ns from `epoch`, and slice length.
    window_start: Arc<AtomicU64>,
    slice_ns: u64,
    exported: Vec<u64>,
    latency: Vec<Vec<u32>>,
    count: u64,
    measured: u64,
    ck: u64,
    batches: u64,
    place: Place,
    spans: SpanBuf,
    trace: Option<(Arc<Trace>, u64)>,
}

impl Exporter for BenchExporter {
    fn export(&mut self, spans: &[Span]) -> Result<(), ExportError> {
        let c0 = sys::ticks();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.batches += 1;
        for s in spans {
            self.count += 1;
            self.ck ^= s.checksum();
            if s.dur_ns == MEASURED {
                self.measured += 1;
                let since = s
                    .start_ns
                    .saturating_sub(self.window_start.load(Ordering::Relaxed));
                let k = ((since / self.slice_ns) as usize).min(self.latency.len() - 1);
                self.exported[k] += 1;
                let lat = &mut self.latency[k];
                if lat.len() < lat.capacity() {
                    lat.push(now.saturating_sub(s.start_ns).min(u32::MAX as u64) as u32);
                }
            }
        }
        if self.batches & 63 == 0 {
            self.place.note();
            if let Some((t, phase_id)) = &self.trace {
                self.spans
                    .push("collector.export", t.new_id(), *phase_id, c0, sys::ticks());
            }
        }
        Ok(())
    }
}

struct GenDone {
    submitted: u64,
    refused: u64,
    late: TickHist,
    submit: TickHist,
    spans: SpanBuf,
    place: Place,
}

/// Runs one set-up plus measured window and checks conservation.
pub fn run(o: &Opts) -> Outcome {
    let epoch = Instant::now();
    let expected = RATE_PER_S as u128 * o.window.as_nanos() / 1_000_000_000;
    let phase = o.trace.map(|(t, parent)| (t, t.new_id(), parent));
    let span_cap = if o.trace.is_some() { 1 << 16 } else { 0 };
    let slices = o.slices.max(1);
    let per_slice = (expected / slices as u128) as usize;
    let window_start = Arc::new(AtomicU64::new(0));
    let exporter = BenchExporter {
        epoch,
        window_start: Arc::clone(&window_start),
        slice_ns: (o.window.as_nanos() as u64 / slices as u64).max(1),
        exported: vec![0; slices],
        latency: (0..slices)
            .map(|_| Vec::with_capacity(per_slice + per_slice / 4 + 1024))
            .collect(),
        count: 0,
        measured: 0,
        ck: 0,
        batches: 0,
        place: Place::inherited("collector.exporter".to_string(), o.cpus[0]),
        spans: SpanBuf::with_capacity(span_cap),
        trace: phase.map(|(t, id, _)| (Arc::clone(t), id)),
    };
    let mut late = TickHist::with_shift(LATE_SHIFT);
    let mut submit = TickHist::new();
    let mut gen_spans = SpanBuf::with_capacity(span_cap);
    let gen_label = "collector.generator".to_string();
    let base = harness::alloc::live_bytes();
    harness::alloc::reset_peak();
    let t0 = Instant::now();
    (o.step)("collector.spawn");
    let cfg = CollectorConfig {
        shards: 2,
        producers: 1,
        workers: 1,
        shed: ShedPolicy::Shed,
        // 4096 slots per lane ride out a stall of the pipeline's CPU of
        // some 80 ms at this rate without shedding.
        lane_order: 12,
        ..CollectorConfig::default()
    };
    // The pipeline's worker and exporter inherit the affinity of the thread
    // that spawns them, so spawning from a thread pinned to the
    // generator's CPU puts the whole pipeline on one CPU: every wake-up is
    // then a local switch, not a cross-CPU interrupt, whose latency on a
    // shared virtual host swamps the pipeline's own cost.
    let cpu_pipe = o.cpus[0];
    let (pipeline, mut sender) = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = sys::pin_self(cpu_pipe);
            Collector::spawn(cfg, exporter, Arc::new(NoFaults))
        })
        .join()
        .expect("collector spawn panicked")
    });
    let mut rng = Rng::new(o.seed, 0xc011);
    let ready = Barrier::new(2);
    let period_ns = 1_000_000_000.0 / RATE_PER_S as f64;
    let (cpu_gen, window, timing) = (o.cpus[0], o.window, o.timing);
    let slicer = Slicer::new(slices);
    let (done, setup_ns, marks, tick_start) = std::thread::scope(|s| {
        let (ready, window_start) = (&ready, &window_start);
        (o.step)("collector.warm-up");
        let g = s.spawn(move || {
            let mut place = Place::enter(gen_label, Some(cpu_gen));
            // Warm-up, on the pipeline's CPU so it waits on no cross-CPU
            // wake.
            let mut warm_refused = 0;
            for id in 0..WARM_SPANS {
                let span = Span {
                    trace: rng.next_u64(),
                    id,
                    start_ns: epoch.elapsed().as_nanos() as u64,
                    dur_ns: WARM,
                };
                if !sender.submit(span) {
                    warm_refused += 1;
                }
                if (id + 1) % WARM_ROUND == 0 {
                    while {
                        let m = sender.metrics().snapshot();
                        m.exported + m.dropped < m.accepted
                    } {
                        std::thread::yield_now();
                    }
                }
            }
            ready.wait();
            let loop_start = sys::ticks();
            let loop_id = phase.map_or(0, |(t, _, _)| t.new_id());
            let start = epoch.elapsed().as_nanos() as u64;
            // Published to the exporter through the spans that follow.
            window_start.store(start, Ordering::Relaxed);
            let end = start + window.as_nanos() as u64;
            let due_at = |k: u64| start + (k as f64 * period_ns) as u64;
            let (mut k, mut refused, mut wakes) = (0u64, 0u64, 0u64);
            while due_at(k) < end {
                let now = epoch.elapsed().as_nanos() as u64;
                while due_at(k) <= now && due_at(k) < end {
                    let due = due_at(k);
                    let span = Span {
                        trace: rng.next_u64(),
                        id: WARM_SPANS + k,
                        start_ns: due,
                        dur_ns: MEASURED,
                    };
                    let timed = timing.sample_mask.is_some_and(|m| k & m == 0);
                    let c0 = if timed { sys::ticks() } else { 0 };
                    let ok = sender.submit(span);
                    if timed {
                        let c1 = sys::ticks();
                        submit.record(c1.wrapping_sub(c0));
                        if let (Some(m), Some((t, _, _))) = (timing.span_mask, phase) {
                            if k & m == 0 {
                                gen_spans.push("collector.submit", t.new_id(), loop_id, c0, c1);
                            }
                        }
                    }
                    late.record(now - due);
                    if !ok {
                        refused += 1;
                    }
                    k += 1;
                }
                wakes += 1;
                if wakes & 255 == 0 {
                    place.note();
                }
                let now = epoch.elapsed().as_nanos() as u64;
                let due = due_at(k);
                if due > now && due < end {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
            }
            place.note();
            if let Some((_, phase_id, _)) = phase {
                gen_spans.push(
                    "collector.generator",
                    loop_id,
                    phase_id,
                    loop_start,
                    sys::ticks(),
                );
            }
            // Dropping the last sender starts the pipeline's close ripple.
            drop(sender);
            GenDone {
                submitted: WARM_SPANS + k,
                refused: warm_refused + refused,
                late,
                submit,
                spans: gen_spans,
                place,
            }
        });
        ready.wait();
        let setup_ns = t0.elapsed().as_nanos() as u64;
        let tick_start = sys::ticks();
        (o.step)("collector.window");
        let marks = slicer.measure(window, base);
        let done = g.join().expect("collector generator panicked");
        (done, setup_ns, marks, tick_start)
    });
    (o.step)("collector.shutdown");
    let (report, exporter) = pipeline.shutdown();
    let (submitted, refused) = (done.submitted, done.refused);

    let m = &report.metrics;
    let accepted = submitted - refused;
    // Shed spans were refused at ingest; anything else missing was lost.
    let lost = m.accepted.abs_diff(exporter.count) + accepted.abs_diff(m.accepted);
    let mut failed = refused + m.dropped + lost;
    if lost == 0 && (exporter.ck != m.accepted_ck || !m.conserved()) {
        failed += 1;
    }
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!(
            "collector: {submitted} submitted, {} accepted, {} shed, {} dropped, {} reached the sink, conserved={}, sink checksum {}",
            m.accepted,
            m.shed,
            m.dropped,
            exporter.count,
            m.conserved(),
            if exporter.ck == m.accepted_ck { "agrees" } else { "differs" }
        ));
    }
    if let Some((t, id, parent)) = phase {
        t.span("collector", id, parent, tick_start, sys::ticks());
        t.absorb(done.spans);
        t.absorb(exporter.spans);
    }
    let slices = exporter
        .latency
        .into_iter()
        .zip(exporter.exported)
        .zip(marks)
        .map(|((mut latency, exported), mark)| {
            latency.sort_unstable();
            Slice {
                exported,
                latency,
                mark,
            }
        })
        .collect();
    Outcome {
        setup_ns,
        exported: exporter.measured,
        slices,
        late: done.late,
        submit: done.submit,
        batches: exporter.batches,
        exported_all: exporter.count,
        report,
        attempted: submitted,
        failed,
        problems,
        places: vec![done.place, exporter.place],
    }
}
