//! The wCQ suite's benchmark of record.
//!
//! ```text
//! perfbench --workload mpmc|stream|collector --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! ```
//!
//! `--trace 0` measures the workload with tracing off and reports its
//! end-to-end metrics. `--trace 1` runs the per-layer suite instead: the
//! layer ladders, per-call samples, the collector stages and the park/wake
//! probe, with spans recorded around each call into a layer, and the
//! tracing overhead on this workload. Human-readable lines (host, thread
//! placement, each metric with its unit and sample count) come first; the
//! last line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A watchdog turns a run that does not finish into a reported
//! failure.

mod coll;
mod mpmc;
mod slices;
mod stats;
mod stream;
mod sys;
mod trace;
mod wake;

use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stats::{quantile_sorted, TickHist};
use sys::{Place, TickClock};
use trace::Trace;

#[global_allocator]
static ALLOC: harness::alloc::CountingAlloc = harness::alloc::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median and the last one
/// is measured.
const SETUP_REPS: usize = 9;
/// A collector set-up takes about a millisecond, and single set-ups vary
/// several-fold with host scheduling, so it is repeated more often.
const COLLECTOR_SETUP_REPS: usize = 41;
/// The untraced window is measured in this many slices.
const SLICES: usize = 20;
/// Ladder rungs run in this many alternating rounds.
const LADDER_ROUNDS: usize = 3;
/// Each run first drives its workload untimed for this long: figures
/// measured in a process's first seconds read slower on shared hosts.
const PREHEAT: Duration = Duration::from_secs(3);
/// Per-call sampling in untraced runs: one call in 64 is timed.
const SAMPLED: mpmc::Timing = mpmc::Timing {
    sample_mask: Some(63),
    span_mask: None,
};
/// Traced phases time every call and keep a span for one in 4096.
const TRACED: mpmc::Timing = mpmc::Timing {
    sample_mask: Some(0),
    span_mask: Some(4095),
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Mpmc,
    Stream,
    Collector,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Mpmc => "mpmc",
            Workload::Stream => "stream",
            Workload::Collector => "collector",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match val.as_str() {
                    "mpmc" => Workload::Mpmc,
                    "stream" => Workload::Stream,
                    "collector" => Workload::Collector,
                    _ => return Err(format!("unknown workload {val}")),
                })
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// The step in progress, named in the watchdog's report.
static STEP: Mutex<&str> = Mutex::new("start");

fn step(name: &'static str) {
    *STEP.lock().expect("step lock poisoned") = name;
}

/// Metrics, checks and human-readable lines of one run.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<u64>) {
        let n = samples.map_or(String::new(), |n| format!(" n={n}"));
        self.lines.push(format!("metric {name} {value} {unit}{n}"));
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, attempted: u64, failed: u64, problems: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for p in problems {
            self.lines.push(format!("FAILED {p}"));
        }
    }

    fn places(&mut self, places: &[Place]) {
        for p in places {
            self.lines.push(p.describe());
        }
    }
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Items per microsecond = millions per second.
fn mops(items: u64, ns: u64) -> f64 {
    items as f64 * 1e3 / ns.max(1) as f64
}

fn host_line(args: &Args, cpus: &[usize]) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_list: Vec<String> = cpus.iter().map(|c| c.to_string()).collect();
    format!(
        "host {{\"cpu_model\": \"{}\", \"cores\": {cores}, \"allowed_cpus\": [{}], \"kernel\": \"{}\", \"dwcas_backend\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        model.replace('"', "'"),
        cpu_list.join(", "),
        kernel.trim().replace('"', "'"),
        dwcas::BACKEND,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let clock = TickClock::start();
    let cpus = sys::allowed_cpus();
    println!("{}", host_line(&args, &cpus));

    // The watchdog: a run that has not finished by the deadline is
    // reported as a failure, naming the step it stalled in.
    let deadline = Duration::from_secs((2 * args.seconds + 60).min(170));
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (name, seed) = (args.workload.name(), args.seed);
    let watchdog = std::thread::spawn(move || {
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(deadline) {
            let at = *STEP.lock().unwrap_or_else(|e| e.into_inner());
            println!(
                "FAILED watchdog: workload={name} seed={seed} did not finish within {} s; stalled in step {at}",
                deadline.as_secs()
            );
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(0);
        }
    });

    let mut report = Report {
        metrics: Vec::new(),
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let window = Duration::from_secs(args.seconds);
    if args.trace {
        traced(&args, &cpus, window, &clock, &mut report);
    } else {
        untraced(&args, &cpus, window, &clock, &mut report);
    }
    let _ = done_tx.send(());
    watchdog.join().expect("watchdog thread panicked");

    for l in &report.lines {
        println!("{l}");
    }
    let correct = report.failed == 0 && report.metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// Per-call percentiles, in ns, from a tick histogram.
fn pct_ns(h: &TickHist, q: f64, ns_per_tick: f64) -> f64 {
    h.quantile(q) as f64 * ns_per_tick
}

/// One slice's end-to-end figures.
struct Row {
    mops: f64,
    p50_us: f64,
    cpu_ns_per_item: f64,
    heap_mib: f64,
}

/// Reports the median over slices of each end-to-end figure; for the heap,
/// the lowest slice high-water mark, which a stall that piles up work in
/// one slice does not move but growth or per-operation allocation does.
fn report_rows(r: &mut Report, rows: &[Row], items: u64, samples: u64) {
    let k = rows.len();
    r.lines.push(format!(
        "window: {k} slices, {items} items, {samples} latency samples"
    ));
    let col = |f: &dyn Fn(&Row) -> f64| {
        let mut v: Vec<f64> = rows.iter().map(f).collect();
        let m = slices::median(&mut v);
        (m, v[0], v[v.len() - 1])
    };
    let mut metric = |name: &str, (m, lo, hi): (f64, f64, f64), unit, n| {
        r.lines.push(format!("slices {name} min {lo} max {hi}"));
        r.metric(name, m, unit, n);
    };
    metric("throughput_mops", col(&|x| x.mops), "Mops/s", Some(items));
    metric("latency_p50_us", col(&|x| x.p50_us), "us", Some(samples));
    metric(
        "cpu_ns_per_item",
        col(&|x| x.cpu_ns_per_item),
        "ns",
        Some(items),
    );
    let heap = col(&|x| x.heap_mib);
    metric(
        "peak_heap_mib",
        (heap.1, heap.1, heap.2),
        "MiB",
        Some(k as u64),
    );
}

/// What every workload's outcome reports to the set-up loop.
trait Checked {
    fn setup_ns(&self) -> u64;
    fn checks(&self) -> (u64, u64, &[String]);
}

impl Checked for mpmc::Outcome {
    fn setup_ns(&self) -> u64 {
        self.setup_ns
    }
    fn checks(&self) -> (u64, u64, &[String]) {
        (self.attempted, self.failed, &self.problems)
    }
}

impl Checked for stream::Outcome {
    fn setup_ns(&self) -> u64 {
        self.setup_ns
    }
    fn checks(&self) -> (u64, u64, &[String]) {
        (self.attempted, self.failed, &self.problems)
    }
}

impl Checked for coll::Outcome {
    fn setup_ns(&self) -> u64 {
        self.setup_ns
    }
    fn checks(&self) -> (u64, u64, &[String]) {
        (self.attempted, self.failed, &self.problems)
    }
}

/// Pre-heats, then sets the workload up `reps` times and measures the
/// last one. Every rep's output is checked; `setup_s` is the median set-up
/// time over the reps after the pre-heat.
fn measure<O: Checked>(
    r: &mut Report,
    window: Duration,
    reps: usize,
    mut run: impl FnMut(Duration) -> O,
) -> O {
    let pre = run(PREHEAT);
    let (a, f, p) = pre.checks();
    r.check(a, f, p);
    let mut setups = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let o = run(if rep + 1 == reps {
            window
        } else {
            Duration::ZERO
        });
        let (a, f, p) = o.checks();
        r.check(a, f, p);
        setups.push(o.setup_ns() as f64 / 1e9);
        last = Some(o);
    }
    let m = slices::median(&mut setups);
    r.lines.push(format!(
        "setups setup_s min {} max {}",
        setups[0],
        setups[setups.len() - 1]
    ));
    r.metric("setup_s", m, "s", Some(reps as u64));
    last.expect("reps is at least 1")
}

/// The end-to-end run, tracing off.
fn untraced(args: &Args, cpus: &[usize], window: Duration, clock: &TickClock, r: &mut Report) {
    let npt = || clock.ns_per_tick();
    let (rows, items, samples) = match args.workload {
        Workload::Mpmc => {
            let mut o = measure(r, window, SETUP_REPS, |w| {
                step("mpmc.channel");
                mpmc::run(
                    mpmc::Rung::Channel,
                    &mpmc::Opts {
                        seed: args.seed,
                        window: w,
                        slices: SLICES,
                        cpus,
                        timing: SAMPLED,
                        trace: None,
                    },
                )
            });
            r.places(&o.places);
            let npt = npt();
            let (mut items, mut samples) = (0, 0);
            let rows: Vec<Row> = o
                .slices
                .iter_mut()
                .map(|sl| {
                    sl.send.merge(&sl.recv);
                    items += sl.ops;
                    samples += sl.send.n();
                    Row {
                        mops: mops(sl.ops, sl.mark.ns),
                        p50_us: pct_ns(&sl.send, 0.50, npt) / 1e3,
                        cpu_ns_per_item: sl.mark.cpu_ns as f64 / sl.ops.max(1) as f64,
                        heap_mib: mib(sl.mark.peak_heap),
                    }
                })
                .collect();
            (rows, items, samples)
        }
        Workload::Stream => {
            let mut o = measure(r, window, SETUP_REPS, |w| {
                step("stream.channel");
                stream::run(
                    stream::Rung::Channel,
                    &stream::Opts {
                        seed: args.seed,
                        window: w,
                        slices: SLICES,
                        cpus,
                        timing: mpmc::UNTIMED,
                        trace: None,
                    },
                )
            });
            r.places(&o.places);
            let npt = npt();
            let (mut items, mut samples) = (0, 0);
            let rows: Vec<Row> = o
                .slices
                .iter_mut()
                .map(|sl| {
                    items += sl.items;
                    samples += sl.handoff.n();
                    Row {
                        mops: mops(sl.items, sl.mark.ns),
                        p50_us: pct_ns(&sl.handoff, 0.50, npt) / 1e3,
                        cpu_ns_per_item: sl.mark.cpu_ns as f64 / sl.items.max(1) as f64,
                        heap_mib: mib(sl.mark.peak_heap),
                    }
                })
                .collect();
            (rows, items, samples)
        }
        Workload::Collector => {
            let o = measure(r, window, COLLECTOR_SETUP_REPS, |w| {
                coll::run(&coll::Opts {
                    seed: args.seed,
                    window: w,
                    slices: SLICES,
                    cpus,
                    timing: mpmc::UNTIMED,
                    trace: None,
                    step: &step,
                })
            });
            r.places(&o.places);
            let rows: Vec<Row> = o
                .slices
                .iter()
                .map(|sl| Row {
                    mops: mops(sl.exported, sl.mark.ns),
                    p50_us: quantile_sorted(&sl.latency, 0.50) as f64 / 1e3,
                    cpu_ns_per_item: sl.mark.cpu_ns as f64 / sl.exported.max(1) as f64,
                    heap_mib: mib(sl.mark.peak_heap),
                })
                .collect();
            let n = o.slices.iter().map(|sl| sl.latency.len() as u64).sum();
            (rows, o.exported, n)
        }
    };
    report_rows(r, &rows, items, samples);
    let rate = r.failed as f64 / r.attempted.max(1) as f64;
    r.lines.push(format!(
        "error_rate {rate} ({} failed of {} attempted)",
        r.failed, r.attempted
    ));
}

/// The per-layer suite. Every phase gets a share of `window`.
fn traced(args: &Args, cpus: &[usize], window: Duration, clock: &TickClock, r: &mut Report) {
    let trace = Arc::new(Trace::new());
    let root = trace.new_id();
    let root_start = sys::ticks();
    let rung_window = window.mul_f64(0.08);
    let coll_window = window.mul_f64(0.12);
    let t_run = Instant::now();
    step("preheat");
    let pre = mpmc::run(
        mpmc::Rung::Channel,
        &mpmc::Opts {
            seed: args.seed,
            window: PREHEAT,
            slices: 1,
            cpus,
            timing: mpmc::UNTIMED,
            trace: None,
        },
    );
    r.check(pre.attempted, pre.failed, &pre.problems);

    // mpmc ladder: the same seeded mix on each rung, untimed. Rounds
    // alternate the rungs, so a drift of the host between phases does not
    // land on one rung; each rung reports its median round.
    let rungs = [
        mpmc::Rung::Ring,
        mpmc::Rung::Queue,
        mpmc::Rung::Channel,
        mpmc::Rung::Scq,
    ];
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let mut ops = vec![0u64; rungs.len()];
    for round in 0..LADDER_ROUNDS {
        for (i, &rung) in rungs.iter().enumerate() {
            step(rung.layer());
            let o = mpmc::run(
                rung,
                &mpmc::Opts {
                    seed: args.seed,
                    window: rung_window / LADDER_ROUNDS as u32,
                    slices: 1,
                    cpus,
                    timing: mpmc::UNTIMED,
                    trace: Some((&*trace, root)),
                },
            );
            r.check(o.attempted, o.failed, &o.problems);
            if round == 0 {
                r.places(&o.places);
            }
            let t = o.total();
            ops[i] += t.ops;
            rounds[i].push((mpmc::THREADS as u64 * t.mark.ns) as f64 / t.ops.max(1) as f64);
        }
    }
    let med: Vec<f64> = rounds.iter_mut().map(|v| slices::median(v)).collect();
    for (i, rung) in rungs.iter().enumerate() {
        r.metric(
            &format!("{}.ns_per_op", rung.layer()),
            med[i],
            "ns",
            Some(ops[i]),
        );
    }
    let (ring, queue, chan) = (med[0], med[1], med[2]);
    r.metric(
        "ladder.mpmc.channel_minus_wcq_queue_ns",
        chan - queue,
        "ns",
        None,
    );
    r.metric(
        "ladder.mpmc.wcq_queue_minus_wcq_ring_ns",
        queue - ring,
        "ns",
        None,
    );
    let mpmc_untraced = mpmc::THREADS as f64 * 1e3 / chan;

    // mpmc with every call timed: per-call samples and the traced rate.
    step("mpmc.traced");
    let o = mpmc::run(
        mpmc::Rung::Channel,
        &mpmc::Opts {
            seed: args.seed,
            window: rung_window,
            slices: 1,
            cpus,
            timing: TRACED,
            trace: Some((&*trace, root)),
        },
    );
    r.check(o.attempted, o.failed, &o.problems);
    let o = o.total();
    let npt = clock.ns_per_tick();
    let (ns, nr) = (o.send.n(), o.recv.n());
    let mut calls = TickHist::new();
    calls.merge(&o.send);
    calls.merge(&o.recv);
    let mpmc_p99 = (pct_ns(&calls, 0.99, npt) / 1e3, ns + nr);
    r.metric(
        "channel.try_send.p50_ns",
        pct_ns(&o.send, 0.50, npt),
        "ns",
        Some(ns),
    );
    r.metric(
        "channel.try_send.p99_ns",
        pct_ns(&o.send, 0.99, npt),
        "ns",
        Some(ns),
    );
    r.metric(
        "channel.try_recv.p50_ns",
        pct_ns(&o.recv, 0.50, npt),
        "ns",
        Some(nr),
    );
    r.metric(
        "channel.try_recv.p99_ns",
        pct_ns(&o.recv, 0.99, npt),
        "ns",
        Some(nr),
    );
    r.metric(
        "channel.try_send.full_ratio",
        o.full as f64 / ns.max(1) as f64,
        "ratio",
        Some(ns),
    );
    r.metric(
        "channel.try_recv.empty_ratio",
        o.empty as f64 / nr.max(1) as f64,
        "ratio",
        Some(nr),
    );
    let mpmc_traced = mops(o.ops, o.mark.ns);

    // stream ladder: raw spsc ring, then the channel facade, alternating
    // as above.
    let stream_rung = |rung: stream::Rung, timing, window, r: &mut Report| {
        step(rung.phase_name());
        let o = stream::run(
            rung,
            &stream::Opts {
                seed: args.seed,
                window,
                slices: 1,
                cpus,
                timing,
                trace: Some((&*trace, root)),
            },
        );
        r.check(o.attempted, o.failed, &o.problems);
        o
    };
    let srungs = [stream::Rung::Spsc, stream::Rung::Channel];
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); srungs.len()];
    let mut items = vec![0u64; srungs.len()];
    let (mut recv_items, mut recv_calls) = (0u64, 0u64);
    let mut handoff = TickHist::new();
    for round in 0..LADDER_ROUNDS {
        for (i, &rung) in srungs.iter().enumerate() {
            let o = stream_rung(rung, mpmc::UNTIMED, rung_window / LADDER_ROUNDS as u32, r);
            if round == 0 {
                r.places(&o.places);
            }
            let t = o.total();
            items[i] += t.items;
            rounds[i].push(t.mark.ns as f64 / t.items.max(1) as f64);
            if rung == stream::Rung::Channel {
                recv_items += o.recv_items;
                recv_calls += o.recv_calls;
                handoff.merge(&t.handoff);
            }
        }
    }
    let spsc_ns = slices::median(&mut rounds[0]);
    let chan_ns = slices::median(&mut rounds[1]);
    r.metric("spsc.ns_per_item", spsc_ns, "ns", Some(items[0]));
    r.metric("channel.ns_per_item", chan_ns, "ns", Some(items[1]));
    r.metric(
        "channel.recv_batch.mean_items",
        recv_items as f64 / recv_calls.max(1) as f64,
        "items",
        Some(recv_calls),
    );
    r.metric(
        "ladder.stream.channel_minus_spsc_ns",
        chan_ns - spsc_ns,
        "ns",
        None,
    );
    let stream_untraced = 1e3 / chan_ns;
    let stream_p99 = (pct_ns(&handoff, 0.99, npt) / 1e3, handoff.n());
    let st = stream_rung(stream::Rung::Channel, TRACED, rung_window, r);
    r.places(&st.places);
    let st = st.total();
    let n = st.send.n();
    r.metric(
        "stream.try_send.p50_ns",
        pct_ns(&st.send, 0.50, npt),
        "ns",
        Some(n),
    );
    r.metric(
        "stream.try_send.p99_ns",
        pct_ns(&st.send, 0.99, npt),
        "ns",
        Some(n),
    );
    r.metric(
        "stream.try_send.full_ratio",
        st.full as f64 / st.send_calls.max(1) as f64,
        "ratio",
        Some(st.send_calls),
    );
    let stream_traced = mops(st.items, st.mark.ns);

    // collector: an untraced and a traced run of the open loop.
    let coll_run = |timing, traced: bool, r: &mut Report| {
        let o = coll::run(&coll::Opts {
            seed: args.seed,
            window: coll_window,
            slices: 1,
            cpus,
            timing,
            trace: traced.then_some((&trace, root)),
            step: &step,
        });
        r.check(o.attempted, o.failed, &o.problems);
        r.places(&o.places);
        o
    };
    let cu = coll_run(mpmc::UNTIMED, false, r);
    let cpu_ns = |o: &coll::Outcome| o.slices.iter().map(|sl| sl.mark.cpu_ns).sum::<u64>() as f64;
    let coll_untraced = cpu_ns(&cu) / cu.exported.max(1) as f64;
    let late_n = cu.late.n();
    let coll_p99 = {
        let mut lat: Vec<u32> = cu
            .slices
            .iter()
            .flat_map(|sl| sl.latency.iter().copied())
            .collect();
        lat.sort_unstable();
        (quantile_sorted(&lat, 0.99) as f64 / 1e3, lat.len() as u64)
    };
    r.metric(
        "gen.late_p99_us",
        cu.late.quantile(0.99) as f64 / 1e3,
        "us",
        Some(late_n),
    );
    let ct = coll_run(TRACED, true, r);
    let coll_traced = cpu_ns(&ct) / ct.exported.max(1) as f64;
    let n = ct.submit.n();
    r.metric(
        "collector.submit.p50_ns",
        pct_ns(&ct.submit, 0.50, npt),
        "ns",
        Some(n),
    );
    r.metric(
        "collector.submit.p99_ns",
        pct_ns(&ct.submit, 0.99, npt),
        "ns",
        Some(n),
    );
    r.metric(
        "collector.export.mean_batch",
        ct.exported_all as f64 / ct.batches.max(1) as f64,
        "spans",
        Some(ct.batches),
    );
    let (m, fl) = (&ct.report.metrics, &ct.report.flush_latency);
    let fl_n = Some(fl.n as u64);
    r.metric("collector.flush.p50_us", fl.p50_ns as f64 / 1e3, "us", fl_n);
    r.metric("collector.flush.p99_us", fl.p99_ns as f64 / 1e3, "us", fl_n);
    r.metric(
        "collector.deadline_flush_ratio",
        m.deadline_flushes as f64 / m.flushes.max(1) as f64,
        "ratio",
        Some(m.flushes),
    );
    r.metric(
        "collector.shed",
        (m.shed + cu.report.metrics.shed) as f64,
        "spans",
        None,
    );
    r.metric(
        "collector.dropped",
        (m.dropped + cu.report.metrics.dropped) as f64,
        "spans",
        None,
    );

    // sync: park/wake across cores.
    step("sync.wake");
    let w = wake::run(cpus);
    r.check(w.attempted, w.failed, &[]);
    r.places(&w.places);
    let n = w.wake.n();
    r.metric(
        "sync.wake.p50_us",
        pct_ns(&w.wake, 0.50, npt) / 1e3,
        "us",
        Some(n),
    );
    r.metric(
        "sync.wake.p99_us",
        pct_ns(&w.wake, 0.99, npt) / 1e3,
        "us",
        Some(n),
    );

    // The tail latency of this run's workload, as the untraced run defines
    // it: too sensitive to host scheduling noise for an end-to-end bound.
    let (p99, n) = match args.workload {
        Workload::Mpmc => mpmc_p99,
        Workload::Stream => stream_p99,
        Workload::Collector => coll_p99,
    };
    r.metric("latency_p99_us", p99, "us", Some(n));

    // Tracing overhead on this run's workload: traced cost over untraced.
    let overhead = match args.workload {
        Workload::Mpmc => mpmc_untraced / mpmc_traced,
        Workload::Stream => stream_untraced / stream_traced,
        Workload::Collector => coll_traced / coll_untraced,
    };
    r.metric("trace.overhead_ratio", overhead, "ratio", None);

    trace.span("run", root, 0, root_start, sys::ticks());
    let path = args.trace_out.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "perfbench/out/trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ))
    });
    match trace.write(&path, clock.tick0(), clock.ns_per_tick()) {
        Ok(()) => r.lines.push(format!(
            "trace {} spans ({} dropped) written to {} in {:.1} s",
            trace.len(),
            trace.dropped(),
            path.display(),
            t_run.elapsed().as_secs_f64()
        )),
        Err(e) => r
            .lines
            .push(format!("trace not written to {}: {e}", path.display())),
    }
    let rate = r.failed as f64 / r.attempted.max(1) as f64;
    r.lines.push(format!(
        "error_rate {rate} ({} failed of {} attempted)",
        r.failed, r.attempted
    ));
}
