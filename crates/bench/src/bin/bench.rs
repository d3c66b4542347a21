//! Cross-PR throughput snapshot:
//! `bench [--json] [--out PATH] [--compare BASELINE.json]`.
//!
//! Runs a fixed matrix of channel-level rows — the wait-free wCQ channel
//! and the topology-declared SPSC/MPSC backends — through three workloads
//! and reports Mops/s, plus the p99 notify→wake latency of a parked
//! `recv` (`wakeup_p99_ns`, schema v2) and the span-collector pipeline's
//! end-to-end sustained rate and flush-latency p99 (`collector_*`, schema
//! v3). `--json` additionally writes the machine-readable snapshot
//! (default `BENCH_9.json`) so the throughput trajectory can be compared
//! across PRs; the schema is documented in the top-level README.
//! `--compare` rereads a prior snapshot and exits nonzero if any row
//! shared with the baseline regressed by more than 25% Mops/s.
//!
//! Workloads (all single-thread, the honest shape on small CI boxes; see
//! `figure_topology` for why):
//! * `pairwise` — alternate `try_send`/`try_recv`, occupancy 0↔1.
//! * `burst64`  — 64 sends then 64 recvs per iteration (deeper occupancy,
//!   exercises index-cache refreshes).
//! * `batch64`  — `send_batch`/`recv_batch` of 64 (reservation path).
//!
//! Knobs: `WCQ_BENCH_OPS` / `WCQ_BENCH_REPS` as for the figure binaries.

use std::fmt::Write as _;
use std::time::Instant;

use bench::{print_env_banner, BenchOpts, LADDER_X86};
use harness::stats::Stats;
use wcq::channel::{self, Receiver, Sender};

const RING_ORDER: u32 = 12;
const SPINE_THREADS: usize = 4;
const BURST: usize = 64;

/// One measured cell of the matrix.
struct Row {
    queue: &'static str,
    workload: &'static str,
    stats: Stats,
}

fn timed(iters: u64, ops_per_iter: u64, mut step: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        step(i);
    }
    (iters * ops_per_iter) as f64 / t0.elapsed().as_secs_f64() / 1e6
}

fn stats(reps: usize, mut rep: impl FnMut() -> f64) -> Stats {
    let samples: Vec<f64> = (0..reps).map(|_| rep()).collect();
    Stats::from_samples(&samples)
}

fn pairwise(tx: &mut Sender<u64>, rx: &mut Receiver<u64>, iters: u64) -> f64 {
    timed(iters, 2, |i| {
        tx.try_send(i).expect("never full at occupancy 1");
        assert_eq!(rx.try_recv().ok(), Some(i));
    })
}

fn burst(tx: &mut Sender<u64>, rx: &mut Receiver<u64>, iters: u64) -> f64 {
    timed(iters / BURST as u64, 2 * BURST as u64, |i| {
        for j in 0..BURST as u64 {
            tx.try_send(i * BURST as u64 + j).expect("burst fits the ring");
        }
        for j in 0..BURST as u64 {
            assert_eq!(rx.try_recv().ok(), Some(i * BURST as u64 + j));
        }
    })
}

fn batch(tx: &mut Sender<u64>, rx: &mut Receiver<u64>, iters: u64) -> f64 {
    let mut inbox = Vec::with_capacity(BURST);
    let mut outbox = Vec::with_capacity(BURST);
    timed(iters / BURST as u64, 2 * BURST as u64, |i| {
        inbox.extend((0..BURST as u64).map(|j| i * BURST as u64 + j));
        assert_eq!(tx.send_batch(&mut inbox), BURST);
        outbox.clear();
        assert_eq!(rx.recv_batch(&mut outbox, BURST), BURST);
    })
}

/// One single-pair workload: drive `iters` ops through the endpoints,
/// return Mops/s.
type Workload = fn(&mut Sender<u64>, &mut Receiver<u64>, u64) -> f64;

/// Runs the three workloads for one channel constructor.
fn matrix(
    queue: &'static str,
    opts: &BenchOpts,
    mk: impl Fn() -> (Sender<u64>, Receiver<u64>),
    out: &mut Vec<Row>,
) {
    let workloads: [(&'static str, Workload); 3] =
        [("pairwise", pairwise), ("burst64", burst), ("batch64", batch)];
    for (workload, run) in workloads {
        let st = stats(opts.reps, || {
            let (mut tx, mut rx) = mk();
            run(&mut tx, &mut rx, opts.ops)
        });
        eprintln!("  {queue:<12} {workload:<9} {:>9.2} Mops/s", st.mean);
        out.push(Row { queue, workload, stats: st });
    }
}

/// The span-collector pipeline row: end-to-end spans through the whole
/// service (sharded ingest → batcher → exporter) rather than a raw
/// channel pair. Uses the single-core-honest shape (1 worker, deep lanes,
/// big batches — see `figure_collector` for the oversubscription sweep)
/// and reports Mspans/s as a `Row` so `--compare` tracks it like any
/// queue, plus the flush-latency p99 for the JSON scalars.
fn collector_row(opts: &BenchOpts, out: &mut Vec<Row>) -> (f64, u64) {
    use collector::{run_soak, ShedPolicy, SoakCfg};
    let mut cfg = SoakCfg {
        producers: 2,
        rate: None,
        duration: std::time::Duration::from_millis(150),
        ..SoakCfg::default()
    };
    cfg.pipeline.shards = 2;
    cfg.pipeline.producers = 2;
    cfg.pipeline.workers = 1;
    cfg.pipeline.batch_max = 1024;
    cfg.pipeline.lane_order = 12;
    cfg.pipeline.shed = ShedPolicy::Shed;
    let mut p99 = 0u64;
    let st = stats(opts.reps.min(5), || {
        let r = run_soak(&cfg);
        assert!(r.conserved(), "collector bench run violated conservation");
        p99 = r.flush_latency.p99_ns;
        r.throughput() / 1e6
    });
    eprintln!("  {:<12} {:<9} {:>9.2} Mspans/s", "collector", "pipeline", st.mean);
    out.push(Row {
        queue: "collector",
        workload: "pipeline",
        stats: st,
    });
    (st.mean * 1e6, p99)
}

/// p99 of the notify→wake latency for a parked `recv`, in nanoseconds.
/// The consumer parks on the channel's not-empty eventcount; the producer
/// stamps a shared clock immediately before the send whose notify wakes
/// it; the consumer reads the clock the moment `recv` returns. The 200µs
/// pre-send sleep is far beyond the listen→park window, so virtually
/// every sample measures a real futex/condvar wakeup, not a fast-path
/// poll.
fn wakeup_p99_ns(rounds: usize) -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let (mut tx, mut rx) = channel::bounded::<u64>(4, 2);
    let epoch = Instant::now();
    let stamp = Arc::new(AtomicU64::new(0));
    let s2 = stamp.clone();
    let consumer = std::thread::spawn(move || {
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            rx.recv().expect("producer still live");
            let now = epoch.elapsed().as_nanos() as u64;
            // ORDERING: latency-sample stamp read; pairs with the worker's
            // Release stamp store
            samples.push(now.saturating_sub(s2.load(Ordering::Acquire)));
        }
        samples
    });
    for i in 0..rounds {
        std::thread::sleep(std::time::Duration::from_micros(200));
        // ORDERING: latency-sample stamp publication to the sampling thread
        stamp.store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
        tx.send(i as u64).expect("receiver still live");
    }
    let mut samples = consumer.join().expect("consumer thread");
    samples.sort_unstable();
    samples[(samples.len() - 1).min(samples.len() * 99 / 100)]
}

/// Extracts `(queue, workload) → mops` from a snapshot previously written
/// by this tool (schema 1 or 2): a hand-rolled scan matching the
/// hand-rolled writer below, not a general JSON parser.
fn parse_rows(doc: &str) -> Vec<(String, String, f64)> {
    fn field_str(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let rest = &line[line.find(&pat)? + pat.len()..];
        Some(rest[..rest.find('"')?].to_string())
    }
    fn field_num(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let end = rest
            .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
    doc.lines()
        .filter_map(|l| Some((field_str(l, "queue")?, field_str(l, "workload")?, field_num(l, "mops")?)))
        .collect()
}

/// Rows regress when they fall below this fraction of the baseline.
const COMPARE_FLOOR: f64 = 0.75;

/// Prints the per-row comparison against `base`; `true` when any shared
/// row fell below [`COMPARE_FLOOR`] of its baseline Mops/s.
fn compare_regressed(rows: &[Row], base: &[(String, String, f64)], base_path: &str) -> bool {
    let mut failed = false;
    println!("\ncompare vs {base_path} (floor: {:.0}% of baseline):", COMPARE_FLOOR * 100.0);
    for r in rows {
        let Some((_, _, old)) = base
            .iter()
            .find(|(q, w, _)| q == r.queue && w == r.workload)
        else {
            continue;
        };
        let delta = (r.stats.mean / old - 1.0) * 100.0;
        let bad = r.stats.mean < old * COMPARE_FLOOR;
        failed |= bad;
        println!(
            "  {:<12} {:<9} {:>9.2} -> {:>9.2} Mops/s ({:>+6.1}%){}",
            r.queue,
            r.workload,
            old,
            r.stats.mean,
            delta,
            if bad { "  REGRESSION" } else { "" }
        );
    }
    failed
}

/// Hand-rolled JSON (the workspace deliberately vendors no serde): the
/// schema is flat enough that string assembly stays honest.
fn to_json(
    rows: &[Row],
    opts: &BenchOpts,
    wakeup_p99: u64,
    collector_sps: f64,
    collector_p99: u64,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": 3,");
    let _ = writeln!(s, "  \"pr\": 10,");
    let _ = writeln!(s, "  \"wakeup_p99_ns\": {wakeup_p99},");
    let _ = writeln!(s, "  \"collector_spans_per_sec\": {collector_sps:.0},");
    let _ = writeln!(s, "  \"collector_flush_p99_ns\": {collector_p99},");
    let _ = writeln!(s, "  \"dwcas_backend\": \"{}\",", dwcas::BACKEND);
    let _ = writeln!(
        s,
        "  \"cores\": {},",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let _ = writeln!(s, "  \"ops\": {},", opts.ops);
    let _ = writeln!(s, "  \"reps\": {},", opts.reps);
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"queue\": \"{}\", \"workload\": \"{}\", \"mops\": {:.4}, \"cov\": {:.4}}}",
            r.queue, r.workload, r.stats.mean, r.stats.cov
        );
        s.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let mut json = false;
    let mut out_path = String::from("BENCH_10.json");
    let mut compare: Option<String> = None;
    let mut args = std::env::args().skip(1);
    // BOUND(finite-iter): consumes the finite argv iterator. Cover: ci (bench
    // smoke).
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                });
            }
            "--compare" => {
                compare = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--compare requires a baseline snapshot path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (usage: bench [--json] [--out PATH] [--compare BASELINE.json])"
                );
                std::process::exit(2);
            }
        }
    }

    let opts = BenchOpts::from_env(LADDER_X86);
    print_env_banner("bench: cross-PR channel throughput snapshot");

    let mut rows = Vec::new();
    matrix("wcq-channel", &opts, || channel::bounded::<u64>(RING_ORDER, SPINE_THREADS), &mut rows);
    matrix("chan-spsc", &opts, || channel::spsc::<u64>(RING_ORDER, SPINE_THREADS), &mut rows);
    matrix(
        "chan-mpsc",
        &opts,
        || channel::mpsc::<u64>(RING_ORDER, 4, SPINE_THREADS),
        &mut rows,
    );

    let (collector_sps, collector_p99) = collector_row(&opts, &mut rows);
    let wakeup_p99 = wakeup_p99_ns(200);

    println!("\n{:<14}{:<11}{:>12}{:>10}", "queue", "workload", "Mops/s", "cov");
    for r in &rows {
        println!("{:<14}{:<11}{:>12.3}{:>10.4}", r.queue, r.workload, r.stats.mean, r.stats.cov);
    }
    println!("{:<25}{:>12} ns", "wakeup p99 (parked recv)", wakeup_p99);
    println!("{:<25}{:>12.0} spans/s", "collector sustained", collector_sps);
    println!("{:<25}{:>12} ns", "collector flush p99", collector_p99);

    if json {
        let doc = to_json(&rows, &opts, wakeup_p99, collector_sps, collector_p99);
        std::fs::write(&out_path, &doc).expect("write json snapshot");
        println!("\nwrote {out_path}");
    }

    if let Some(base_path) = compare {
        let doc = std::fs::read_to_string(&base_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {base_path}: {e}");
            std::process::exit(2);
        });
        if compare_regressed(&rows, &parse_rows(&doc), &base_path) {
            eprintln!("bench: Mops/s regression beyond 25% of baseline — failing");
            std::process::exit(1);
        }
    }
}
