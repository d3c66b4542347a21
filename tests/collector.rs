//! Collector pipeline semantics end to end: conservation under
//! oversubscription, load shedding, fault injection (FailEvery /
//! StallFor), retry exhaustion and the overflow drop policy, deadline
//! flushes, and the refcount-ripple shutdown drain.

use std::sync::Arc;
use std::time::Duration;

use collector::{
    Collector, CollectorConfig, FailEvery, NoFaults, RetryPolicy, ShedPolicy, Span, SpanSender,
    StallFor, VecExporter,
};

fn oversubscribed(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(n)
}

/// Spawns `producers` threads each submitting `per` spans through clones
/// of `tx` (the template is consumed so the close ripple is the caller's
/// `shutdown`); returns total spans offered.
fn flood(tx: SpanSender, producers: usize, per: u64) -> u64 {
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let seq = p as u64 * per + i;
                    tx.submit(Span::new(seq, seq));
                }
                per
            })
        })
        .collect();
    drop(tx);
    threads.into_iter().map(|t| t.join().unwrap()).sum()
}

#[test]
fn conservation_at_4x_oversubscription() {
    let producers = oversubscribed(8);
    let cfg = CollectorConfig {
        shards: 4,
        producers,
        workers: 2,
        shed: ShedPolicy::Block, // no shedding: every span must come out
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let submitted = flood(tx, producers, 5_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted, submitted, "Block policy never sheds");
    assert_eq!(m.exported, submitted);
    assert_eq!(m.dropped, 0);
    assert_eq!(m.inflight(), 0);
    assert!(m.conserved(), "count+checksum identity: {m:?}");
    // The exporter's contents are the accepted set, exactly once each.
    let mut ids: Vec<u64> = exporter.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..submitted).collect::<Vec<_>>());
}

#[test]
fn shed_policy_counts_refusals_and_conserves_the_rest() {
    // Tiny lanes + a periodically stalling exporter: backpressure reaches
    // the ingest edge and try_send starts refusing. Shed spans are
    // counted, accepted spans still all come out.
    let cfg = CollectorConfig {
        shards: 2,
        lane_order: 3,
        producers: 4,
        workers: 1,
        batch_max: 8,
        export_order: 2,
        shed: ShedPolicy::Shed,
        ..CollectorConfig::default()
    };
    let faults = Arc::new(StallFor::new(2, Duration::from_millis(2)));
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), faults);
    let submitted = flood(tx, 4, 20_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.accepted + m.shed, submitted, "every offer is accounted");
    assert!(m.shed > 0, "tiny lanes under a stalling exporter must shed");
    assert_eq!(m.exported, m.accepted, "accepted spans are never lost");
    assert!(m.conserved());
    assert_eq!(exporter.spans.len() as u64, m.exported);
}

#[test]
fn fail_every_faults_cause_zero_loss_when_retries_cover_them() {
    // FailEvery(2) against a 3-attempt budget: every batch's first or
    // second retry lands. No span may be dropped.
    let cfg = CollectorConfig {
        shards: 2,
        producers: 2,
        workers: 1,
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        },
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(FailEvery::new(2)));
    let submitted = flood(tx, 2, 10_000);
    let (report, _) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.exported, submitted, "retries must absorb every fault");
    assert_eq!(m.dropped, 0);
    assert!(m.export_failures > 0, "the profile did inject faults");
    assert_eq!(m.retries, m.export_failures, "every failure was retried");
    assert!(m.conserved());
}

#[test]
fn retry_exhaustion_invokes_drop_policy_and_stays_accounted() {
    // FailEvery(1) fails every attempt: all batches exhaust the budget
    // and take the overflow path. Nothing exports, nothing leaks.
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        shed: ShedPolicy::Block,
        retry: RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        },
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(FailEvery::new(1)));
    let submitted = flood(tx, 1, 1_000);
    let (report, exporter) = col.shutdown();
    let m = &report.metrics;
    assert_eq!(m.exported, 0);
    assert_eq!(m.dropped, submitted, "dropped, not lost");
    assert!(m.conserved(), "dropped checksum must balance accepted");
    assert!(exporter.spans.is_empty());
    // 2 attempts per batch, 1 retry between them.
    assert_eq!(m.export_failures, 2 * m.flushes);
    assert_eq!(m.retries, m.flushes);
}

#[test]
fn deadline_flush_ships_a_partial_batch() {
    // Three spans against batch_max 128: only the flush deadline can ship
    // them before shutdown; verify it does, promptly.
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        flush_after: Duration::from_millis(5),
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let mut tx = tx;
    for i in 0..3 {
        assert!(tx.submit(Span::new(0, i)));
    }
    // Poll the live snapshot rather than sleeping a fixed guess.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while col.snapshot().exported < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "deadline flush never shipped the partial batch: {:?}",
            col.snapshot()
        );
        std::thread::yield_now();
    }
    assert!(col.snapshot().deadline_flushes >= 1);
    drop(tx);
    let (report, exporter) = col.shutdown();
    assert_eq!(report.metrics.exported, 3);
    assert!(report.metrics.conserved());
    assert_eq!(exporter.spans.len(), 3);
}

#[test]
fn shutdown_drains_buffered_spans_without_waiting_for_the_deadline() {
    // An hour-long flush deadline: only the shutdown drain can ship the
    // partial batch. Submit, ripple, join — everything must come out.
    let cfg = CollectorConfig {
        shards: 2,
        producers: 1,
        workers: 2,
        flush_after: Duration::from_secs(3_600),
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let mut tx = tx;
    for i in 0..37 {
        assert!(tx.submit(Span::new(i, i)));
    }
    drop(tx);
    let (report, exporter) = col.shutdown();
    assert_eq!(report.metrics.exported, 37);
    assert_eq!(report.metrics.inflight(), 0);
    assert!(report.metrics.conserved());
    let mut ids: Vec<u64> = exporter.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..37).collect::<Vec<_>>());
}

#[test]
fn flush_latency_report_is_populated() {
    let cfg = CollectorConfig {
        shards: 1,
        producers: 1,
        workers: 1,
        shed: ShedPolicy::Block,
        ..CollectorConfig::default()
    };
    let (col, tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
    let submitted = flood(tx, 1, 4_000);
    let (report, _) = col.shutdown();
    assert_eq!(report.metrics.exported, submitted);
    let l = &report.flush_latency;
    assert!(l.n > 0, "at least one batch latency sample");
    assert!(l.p50_ns <= l.p99_ns && l.p99_ns <= l.max_ns);
}

/// Spawn → submit → drop the sender → `shutdown`, over and over, on the
/// 2-shard, 1-worker shape the benchmark runs. Every cycle races the
/// last sender's close against the worker's multi-lane wait; a wait that
/// missed the close would hang `shutdown` (CI runs this under `timeout`).
/// A smoke check: the deterministic pins of that race are DST model 10
/// and `recv_any_close_race_minimized_schedule`.
#[test]
fn shutdown_stress_cycles() {
    const CYCLES: u64 = 2000;
    for cycle in 0..CYCLES {
        let cfg = CollectorConfig {
            shards: 2,
            producers: 1,
            workers: 1,
            ..CollectorConfig::default()
        };
        let (col, mut tx) = Collector::spawn(cfg, VecExporter::default(), Arc::new(NoFaults));
        let spans = cycle % 3; // zero, one or two spans in flight at close
        for i in 0..spans {
            assert!(tx.submit(Span::new(i, i)), "lanes have room");
        }
        drop(tx);
        let (report, exporter) = col.shutdown();
        let m = &report.metrics;
        assert_eq!(m.accepted, spans, "cycle {cycle}");
        assert_eq!(exporter.spans.len() as u64, spans, "cycle {cycle}");
        assert!(m.conserved(), "cycle {cycle}: {m:?}");
    }
}
