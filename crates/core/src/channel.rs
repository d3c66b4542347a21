//! Owned, cloneable channel endpoints over the queue stack (DESIGN.md §10).
//!
//! The per-thread handles ([`crate::WcqHandle`] & co.) are deliberately
//! minimal: they borrow the queue, pin one thread record, and expose the
//! raw wait-free surface. That shape traps every consumer inside
//! `std::thread::scope`. This module is the production face of the stack —
//! `Arc`-owned queues behind cloneable [`Sender`]/[`Receiver`] endpoints
//! that move freely into `std::thread::spawn` closures and `'static`
//! futures, with two pieces of lifecycle automation the raw handles leave
//! to the caller:
//!
//! * **Lazy thread-slot acquisition.** Cloning an endpoint costs nothing:
//!   a clone holds no thread slot until its first operation, which
//!   registers an owned handle ([`crate::WcqQueue::register_owned`] & co.)
//!   cached inside the endpoint for its lifetime. Dropping the endpoint
//!   quiesces and releases the slot (the `Drop` protocol in
//!   `wcq/queue.rs`). At most `max_threads` endpoints can therefore be
//!   *operating* concurrently; an operation on an endpoint beyond that
//!   waits until another endpoint drops — see [`bounded`].
//! * **Refcount-driven close.** The channel counts live senders and
//!   receivers. When the last [`Sender`] drops, the queue closes:
//!   receivers drain the backlog and then see [`RecvError::Closed`]. When
//!   the last [`Receiver`] drops, senders see [`SendError::Closed`] (and
//!   [`TrySendError::Closed`]) — no element can be silently parked against
//!   a queue nobody will ever read. Explicit `close()` calls are never
//!   needed; pipelines shut down by dropping endpoints.
//!
//! Five constructors pick the backend; the endpoint types are identical:
//!
//! | Constructor | Backend | Full behavior |
//! |---|---|---|
//! | [`bounded`] | [`crate::WcqQueue`] (wait-free, bounded) | `send` parks / `try_send` returns [`TrySendError::Full`] |
//! | [`sharded`] | [`crate::ShardedWcq`] (per-shard FIFO) | as above, per affinity shard |
//! | [`unbounded`] | [`crate::UnboundedWcq`] (list of rings) | `send` never blocks on capacity |
//! | [`spsc`] | [`crate::spsc::Ring`] + wCQ spine ([`crate::topology`]) | as [`bounded`]; load/store fast path |
//! | [`mpsc`] | per-sender [`crate::spsc::Ring`]s + wCQ spine | as [`bounded`], per sender ring |
//!
//! The topology-declared constructors ([`spsc`], [`mpsc`]) are not a
//! different contract — they are the same channel running on private SPSC
//! rings while the usage matches the declaration. The first operating
//! sender beyond the declaration grafts a wait-free [`crate::WcqQueue`]
//! spine on as an overflow lane: excess endpoints run on it, seated ones
//! keep their rings, and no element is ever lost or moved between lanes.
//! See [`crate::topology`] for the protocol (including the visibility
//! caveat for receivers beyond the declaration), and
//! [`Sender::backend`]/[`Receiver::backend`] to observe which engine is
//! serving.
//!
//! Every endpoint forwards the full facade surface: spinning `try_*`,
//! parking `send`/`recv`, deadline variants, `Future`-returning
//! `send_async`/`recv_async`, and the batch operations.
//!
//! # Example
//!
//! ```
//! use wcq::channel;
//!
//! let (tx, mut rx) = channel::bounded::<u64>(6, 4);
//! let producers: Vec<_> = (0..2)
//!     .map(|p| {
//!         let mut tx = tx.clone(); // no slot taken until first send
//!         std::thread::spawn(move || {
//!             for i in 0..100 {
//!                 tx.send(p * 100 + i).unwrap();
//!             }
//!         })
//!     })
//!     .collect();
//! drop(tx); // the producers' clones keep the channel open
//! let mut got = 0;
//! while rx.recv().is_ok() {
//!     got += 1; // drains until the last producer clone drops
//! }
//! for t in producers {
//!     t.join().unwrap();
//! }
//! assert_eq!(got, 200);
//! ```
//!
//! ORDERING: endpoint refcount for close-on-last-drop; the ==1 observation
//! must totally order with the peer's count ops. Cover: dst models 5-6.

use crate::shard::OwnedShardedHandle;
use crate::sync::{
    DequeueFuture, EnqueueFuture, Eventcount, RecvError, SendError, SyncQueue, SyncState,
};
use crate::topology::{TopoCore, TopoEndpoint};
use crate::unbounded::{OwnedUnboundedHandle, WcqInner};
use crate::wcq::queue::OwnedWcqHandle;
use crate::{ShardedWcq, UnboundedWcq, WcqConfig, WcqQueue};
use std::future::Future;
use std::pin::Pin;
use crate::sim::AtomicUsize;
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

// ===================================================================
// Constructors
// ===================================================================

/// Creates a bounded channel over a [`WcqQueue`] with `2^order` slots and
/// room for `max_threads` concurrently *operating* endpoints.
///
/// `max_threads` bounds live thread slots, not clones: endpoints register
/// lazily on first use and release on drop, so any number of idle clones
/// is free. An operation that needs a slot while all `max_threads` are
/// taken **waits** (yielding) until another endpoint drops — size
/// `max_threads` to the peak number of threads concurrently touching the
/// channel. Undersizing it is not detected: if `max_threads` endpoints
/// are held live and never dropped, a further endpoint's first operation
/// waits forever. `max_threads` must be at least 1 (and at most
/// `2^order`, the paper's `k <= n` assumption); violations panic here,
/// at construction.
pub fn bounded<T: Send>(order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    bounded_with_config(order, max_threads, &WcqConfig::default())
}

/// [`bounded`] with explicit ring tuning knobs.
pub fn bounded_with_config<T: Send>(
    order: u32,
    max_threads: usize,
    cfg: &WcqConfig,
) -> (Sender<T>, Receiver<T>) {
    endpoints(Backend::Bounded(Arc::new(WcqQueue::with_config(
        order,
        max_threads,
        cfg,
    ))))
}

/// Creates a bounded channel over a [`ShardedWcq`]: `shards` sub-queues
/// (a power of two) of `2^order` slots each. Senders keep per-sender FIFO
/// within their affinity shard; cross-sender ordering is relaxed exactly
/// as documented on [`ShardedWcq`].
pub fn sharded<T: Send>(
    shards: usize,
    order: u32,
    max_threads: usize,
) -> (Sender<T>, Receiver<T>) {
    sharded_with_config(shards, order, max_threads, &WcqConfig::default())
}

/// [`sharded`] with explicit ring tuning knobs.
pub fn sharded_with_config<T: Send>(
    shards: usize,
    order: u32,
    max_threads: usize,
    cfg: &WcqConfig,
) -> (Sender<T>, Receiver<T>) {
    endpoints(Backend::Sharded(Arc::new(ShardedWcq::with_config(
        shards,
        order,
        max_threads,
        cfg,
    ))))
}

/// Creates an unbounded channel over a [`UnboundedWcq`] whose list nodes
/// hold `2^node_order` slots each. `send` never blocks on capacity (the
/// list grows); it fails only once every receiver is gone.
pub fn unbounded<T: Send>(node_order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    unbounded_with_config(node_order, max_threads, &WcqConfig::default())
}

/// [`unbounded`] with explicit ring tuning knobs.
pub fn unbounded_with_config<T: Send>(
    node_order: u32,
    max_threads: usize,
    cfg: &WcqConfig,
) -> (Sender<T>, Receiver<T>) {
    endpoints(Backend::Unbounded(Arc::new(UnboundedWcq::with_config(
        node_order,
        max_threads,
        cfg,
    ))))
}

/// Creates a channel declared single-producer / single-consumer: one
/// [`crate::spsc::Ring`] of `2^order` slots on the fast path, no helping
/// records or DWCAS anywhere near it.
///
/// The declaration is enforced dynamically, not by the type system: any
/// number of idle clones is free (as everywhere in this module), but the
/// first operation by a *second* concurrently operating sender grafts a
/// wait-free [`WcqQueue`] spine of at least the same capacity onto the
/// channel as an overflow lane (see [`crate::topology`]). The seated
/// sender keeps its ring and its throughput; excess senders run on the
/// spine; per-sender FIFO holds throughout and no element is lost. A
/// second operating receiver needs no upgrade — it sees the spine lane
/// (once it exists) and inherits the ring when the seated receiver
/// drops, but cannot observe ring residue before that; see the module
/// docs on out-of-declaration receivers.
///
/// `max_threads` is the post-upgrade analogue of [`bounded`]'s parameter:
/// the spine, if ever built, gets that many thread slots, with the same
/// lazy-acquisition/wait semantics. Before any upgrade it is unused (the
/// ring needs no slots).
pub fn spsc<T: Send>(order: u32, max_threads: usize) -> (Sender<T>, Receiver<T>) {
    spsc_with_config(order, max_threads, &WcqConfig::default())
}

/// [`spsc`] with explicit ring tuning knobs (applied to the spine; the
/// SPSC ring itself has none).
pub fn spsc_with_config<T: Send>(
    order: u32,
    max_threads: usize,
    cfg: &WcqConfig,
) -> (Sender<T>, Receiver<T>) {
    endpoints(Backend::Topo(Arc::new(TopoCore::spsc(
        order,
        max_threads,
        cfg,
    ))))
}

/// Creates a channel declared multi-producer / single-consumer: each of
/// up to `max_senders` concurrently operating senders gets a **private**
/// [`crate::spsc::Ring`] of `2^order` slots (so senders never contend
/// with each other), and the receiver sweeps the rings. Per-sender FIFO
/// holds; cross-sender ordering is relaxed, exactly as on [`sharded`].
///
/// A `max_senders + 1`-th concurrently operating sender grafts the
/// wait-free [`WcqQueue`] overflow spine as on [`spsc`] (seated senders
/// keep their rings); `max_threads` sizes the spine's thread slots.
pub fn mpsc<T: Send>(
    order: u32,
    max_senders: usize,
    max_threads: usize,
) -> (Sender<T>, Receiver<T>) {
    mpsc_with_config(order, max_senders, max_threads, &WcqConfig::default())
}

/// [`mpsc`] with explicit ring tuning knobs (applied to the spine).
pub fn mpsc_with_config<T: Send>(
    order: u32,
    max_senders: usize,
    max_threads: usize,
    cfg: &WcqConfig,
) -> (Sender<T>, Receiver<T>) {
    endpoints(Backend::Topo(Arc::new(TopoCore::mpsc(
        max_senders,
        order,
        max_threads,
        cfg,
    ))))
}

/// Receives from whichever of `rxs` has a value first — the minimal
/// `select`-style multi-queue wait the facade otherwise lacks (flushed out
/// by the span-collector pipeline, which sweeps one MPSC lane per shard
/// and must park when *all* of them are empty; DESIGN.md §14). It is the
/// want-1 case of [`recv_any_batch`]: both run one parking loop.
///
/// Semantics:
///
/// * Probes every receiver in index order; the first value found returns
///   immediately as `Ok((lane, value))` — lower indices therefore win
///   ties, which keeps the call deterministic under light load.
/// * If every lane is observed empty, the calling thread registers on
///   **all** of their not-empty eventcounts and parks, so one `send` on
///   any lane wakes it — no polling loop, no per-lane timeout ladder.
/// * `timeout = None` waits indefinitely (until a value or every lane
///   closes); `Some(d)` bounds the wait and reports
///   [`RecvError::Timeout`] after one final sweep, exactly like
///   [`Receiver::recv_timeout`].
/// * [`RecvError::Closed`] means every lane is closed **and** drained —
///   the collective analogue of a single receiver's `Closed`. A lane that
///   closes while the caller is registering is re-examined before the
///   caller parks, so the last sender's drop always ends the wait.
///
/// A lane holding stranded ring residue (closed, but the values sit
/// behind a consumer seat held elsewhere — DESIGN.md §11) is treated as
/// "empty for now": `recv_any` stays awake (yield-spin, as
/// `dequeue_blocking` does) rather than parking past the residue or
/// reporting `Closed` over values that still exist.
///
/// Each receiver's **first** operation still lazily acquires its thread
/// slot (see [`bounded`]); call sites that sweep many lanes should hold
/// the receivers for the thread's lifetime, as the collector does.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use wcq::channel;
///
/// let (mut tx_a, rx_a) = channel::spsc::<u32>(4, 2);
/// let (_tx_b, rx_b) = channel::spsc::<u32>(4, 2);
/// let mut lanes = [rx_a, rx_b];
/// tx_a.send(7).unwrap();
/// let (lane, v) = channel::recv_any(&mut lanes, None).unwrap();
/// assert_eq!((lane, v), (0, 7));
/// assert_eq!(
///     channel::recv_any(&mut lanes, Some(Duration::from_millis(1))),
///     Err(wcq::sync::RecvError::Timeout),
/// );
/// ```
pub fn recv_any<T: Send>(
    rxs: &mut [Receiver<T>],
    timeout: Option<Duration>,
) -> Result<(usize, T), RecvError> {
    let mut found = None;
    wait_any(rxs, 1, 1, timeout, |lane, rx, _| {
        found = Some((lane, rx.try_recv()?));
        Ok(1)
    })?;
    Ok(found.expect("wait_any reports Ok only after a take"))
}

/// Batch form of [`recv_any`]: sweeps the lanes in index order, appending
/// up to `max` values to `out`, and returns how many it appended.
///
/// A sweep that finds anything returns at once. Only when every lane is
/// empty does the caller park, and then it waits for **`want`** values
/// (clamped to `1..=max`) rather than one: it registers on each open
/// lane with that lane's share, `ceil(want / open lanes)`, and the
/// lanes' producers skip the wakeup until one of them holds its share.
/// That happens no later than the moment the lanes together hold `want`
/// values, so a consumer that needs a whole batch is woken once per batch
/// instead of once per producer burst. Only SPSC-ring lanes
/// ([`spsc`]/[`mpsc`], consumer seat held, no spine) defer their wakeups,
/// and a ring that fills up wakes the caller whatever `want` is; every
/// other lane wakes the caller on its first value, as in `recv_any`.
///
/// Timeouts, `Closed` and stranded residue behave exactly as in
/// `recv_any`: [`RecvError::Timeout`] after a final empty sweep,
/// [`RecvError::Closed`] once every lane is closed and drained.
///
/// # Example
///
/// ```
/// use wcq::channel;
///
/// let (mut tx, rx) = channel::spsc::<u32>(4, 2);
/// let mut lanes = [rx];
/// let producer = std::thread::spawn(move || {
///     for v in 0..8 {
///         tx.send(v).unwrap();
///     }
/// });
/// let mut out = Vec::new();
/// while out.len() < 8 {
///     let room = 8 - out.len();
///     // Parks (if it must) until the lane holds the rest of the batch.
///     channel::recv_any_batch(&mut lanes, &mut out, room, room, None).unwrap();
/// }
/// producer.join().unwrap();
/// assert_eq!(out, (0..8).collect::<Vec<_>>());
/// ```
///
/// # Panics
///
/// If `rxs` is empty or `max` is 0.
pub fn recv_any_batch<T: Send>(
    rxs: &mut [Receiver<T>],
    out: &mut Vec<T>,
    max: usize,
    want: usize,
    timeout: Option<Duration>,
) -> Result<usize, RecvError> {
    assert!(max > 0, "recv_any_batch with no room");
    wait_any(rxs, max, want.clamp(1, max), timeout, |_, rx, room| {
        rx.try_recv_batch(out, room)
    })
}

/// One lane's part in a multi-lane wait ([`wait_any`]), kept in the
/// receiver so that a parking round allocates nothing.
#[derive(Clone, Copy, Default)]
struct LaneWait {
    /// Epoch snapshot taken before the lane's last sweep.
    key: u64,
    /// The registration on the lane's `not_empty`, while registered.
    token: Option<u64>,
    /// The level registered with: the lane's share of `want`, or 1.
    level: usize,
    /// The lane reported `Closed` in the last sweep.
    closed: bool,
}

/// The parking loop behind [`recv_any`] and [`recv_any_batch`]. `take`
/// sweeps one lane into the caller's output, taking at most the room it
/// is given; the loop returns as soon as a sweep took anything, and
/// otherwise parks until some lane's producers reach its share of `want`.
fn wait_any<T: Send>(
    rxs: &mut [Receiver<T>],
    max: usize,
    want: usize,
    timeout: Option<Duration>,
    mut take: impl FnMut(usize, &mut Receiver<T>, usize) -> Result<usize, TryRecvError>,
) -> Result<usize, RecvError> {
    assert!(!rxs.is_empty(), "recv_any over zero receivers");
    let deadline = timeout.map(|t| Instant::now() + t);
    // BOUND(wait-edge): wait_any (recv_any / recv_any_batch) listen/sweep
    // rounds: re-loops only after a lane's epoch moved or closed (progress
    // elsewhere), a level re-check found a share reached, or a park woke;
    // deadline exits via Timeout. Cover: tests/channel.rs + dst models 10-11.
    loop {
        // Phase 1: snapshot each lane's epoch, then sweep it. The order
        // (listen before probe) is the usual eventcount discipline: a
        // value that lands after the probe bumps the epoch past our key,
        // so registration below refuses and we sweep again.
        let (mut taken, mut open, mut limbo) = (0, 0, false);
        for (lane, rx) in rxs.iter_mut().enumerate() {
            if taken == max {
                break;
            }
            rx.wait.key = rx.not_empty().listen();
            rx.wait.closed = false;
            match take(lane, rx, max - taken) {
                Ok(n) => taken += n,
                Err(TryRecvError::Empty) => {
                    open += 1;
                    // Closed but `Empty`: stranded residue (see try_recv).
                    // Parking would race the seat holder's final pop —
                    // stay awake until the residue surfaces or drains.
                    limbo |= rx.shared.is_closed();
                }
                Err(TryRecvError::Closed) => rx.wait.closed = true,
            }
        }
        if taken > 0 {
            return Ok(taken);
        }
        if open == 0 {
            return Err(RecvError::Closed);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RecvError::Timeout);
        }
        if limbo {
            crate::sim::yield_now();
            continue;
        }
        // Phase 2: register on every open lane at its level, then pay
        // one waiter barrier for the whole round. A refusal means that
        // lane was notified since phase 1 — new data may be sweepable,
        // so drop all registrations and start over.
        let share = want.div_ceil(open);
        let mut refused = false;
        for rx in rxs.iter_mut().filter(|rx| !rx.wait.closed) {
            rx.wait.level = if rx.honours_level() { share } else { 1 };
            match rx
                .not_empty()
                .register_thread_unfenced(rx.wait.key, rx.wait.level)
            {
                Some(token) => rx.wait.token = Some(token),
                None => {
                    refused = true;
                    break;
                }
            }
        }
        if refused {
            cancel_all(rxs);
            continue;
        }
        crate::sync::waiter_barrier();
        // Phase 3: post-registration re-check (the Dekker step — a
        // producer whose fast path missed us must now be visible here).
        // A level-1 lane is swept; a level lane is asked whether some
        // ring holds its share, the question its producers ask before
        // skipping a wakeup. A lane that closed since phase 1 goes back
        // to the top to arbitrate Closed versus residue: its `close` may
        // have looked for waiters before we registered, and then nobody
        // would wake us.
        let mut again = false;
        for (lane, rx) in rxs.iter_mut().enumerate() {
            if rx.wait.token.is_none() {
                continue;
            }
            if rx.wait.level > 1 {
                again |= rx.level_reached(rx.wait.level);
            } else if let Ok(n) = take(lane, rx, max) {
                cancel_all(rxs);
                return Ok(n);
            }
            again |= rx.shared.is_closed();
        }
        if again {
            cancel_all(rxs);
            continue;
        }
        // Phase 4: park until any registered epoch moves or the deadline
        // passes. Each lane's notify wakes this thread (thread parking is
        // process-global), and the moved epoch tells us which. A timeout
        // falls through to the top, whose sweep is the final look.
        // BOUND(wait-edge): parks until a registered lane epoch moves or the
        // deadline passes; spurious unparks re-check every lane; a level
        // lane's producers move the epoch once their ring holds its share.
        // Cover: tests/channel.rs + dst model 11.
        loop {
            let moved = rxs
                .iter()
                .any(|rx| rx.wait.token.is_some() && rx.not_empty().listen() != rx.wait.key);
            if moved {
                break;
            }
            match deadline {
                None => crate::sim::park(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    crate::sim::park_timeout(d - now);
                }
            }
        }
        cancel_all(rxs);
    }
}

/// Drops every registration a [`wait_any`] round made.
fn cancel_all<T: Send>(rxs: &mut [Receiver<T>]) {
    for rx in rxs.iter_mut() {
        if let Some(token) = rx.wait.token.take() {
            rx.not_empty().cancel(token);
        }
    }
}

fn endpoints<T: Send>(backend: Backend<T>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        backend,
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            cache: None,
        },
        Receiver {
            shared,
            cache: None,
            wait: LaneWait::default(),
        },
    )
}

// ===================================================================
// Errors
// ===================================================================

/// Why [`Sender::try_send`] did not take the value. Both variants hand the
/// value back — the channel never drops an element.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue was observed full (bounded backends only).
    Full(T),
    /// Every [`Receiver`] has been dropped (or the backlog side closed).
    Closed(T),
}

impl<T> TrySendError<T> {
    /// Recovers the value that was not sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Closed(v) => v,
        }
    }
}

impl<T> std::fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel full"),
            TrySendError::Closed(_) => write!(f, "channel closed (no receivers)"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySendError<T> {}

/// Why [`Receiver::try_recv`] returned no value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel was observed empty but senders remain.
    Empty,
    /// Every [`Sender`] has been dropped **and** the backlog is drained.
    Closed,
}

impl std::fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel empty"),
            TryRecvError::Closed => write!(f, "channel closed and drained"),
        }
    }
}

impl std::error::Error for TryRecvError {}

// ===================================================================
// Shared state
// ===================================================================

/// The `Arc`-owned queue behind a channel.
enum Backend<T: Send> {
    Bounded(Arc<WcqQueue<T>>),
    Sharded(Arc<ShardedWcq<T>>),
    Unbounded(Arc<UnboundedWcq<T>>),
    Topo(Arc<TopoCore<T>>),
}

impl<T: Send> Backend<T> {
    fn sync_state(&self) -> &SyncState {
        match self {
            Backend::Bounded(q) => q.sync_state(),
            Backend::Sharded(q) => q.sync_state(),
            Backend::Unbounded(q) => q.sync_state(),
            Backend::Topo(c) => c.sync_state(),
        }
    }

    fn register(&self) -> Option<Endpoint<T>> {
        match self {
            Backend::Bounded(q) => q.register_owned().map(Endpoint::Bounded),
            Backend::Sharded(q) => q.register_owned().map(Endpoint::Sharded),
            Backend::Unbounded(q) => q.register_owned().map(Endpoint::Unbounded),
            // Topology endpoints need no slot up front: seats are claimed
            // by the first operation (and their exhaustion upgrades rather
            // than waits), so registration always succeeds.
            Backend::Topo(c) => Some(Endpoint::Topo(c.register())),
        }
    }

    /// The engine currently serving operations (see [`Sender::backend`]).
    fn name(&self) -> &'static str {
        match self {
            Backend::Bounded(_) => "wcq",
            Backend::Sharded(_) => "wcq-sharded",
            Backend::Unbounded(_) => "wcq-unbounded",
            Backend::Topo(c) => c.backend_name(),
        }
    }
}

/// Channel state shared by every endpoint: the queue plus the endpoint
/// refcounts that drive auto-close.
struct Shared<T: Send> {
    backend: Backend<T>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T: Send> Shared<T> {
    /// Registers an owned handle, waiting (yield loop) while all
    /// `max_threads` slots are taken — slots free whenever an endpoint
    /// drops, so the wait is bounded by the caller's own endpoint
    /// discipline (documented on [`bounded`]).
    fn acquire(&self) -> Endpoint<T> {
        let mut backoff = crate::sync::Backoff::new();
        // BOUND(wait-edge): waits for a peer endpoint holder to drop a slot;
        // paced by Backoff (adaptive spin-then-yield). Cover: tests/channel.rs
        // (endpoint churn).
        loop {
            if let Some(e) = self.backend.register() {
                return e;
            }
            // A slot frees only when another endpoint drops — likely a
            // descheduled thread, so escalate to yielding quickly.
            backoff.snooze();
        }
    }

    fn is_closed(&self) -> bool {
        self.backend.sync_state().is_closed()
    }

    fn close(&self) {
        self.backend.sync_state().close();
    }
}

/// A lazily registered owned handle, cached inside an endpoint. One
/// endpoint drives one thread record at a time (endpoints take `&mut self`
/// and are not `Sync`), which is the owned handles' contract.
enum Endpoint<T: Send> {
    Bounded(OwnedWcqHandle<T>),
    Sharded(OwnedShardedHandle<T>),
    Unbounded(OwnedUnboundedHandle<T, WcqInner<T>>),
    Topo(TopoEndpoint<T>),
}

impl<T: Send> Endpoint<T> {
    fn enqueue_batch(&mut self, items: &mut Vec<T>) -> usize {
        match self {
            Endpoint::Bounded(h) => h.enqueue_batch(items),
            Endpoint::Sharded(h) => h.enqueue_batch(items),
            Endpoint::Unbounded(h) => h.enqueue_batch(items),
            Endpoint::Topo(h) => h.enqueue_batch(items),
        }
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        match self {
            Endpoint::Bounded(h) => h.dequeue_batch(out, max),
            Endpoint::Sharded(h) => h.dequeue_batch(out, max),
            Endpoint::Unbounded(h) => h.dequeue_batch(out, max),
            Endpoint::Topo(h) => h.dequeue_batch(out, max),
        }
    }
}

impl<T: Send> SyncQueue for Endpoint<T> {
    type Item = T;

    fn sync_state(&self) -> &SyncState {
        match self {
            Endpoint::Bounded(h) => h.sync_state(),
            Endpoint::Sharded(h) => h.sync_state(),
            Endpoint::Unbounded(h) => h.sync_state(),
            Endpoint::Topo(h) => h.sync_state(),
        }
    }

    fn try_enqueue(&mut self, v: T) -> Result<(), T> {
        match self {
            Endpoint::Bounded(h) => h.try_enqueue(v),
            Endpoint::Sharded(h) => h.try_enqueue(v),
            Endpoint::Unbounded(h) => h.try_enqueue(v),
            Endpoint::Topo(h) => h.try_enqueue(v),
        }
    }

    fn try_dequeue(&mut self) -> Option<T> {
        match self {
            Endpoint::Bounded(h) => h.try_dequeue(),
            Endpoint::Sharded(h) => h.try_dequeue(),
            Endpoint::Unbounded(h) => h.try_dequeue(),
            Endpoint::Topo(h) => h.try_dequeue(),
        }
    }

    fn residue_hint(&self) -> bool {
        // Only the topology backend has per-endpoint reachability (ring
        // sweeps require the consumer seat); the others see everything.
        match self {
            Endpoint::Topo(h) => h.residue_hint(),
            _ => false,
        }
    }
}

// ===================================================================
// Sender
// ===================================================================

/// The sending half of a channel. Cloneable (each clone is an independent
/// endpoint); dropping the last sender closes the channel for receivers
/// once they drain the backlog.
pub struct Sender<T: Send> {
    shared: Arc<Shared<T>>,
    cache: Option<Endpoint<T>>,
}

impl<T: Send> Sender<T> {
    fn endpoint(&mut self) -> &mut Endpoint<T> {
        if self.cache.is_none() {
            self.cache = Some(self.shared.acquire());
        }
        self.cache.as_mut().expect("just filled")
    }

    /// Non-blocking send. [`TrySendError::Full`] hands the value back when
    /// the queue is full (never on [`unbounded`] channels);
    /// [`TrySendError::Closed`] when every receiver is gone.
    ///
    /// Caveat: this endpoint's **first** operation acquires its thread
    /// slot and waits while all `max_threads` are taken (see [`bounded`]);
    /// once registered, `try_send` never waits.
    #[inline]
    pub fn try_send(&mut self, v: T) -> Result<(), TrySendError<T>> {
        // A registered topology endpoint is the inline lane (DESIGN.md
        // §11): the closed flag, then its seated ring push. Every other
        // case is one cold call.
        let Some(Endpoint::Topo(h)) = &mut self.cache else {
            return self.try_send_cold(v);
        };
        if h.sync_state().is_closed() {
            return Err(TrySendError::Closed(v));
        }
        h.try_enqueue(v).map_err(TrySendError::Full)
    }

    /// [`Self::try_send`] off the topology lane: lazy acquisition and the
    /// other backends.
    #[cold]
    fn try_send_cold(&mut self, v: T) -> Result<(), TrySendError<T>> {
        if self.shared.is_closed() {
            return Err(TrySendError::Closed(v));
        }
        self.endpoint().try_enqueue(v).map_err(TrySendError::Full)
    }

    /// Sends, parking while the queue is full. Fails only when every
    /// receiver is gone (the value rides back in [`SendError::Closed`]).
    pub fn send(&mut self, v: T) -> Result<(), SendError<T>> {
        if self.shared.is_closed() {
            return Err(SendError::Closed(v));
        }
        self.endpoint().enqueue_blocking(v)
    }

    /// Like [`Self::send`] with a deadline; a timeout is
    /// element-conserving ([`SendError::Timeout`] carries the value).
    pub fn send_timeout(&mut self, v: T, timeout: Duration) -> Result<(), SendError<T>> {
        if self.shared.is_closed() {
            return Err(SendError::Closed(v));
        }
        self.endpoint().enqueue_timeout(v, timeout)
    }

    /// Async send: resolves when the value is in, or with
    /// [`SendError::Closed`] when every receiver is gone (the future's
    /// first poll checks the closed flag, so a closed channel resolves
    /// without ever parking the task). Drive it with any executor, e.g.
    /// [`crate::sync::block_on`].
    pub fn send_async(&mut self, v: T) -> SendFuture<'_, T> {
        SendFuture(self.endpoint().enqueue_async(v))
    }

    /// Batch send: drains as many items as fit from the **front** of
    /// `items` (preserving order) and returns how many were sent; items
    /// left behind did not fit (queue full) or the channel is closed
    /// (check [`Self::is_closed`] to distinguish).
    pub fn send_batch(&mut self, items: &mut Vec<T>) -> usize {
        if self.shared.is_closed() {
            return 0;
        }
        self.endpoint().enqueue_batch(items)
    }

    /// `true` once every [`Receiver`] has been dropped (sends can no
    /// longer succeed).
    pub fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    /// The engine currently serving this channel: `"wcq"`,
    /// `"wcq-sharded"`, `"wcq-unbounded"`, or — on topology-declared
    /// channels — `"spsc-ring"` / `"mpsc-rings"`, becoming `"wcq-spine"`
    /// after an upgrade (see [`spsc`]). Diagnostics only; snapshot, since
    /// an upgrade can race it.
    pub fn backend(&self) -> &'static str {
        self.shared.backend.name()
    }
}

impl<T: Send> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, SeqCst);
        Sender {
            shared: Arc::clone(&self.shared),
            cache: None, // clones take a thread slot lazily, on first use
        }
    }
}

impl<T: Send> Drop for Sender<T> {
    fn drop(&mut self) {
        // Release the thread slot first (quiesced, via the owned handle's
        // drop), then retire from the refcount; last sender out closes the
        // channel so receivers drain and see `Closed`.
        self.cache = None;
        if self.shared.senders.fetch_sub(1, SeqCst) == 1 {
            self.shared.close();
        }
    }
}

// ===================================================================
// Receiver
// ===================================================================

/// The receiving half of a channel. Cloneable (competing consumers);
/// dropping the last receiver closes the channel so senders stop
/// accumulating values nobody will read.
pub struct Receiver<T: Send> {
    shared: Arc<Shared<T>>,
    cache: Option<Endpoint<T>>,
    /// This lane's registration state during [`recv_any`]/[`recv_any_batch`].
    wait: LaneWait,
}

impl<T: Send> Receiver<T> {
    fn endpoint(&mut self) -> &mut Endpoint<T> {
        if self.cache.is_none() {
            self.cache = Some(self.shared.acquire());
        }
        self.cache.as_mut().expect("just filled")
    }

    /// Non-blocking receive. Drains the backlog even after close:
    /// [`TryRecvError::Closed`] is reported only once the channel is both
    /// closed and empty.
    ///
    /// Caveat: this endpoint's **first** operation acquires its thread
    /// slot and waits while all `max_threads` are taken (see [`bounded`]);
    /// once registered, `try_recv` never waits.
    #[inline]
    pub fn try_recv(&mut self) -> Result<T, TryRecvError> {
        // A registered topology endpoint probes its lanes inline; the rest,
        // and the Empty-versus-Closed verdict, are cold calls.
        match &mut self.cache {
            Some(Endpoint::Topo(h)) => match h.try_dequeue() {
                Some(v) => Ok(v),
                None => self.try_recv_empty(),
            },
            _ => self.try_recv_cold(),
        }
    }

    /// [`Self::try_recv`] off the topology lane: lazy acquisition and the
    /// other backends.
    #[cold]
    fn try_recv_cold(&mut self) -> Result<T, TryRecvError> {
        match self.endpoint().try_dequeue() {
            Some(v) => Ok(v),
            None => self.try_recv_empty(),
        }
    }

    /// The verdict after a probe found nothing: `Empty` while the channel
    /// is open, else one more probe.
    #[cold]
    fn try_recv_empty(&mut self) -> Result<T, TryRecvError> {
        if !self.shared.is_closed() {
            return Err(TryRecvError::Empty);
        }
        // Drain race: an insert may have landed between the probe and the
        // close check.
        match self.endpoint().try_dequeue() {
            Some(v) => Ok(v),
            // Ring residue stranded behind another endpoint's consumer seat
            // (DESIGN.md §11) is "empty for now", not `Closed` — the values
            // will surface once the holder drains or drops.
            None if self.endpoint().residue_hint() => Err(TryRecvError::Empty),
            None => Err(TryRecvError::Closed),
        }
    }

    /// [`Self::try_recv`]'s batch twin, for [`recv_any_batch`]: `Ok(n)`
    /// with `n > 0` values appended, `Empty`, or `Closed` once the channel
    /// is closed and drained (stranded residue counts as `Empty`).
    fn try_recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> Result<usize, TryRecvError> {
        let n = self.recv_batch(out, max);
        if n > 0 {
            return Ok(n);
        }
        if !self.shared.is_closed() {
            return Err(TryRecvError::Empty);
        }
        // Drain race and stranded residue, exactly as in `try_recv`.
        match self.recv_batch(out, max) {
            0 if self.endpoint().residue_hint() => Err(TryRecvError::Empty),
            0 => Err(TryRecvError::Closed),
            n => Ok(n),
        }
    }

    /// The eventcount this receiver parks on.
    fn not_empty(&self) -> &Eventcount {
        self.shared.backend.sync_state().not_empty()
    }

    /// Whether this lane's producers defer wakeups until a level (see
    /// [`recv_any_batch`]): only a seated topology consumer's rings do.
    fn honours_level(&self) -> bool {
        matches!(&self.cache, Some(Endpoint::Topo(h)) if h.honours_level())
    }

    /// Post-registration re-check at `level` (see
    /// `TopoEndpoint::level_reached`); only asked of lanes that honour
    /// levels.
    fn level_reached(&self, level: usize) -> bool {
        match &self.cache {
            Some(Endpoint::Topo(h)) => h.level_reached(level),
            _ => true,
        }
    }

    /// Receives, parking while the channel is empty. After the last
    /// [`Sender`] drops, drains the backlog and then reports
    /// [`RecvError::Closed`].
    pub fn recv(&mut self) -> Result<T, RecvError> {
        self.endpoint().dequeue_blocking()
    }

    /// Like [`Self::recv`] with a deadline; takes one last look before
    /// reporting [`RecvError::Timeout`].
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<T, RecvError> {
        self.endpoint().dequeue_timeout(timeout)
    }

    /// Async receive: resolves with a value, or [`RecvError::Closed`] once
    /// the channel is closed and drained.
    pub fn recv_async(&mut self) -> RecvFuture<'_, T> {
        RecvFuture(self.endpoint().dequeue_async())
    }

    /// Batch receive: appends up to `max` elements to `out` in queue order
    /// and returns how many were appended (0 means observed empty —
    /// check [`Self::is_closed`] to distinguish "for now" from "forever").
    #[inline]
    pub fn recv_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        // Inline on a registered topology endpoint, as in `try_recv`.
        match &mut self.cache {
            Some(Endpoint::Topo(h)) => h.dequeue_batch(out, max),
            _ => self.recv_batch_cold(out, max),
        }
    }

    /// [`Self::recv_batch`] off the topology lane.
    #[cold]
    fn recv_batch_cold(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.endpoint().dequeue_batch(out, max)
    }

    /// `true` once every [`Sender`] has been dropped. The backlog may
    /// still hold values; [`Self::try_recv`]/[`Self::recv`] drain it.
    pub fn is_closed(&self) -> bool {
        self.shared.is_closed()
    }

    /// The engine currently serving this channel; see [`Sender::backend`].
    pub fn backend(&self) -> &'static str {
        self.shared.backend.name()
    }
}

impl<T: Send> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, SeqCst);
        Receiver {
            shared: Arc::clone(&self.shared),
            cache: None,
            wait: LaneWait::default(),
        }
    }
}

impl<T: Send> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.cache = None;
        if self.shared.receivers.fetch_sub(1, SeqCst) == 1 {
            // Last reader gone: fail senders fast instead of letting them
            // fill (or grow) a queue nobody will drain.
            self.shared.close();
        }
    }
}

// ===================================================================
// Futures
// ===================================================================

/// Future returned by [`Sender::send_async`]; wraps the facade's
/// [`EnqueueFuture`] (waker registration, deregister-on-drop).
pub struct SendFuture<'a, T: Send>(EnqueueFuture<'a, Endpoint<T>>);

impl<T: Send> Future for SendFuture<'_, T> {
    type Output = Result<(), SendError<T>>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.0).poll(cx)
    }
}

/// Future returned by [`Receiver::recv_async`]; wraps the facade's
/// [`DequeueFuture`].
pub struct RecvFuture<'a, T: Send>(DequeueFuture<'a, Endpoint<T>>);

impl<T: Send> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.0).poll(cx)
    }
}
