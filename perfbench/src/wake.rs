//! The `sync` park/wake probe: a receiver parked in `Receiver::recv` is
//! woken by one `send` per period, timed from just before the send call
//! to the moment `recv` returns on the other core.

use std::time::Duration;

use wcq::channel;

use crate::stats::TickHist;
use crate::sys::{self, Place};

/// Enough samples that at least 10 lie beyond the 99th percentile.
pub const SAMPLES: u64 = 2000;
/// Long enough for the receiver to give up spinning and park.
const PERIOD: Duration = Duration::from_micros(500);

pub struct Outcome {
    pub wake: TickHist,
    pub attempted: u64,
    pub failed: u64,
    pub places: Vec<Place>,
}

pub fn run(cpus: &[usize]) -> Outcome {
    let (mut tx, mut rx) = channel::bounded::<u64>(6, 2);
    let (cpu_tx, cpu_rx) = (cpus[0], cpus[1 % cpus.len()]);
    std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut place = Place::enter("sync.receiver".to_string(), Some(cpu_rx));
            let mut wake = TickHist::new();
            while let Ok(sent_at) = rx.recv() {
                wake.record(sys::ticks().wrapping_sub(sent_at));
            }
            place.note();
            (wake, place)
        });
        let sender = s.spawn(move || {
            let mut place = Place::enter("sync.sender".to_string(), Some(cpu_tx));
            let mut sent = 0u64;
            for _ in 0..SAMPLES {
                std::thread::sleep(PERIOD);
                if tx.send(sys::ticks()).is_ok() {
                    sent += 1;
                }
            }
            place.note();
            (sent, place)
        });
        let (sent, p_tx) = sender.join().expect("sync sender panicked");
        let (wake, p_rx) = receiver.join().expect("sync receiver panicked");
        let failed = SAMPLES - sent + sent.abs_diff(wake.n());
        Outcome {
            wake,
            attempted: SAMPLES,
            failed,
            places: vec![p_tx, p_rx],
        }
    })
}
