//! Host-speed probe.
//!
//! The VMs this benchmark runs on share their host: for seconds to many
//! minutes at a time the same code runs up to 2.5× slower (thread CPU
//! time grows with wall time, so it is not scheduling; memory-bound code
//! slows most). Medians within one run cannot cancel a phase that lasts
//! longer than the run.
//!
//! So the benchmark runs a fixed probe — hash-table and sort work on
//! buffers allocated once, independent of any program code — between its
//! samples, and rescales a timing by how much slower than nominal the
//! probe ran over the same stretch of the run:
//! `rescaled = raw × NOMINAL_S / median(probe_s)`. A gated timing
//! therefore reads "seconds on a host where the probe takes
//! `NOMINAL_S`". Raw timings and the host factor are reported beside
//! them, ungated.
//!
//! The probe is half cache-resident work, which slows when the host
//! shares the core, and half work on a table larger than the caches,
//! which also slows when neighbours contend for memory; the verifier's
//! slowdowns fell between the two. The large table alone tracked those
//! phases but also varied by ±20% between runs on its own.

use std::time::{Duration, Instant};

/// The probe's time on a 2-core VM while this benchmark was written.
pub const NOMINAL_S: f64 = 0.004;
/// Repetitions per probe; a probe reads their median.
const REPS: usize = 3;
/// Cache-resident part: a 512 KB table, filled anew `SMALL_ROUNDS` times.
const SMALL_SLOTS: usize = 1 << 16;
const SMALL_ROUNDS: usize = 2;
const SMALL_INSERTS: usize = 20_000;
/// Memory part: an 8 MB table, larger than the caches, like the
/// solver's clause database and the BDD tables.
const BIG_SLOTS: usize = 1 << 20;
const BIG_INSERTS: usize = 30_000;
const SORTED: usize = 16_384;

/// Probe readings over one run, and the probe's buffers.
pub struct HostProbe {
    /// (instant, probe seconds), in time order.
    marks: Vec<(Instant, f64)>,
    table: Vec<u64>,
    sorted: Vec<u64>,
}

impl HostProbe {
    pub fn new() -> HostProbe {
        let mut probe = HostProbe {
            marks: Vec::new(),
            table: vec![0; BIG_SLOTS],
            sorted: Vec::with_capacity(SORTED),
        };
        // Fault the table's pages in before the first timed probe.
        std::hint::black_box(probe.kernel());
        probe
    }

    /// The probe kernel: fixed pseudo-random linear-probing inserts and
    /// lookups in a 512 KB and an 8 MB table, then a sort of 16 Ki keys.
    /// It allocates nothing, so the allocator state the program left
    /// behind does not change its time.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut found = 0;
        for _ in 0..SMALL_ROUNDS {
            found += fill_and_find(&mut self.table[..SMALL_SLOTS], SMALL_INSERTS, &mut next);
        }
        found += fill_and_find(&mut self.table, BIG_INSERTS, &mut next);
        self.sorted.clear();
        self.sorted.extend((0..SORTED).map(|_| next()));
        self.sorted.sort_unstable();
        found.wrapping_add(self.sorted[SORTED / 2])
    }

    /// Runs the probe now and records its time.
    pub fn probe(&mut self) {
        let mut reps: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.kernel());
                t.elapsed().as_secs_f64()
            })
            .collect();
        reps.sort_by(f64::total_cmp);
        self.marks.push((Instant::now(), reps[REPS / 2]));
    }

    /// Runs the probe if the last one is older than `every`.
    pub fn probe_every(&mut self, every: Duration) {
        if self.marks.last().map_or(true, |m| m.0.elapsed() >= every) {
            self.probe();
        }
    }

    /// How many times slower than nominal the host ran over `[t0, t1]`:
    /// the median of the probes taken in it, the last one before it and
    /// the first one after it (1 with no probe).
    pub fn factor(&self, t0: Instant, t1: Instant) -> f64 {
        let first = self.marks.iter().rposition(|m| m.0 <= t0).unwrap_or(0);
        let last = self
            .marks
            .iter()
            .position(|m| m.0 >= t1)
            .unwrap_or(self.marks.len().saturating_sub(1));
        let inside: Vec<f64> = self.marks.get(first..=last).unwrap_or(&[]).iter().map(|m| m.1).collect();
        if inside.is_empty() {
            return 1.0;
        }
        crate::stats::median(&inside) / NOMINAL_S
    }

    /// Host factors of every probe, for the report.
    pub fn factors(&self) -> Vec<f64> {
        self.marks.iter().map(|m| m.1 / NOMINAL_S).collect()
    }
}

/// Clears `table` (a power-of-two length), inserts `n` keys by linear
/// probing, then looks up `n` more; returns how many were found.
fn fill_and_find(table: &mut [u64], n: usize, next: &mut impl FnMut() -> u64) -> u64 {
    let mask = table.len() - 1;
    table.fill(0);
    for _ in 0..n {
        let k = next() | 1;
        let mut slot = (k as usize) & mask;
        while table[slot] != 0 && table[slot] != k {
            slot = (slot + 1) & mask;
        }
        table[slot] = k;
    }
    let mut found = 0;
    for _ in 0..n {
        let k = next() | 1;
        let mut slot = (k as usize) & mask;
        while table[slot] != 0 {
            if table[slot] == k {
                found += 1;
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_probe_over_the_window() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let mut probe = HostProbe::new();
        probe.marks = [(10, 1.0), (20, 9.0), (30, 2.0), (40, 3.0), (50, 100.0)]
            .iter()
            .map(|&(ms, s)| (at(ms), s * NOMINAL_S))
            .collect();
        // The probes at 20 and 30 lie inside; 10 is the last before and
        // 40 the first after; 50 is left out.
        assert_eq!(probe.factor(at(15), at(35)), 2.5);
        assert_eq!(probe.factor(at(50), at(60)), 100.0);
        assert_eq!(HostProbe::new().factor(at(0), at(1)), 1.0);
    }
}
