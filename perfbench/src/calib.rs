//! Host-speed calibration.
//!
//! The benchmark's host is a share of a busy machine. Its speed swings
//! by a quarter or more, for seconds to minutes at a time, so a raw host
//! time says as much about the neighbours as about the program. The
//! whole process therefore runs on one CPU ([`pin_to_one_cpu`]), and
//! while a run measures, a [`Sampler`] thread on that same CPU times a
//! fixed kernel of the benchmark's own (dependent integer arithmetic,
//! random reads from a table in the L1 cache and data-dependent
//! branches) in a ~0.5 ms burst every 20 ms. A host time is then also
//! given at reference speed: the program's share of it (the interval
//! minus the bursts' share) times the square of [`REF_BURST_S`] over the
//! mean burst time during the same interval.
//!
//! The kernel is not program code, so a change to the program cannot
//! move it, and its table is small enough that the program's own cache
//! footprint cannot either (a 2 MiB table read ~40% slower as the
//! program's memory grew within one run). It sees the CPU's own speed
//! but little of the caches and memory the CPU shares with its
//! neighbours, so the simulator's time moves more than the kernel's:
//! when the host turned 1.7 times faster for some minutes, the burst
//! time fell by a factor of 1.3. Hence the square ([`SENSITIVITY`]).
//! Measured on a 2-vCPU VM with one CPU running both, as the spread
//! (interquartile range over median) of ten-seed sets of this
//! benchmark's `wall_s`, host seconds / burst ratio / its square:
//! `sampled` 0.098 / 0.083 / 0.086 in a quiet set and 0.30 / 0.20 / 0.07
//! in a noisy one, `serve-dse` 0.082 / 0.068 / 0.081 and 0.34 / 0.18 /
//! 0.09. Over five-minute samples of 10 s campaigns, medians of four
//! campaigns spread 0.20 / 0.14 / 0.11, 0.10 / 0.05 / 0.08 and
//! 0.06 / 0.08 / 0.12: the square costs a little on a quiet host and
//! saves most on a noisy one. A kernel timed on the other CPU of the
//! same VM correlated only 0.3–0.4 with the work, hence the pinning.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words in the kernel's table (16 KiB of `u64`, inside the L1 cache).
const TABLE_WORDS: usize = 1 << 11;

/// Table reads per burst.
const BURST_STEPS: u32 = 160_000;

/// Pause between bursts.
const PERIOD: Duration = Duration::from_millis(20);

/// Seconds one burst takes at the reference speed: about its time on a
/// quiet 2-vCPU VM (Xeon, 2.1 GHz), so reference seconds read close to
/// that host's seconds.
pub const REF_BURST_S: f64 = 0.0005;

/// The power of the burst-time ratio a host time is scaled by: the
/// simulator's host time moved about as the square of the burst time.
pub const SENSITIVITY: i32 = 2;

/// A host time and the same time at reference speed, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Host seconds.
    pub host: f64,
    /// Reference seconds.
    pub reference: f64,
}

impl std::ops::AddAssign for Timed {
    fn add_assign(&mut self, other: Timed) {
        self.host += other.host;
        self.reference += other.reference;
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on. Returns that CPU, or `None` where the
/// affinity calls are unavailable (the run then measures unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    affinity::pin_first()
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn pin_first() -> Option<usize> {
        let size = std::mem::size_of::<CpuSet>();
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`; pid 0 is the calling
        // thread.
        if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a valid `cpu_set_t` with one bit set.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_first() -> Option<usize> {
        None
    }
}

fn table() -> Vec<u64> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..TABLE_WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// One burst of the kernel; returns a value so the work is kept.
fn burst(table: &[u64]) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for _ in 0..BURST_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x as usize) & (TABLE_WORDS - 1)];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            acc ^= v.rotate_left(7);
        }
    }
    acc
}

/// The timed bursts of a sampler: start and end of each.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    bursts: Vec<(Instant, Instant)>,
}

impl Speed {
    /// Bursts recorded.
    pub fn len(&self) -> usize {
        self.bursts.len()
    }

    /// Whether no burst was recorded.
    pub fn is_empty(&self) -> bool {
        self.bursts.is_empty()
    }

    /// Median host seconds of a burst.
    pub fn median_burst(&self) -> Option<f64> {
        let secs: Vec<f64> = self
            .bursts
            .iter()
            .map(|&(s, e)| (e - s).as_secs_f64())
            .collect();
        crate::stats::median(&secs)
    }

    /// Mean host seconds of the bursts that started in `[from, to]`, or
    /// of the burst that started nearest to it when none did.
    fn mean_burst(&self, from: Instant, to: Instant) -> Option<f64> {
        let secs = |&(s, e): &(Instant, Instant)| (e - s).as_secs_f64();
        let inside: Vec<f64> = self
            .bursts
            .iter()
            .filter(|(s, _)| (from..=to).contains(s))
            .map(secs)
            .collect();
        if !inside.is_empty() {
            return Some(inside.iter().sum::<f64>() / inside.len() as f64);
        }
        let gap = |b: &&(Instant, Instant)| {
            if b.0 < from {
                from - b.0
            } else {
                b.0 - to
            }
        };
        self.bursts.iter().min_by_key(gap).map(secs)
    }

    /// Share of `[from, to]` the bursts took.
    fn busy_share(&self, from: Instant, to: Instant) -> f64 {
        let len = (to - from).as_secs_f64();
        if len <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .bursts
            .iter()
            .map(|&(s, e)| {
                e.min(to)
                    .saturating_duration_since(s.max(from))
                    .as_secs_f64()
            })
            .sum();
        (busy / len).min(1.0)
    }

    /// `host` seconds spent over `[from, to]`: the program's share of
    /// them (without the bursts' share of the interval) at reference
    /// speed. `None` without bursts.
    pub fn scale(&self, host: f64, from: Instant, to: Instant) -> Option<Timed> {
        let own = host * (1.0 - self.busy_share(from, to));
        let ratio = REF_BURST_S / self.mean_burst(from, to)?;
        Some(Timed {
            host,
            reference: own * ratio.powi(SENSITIVITY),
        })
    }
}

/// The sampler thread; [`Sampler::stop`] ends it and returns its bursts.
/// Dropped without `stop` (a run that failed), it still ends and joins
/// the thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Speed>>,
}

impl Sampler {
    /// Starts sampling on the calling thread's CPUs (one CPU after
    /// [`pin_to_one_cpu`]).
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let table = table();
            std::hint::black_box(burst(&table));
            let mut speed = Speed::default();
            while !flag.load(Ordering::Relaxed) {
                let s = Instant::now();
                std::hint::black_box(burst(std::hint::black_box(&table)));
                speed.bursts.push((s, Instant::now()));
                std::thread::sleep(PERIOD);
            }
            speed
        });
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread, waits for it and returns its bursts (none if
    /// it panicked).
    pub fn stop(mut self) -> Speed {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_takes_out_the_bursts_and_divides_by_their_speed() {
        let t0 = Instant::now();
        let at = |us: f64| t0 + Duration::from_secs_f64(us * 1e-6);
        let r = REF_BURST_S * 1e6;
        // Two bursts in [0, 100 ms], each twice the reference time.
        let speed = Speed {
            bursts: vec![
                (at(10_000.0), at(10_000.0 + 2.0 * r)),
                (at(50_000.0), at(50_000.0 + 2.0 * r)),
                (at(500_000.0), at(500_000.0 + r)),
            ],
        };
        let t = speed.scale(0.1, at(0.0), at(100_000.0)).unwrap();
        let own = 0.1 - 4.0 * REF_BURST_S;
        let want = own / 2f64.powi(SENSITIVITY);
        assert!((t.reference - want).abs() < 1e-9, "{t:?}");
        assert_eq!(t.host, 0.1);
        // No burst starts inside: the nearest one gives the speed.
        let t = speed.scale(0.05, at(400_000.0), at(450_000.0)).unwrap();
        assert!((t.reference - 0.05).abs() < 1e-9, "{t:?}");
        assert_eq!(Speed::default().scale(1.0, t0, t0), None);
    }

    #[test]
    fn sampler_records_bursts_and_stops() {
        let s = Sampler::start();
        std::thread::sleep(Duration::from_millis(120));
        let speed = s.stop();
        assert!(!speed.is_empty());
        let now = Instant::now();
        let t = speed.scale(1.0, now - Duration::from_secs(5), now).unwrap();
        assert!(t.reference > 0.0);
    }
}
