//! Gaussian noise sampling (Box–Muller, no extra dependencies) from
//! seeded noise streams, with a per-thread memo of their normals.
//!
//! Every run of one scenario draws its sensor noise from the same seeded
//! stream, and the jobs of a campaign over that scenario draw the same
//! normals at the same stream positions for as long as their sensing
//! stays in step. A [`NoiseRng`] counts its draws, so the Box–Muller
//! normal that starts at stream position `p` of seed `s` is a pure
//! function of `(s, p)`. [`Gaussian::sample`] looks that key up in a
//! per-thread table before computing the normal, and a miss computes it
//! with the one Box–Muller expression below, so memoized and direct
//! streams agree bit for bit.
//!
//! The table holds one seed at a time (switching seeds clears its
//! validity bits) and [`MEMO_POSITIONS`] positions: 8 bytes per position
//! plus one validity bit, 520 KiB of address space. A thread takes a
//! table when it first re-draws part of a stream it has drawn (a campaign
//! task's second run of its scenario), so a thread that draws each stream
//! once takes none. Tables are allocated zeroed and never grow, and only
//! the pages of positions a stream reaches become resident (~330 KB for
//! the longest paper scenario, which reaches position 41k). An exiting
//! thread hands its cleared table to the next one, so a process holds at
//! most one table per thread that needed one at the same time. Positions
//! past the table are computed directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

/// Stream positions the per-thread memo covers (64 Ki). The longest
/// paper scenario draws ~41k values.
pub const MEMO_POSITIONS: usize = 1 << 16;

/// A seeded noise stream that counts its draws: the sensor suite's RNG.
/// Its stream is [`StdRng::seed_from_u64`]'s, draw for draw.
#[derive(Debug, Clone)]
pub struct NoiseRng {
    rng: StdRng,
    seed: u64,
    position: u64,
}

impl NoiseRng {
    /// Draws taken so far: the position of the next draw in the stream.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// One standard normal, memoized by `(seed, position)`.
    fn standard_normal(&mut self) -> f64 {
        if self.position >= MEMO_POSITIONS as u64 {
            return box_muller(self);
        }
        MEMO.with_borrow_mut(|memo| {
            memo.hold(self.seed);
            if self.position < memo.furthest && memo.table.is_none() {
                memo.table = Some(Table::take());
            }
            memo.furthest = memo.furthest.max(self.position + 2);
            match &mut memo.table {
                Some(table) => table.normal(self),
                None => box_muller(self),
            }
        })
    }
}

impl SeedableRng for NoiseRng {
    fn seed_from_u64(seed: u64) -> Self {
        NoiseRng { rng: StdRng::seed_from_u64(seed), seed, position: 0 }
    }
}

impl Rng for NoiseRng {
    fn next_u64(&mut self) -> u64 {
        self.position += 1;
        self.rng.next_u64()
    }
}

/// One standard normal by the Box–Muller transform: the only place a
/// normal is computed.
fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A thread's memo of one stream's normals.
struct NormalMemo {
    /// The seed whose stream the thread draws.
    seed: u64,
    /// One past the furthest position drawn from `seed` on this thread: a
    /// draw below it re-draws the stream.
    furthest: u64,
    /// The normals, taken at the thread's first re-draw, so a thread that
    /// draws each stream once (one run per scenario) never pays for it.
    table: Option<Table>,
}

impl NormalMemo {
    /// Makes the memo follow `seed`'s stream, dropping another seed's
    /// normals.
    fn hold(&mut self, seed: u64) {
        if self.seed != seed {
            self.forget();
            self.seed = seed;
        }
    }

    /// Drops the held seed's normals: clears the validity bits its draws
    /// can have set.
    fn forget(&mut self) {
        if let Some(table) = &mut self.table {
            let words = self.furthest.div_ceil(64).min(table.filled.len() as u64);
            table.filled[..words as usize].fill(0);
        }
        self.furthest = 0;
    }
}

impl Drop for NormalMemo {
    /// Hands the cleared table on to the next thread that needs one.
    fn drop(&mut self) {
        self.forget();
        if let Some(table) = self.table.take() {
            SPARE_TABLES.lock().unwrap_or_else(PoisonError::into_inner).push(table);
        }
    }
}

/// Cleared tables of exited threads. Campaigns spawn their worker threads
/// per run, so a table passes to the next run's threads instead of being
/// allocated and faulted in again; there are never more tables than
/// threads that held one at once.
///
/// A push or pop leaves the list valid at every step, so a lock poisoned
/// by a panicking thread is still safe to use.
static SPARE_TABLES: Mutex<Vec<Table>> = Mutex::new(Vec::new());

/// The memo's table: the normal starting at each stream position.
struct Table {
    /// One validity bit per position.
    filled: Box<[u64]>,
    normals: Box<[f64]>,
}

impl Table {
    /// A spare table, or a new one allocated zeroed.
    fn take() -> Self {
        let spare = SPARE_TABLES.lock().unwrap_or_else(PoisonError::into_inner).pop();
        spare.unwrap_or_else(|| Table {
            filled: vec![0; MEMO_POSITIONS / 64].into_boxed_slice(),
            normals: vec![0.0; MEMO_POSITIONS].into_boxed_slice(),
        })
    }

    /// The normal starting at `rng`'s position: looked up, or computed
    /// and stored. Either way `rng` advances by the two draws.
    fn normal(&mut self, rng: &mut NoiseRng) -> f64 {
        let position = rng.position as usize;
        let (word, bit) = (position / 64, 1u64 << (position % 64));
        if self.filled[word] & bit != 0 {
            rng.next_u64();
            rng.next_u64();
            self.normals[position]
        } else {
            let z = box_muller(rng);
            self.filled[word] |= bit;
            self.normals[position] = z;
            z
        }
    }
}

thread_local! {
    static MEMO: RefCell<NormalMemo> =
        const { RefCell::new(NormalMemo { seed: 0, furthest: 0, table: None }) };
}

/// A Gaussian distribution `N(mean, std²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (≥ 0).
    pub std: f64,
}

impl Gaussian {
    /// Creates a distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0 && mean.is_finite() && std.is_finite(), "invalid Gaussian parameters");
        Gaussian { mean, std }
    }

    /// Draws one sample: `mean + std · z` for the stream's next standard
    /// normal `z` (two draws, memoized per thread — see the module doc).
    /// A zero deviation returns the mean and draws nothing.
    pub fn sample(&self, rng: &mut NoiseRng) -> f64 {
        if self.std == 0.0 {
            return self.mean;
        }
        self.mean + self.std * rng.standard_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_std_returns_mean() {
        let mut rng = NoiseRng::seed_from_u64(1);
        let g = Gaussian::new(5.0, 0.0);
        for _ in 0..10 {
            assert_eq!(g.sample(&mut rng), 5.0);
        }
        assert_eq!(rng.position(), 0);
    }

    #[test]
    fn sample_moments_match() {
        let mut rng = NoiseRng::seed_from_u64(7);
        let g = Gaussian::new(2.0, 3.0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 9.0).abs() < 0.2, "var = {var}");
    }

    #[test]
    #[should_panic(expected = "invalid Gaussian")]
    fn negative_std_panics() {
        let _ = Gaussian::new(0.0, -1.0);
    }

    /// The stream a sensor draws, computed straight from a plain
    /// `StdRng`: a dropout-style uniform draw every `gap`-th step, a
    /// normal otherwise.
    fn direct(seed: u64, skip: u64, steps: usize, gap: usize) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..skip {
            rng.next_u64();
        }
        (0..steps)
            .map(|i| {
                if i % gap == 0 {
                    rng.next_u64()
                } else {
                    (0.5 + 2.0 * box_muller(&mut rng)).to_bits()
                }
            })
            .collect()
    }

    /// The same stream through a `NoiseRng` and the memo.
    fn memoized(rng: &mut NoiseRng, steps: usize, gap: usize) -> Vec<u64> {
        let g = Gaussian::new(0.5, 2.0);
        (0..steps)
            .map(|i| if i % gap == 0 { rng.next_u64() } else { g.sample(rng).to_bits() })
            .collect()
    }

    #[test]
    fn memoized_streams_equal_the_direct_stream() {
        // Reseeded passes over one stream, past the table's capacity:
        // the first draws cold, the second allocates the table and fills
        // it, the third reads it back. Every value equals the direct
        // stream's.
        let steps = MEMO_POSITIONS + 5_000;
        let reference = direct(41, 0, steps, 5);
        for _ in 0..3 {
            let mut rng = NoiseRng::seed_from_u64(41);
            assert_eq!(memoized(&mut rng, steps, 5), reference);
            assert!(rng.position() > MEMO_POSITIONS as u64);
        }

        // Another draw pattern over the same stream meets the stored
        // normals at some positions and misses at others; a clone
        // continues from its source's position, and its source then
        // re-reads what the clone stored.
        let mut rng = NoiseRng::seed_from_u64(41);
        assert_eq!(memoized(&mut rng, 1_000, 7), direct(41, 0, 1_000, 7));
        let skip = rng.position();
        let mut fork = rng.clone();
        let tail = memoized(&mut fork, 2_000, 4);
        assert_eq!(tail, direct(41, skip, 2_000, 4));
        assert_eq!(memoized(&mut rng, 2_000, 4), tail);
        assert_eq!(rng.position(), fork.position());

        // Another seed evicts the first, and the first's normals are
        // computed afresh when it returns.
        let mut other = NoiseRng::seed_from_u64(42);
        assert_eq!(memoized(&mut other, 3_000, 3), direct(42, 0, 3_000, 3));
        let mut rng = NoiseRng::seed_from_u64(41);
        assert_eq!(memoized(&mut rng, 3_000, 5), reference[..3_000]);
    }

    #[test]
    fn tables_pass_to_later_threads_cleared() {
        // Each thread fills a table from its own seed and exits; the next
        // thread may take that table and must not read the old seed's
        // normals.
        for seed in 50..54u64 {
            std::thread::spawn(move || {
                for _ in 0..2 {
                    let mut rng = NoiseRng::seed_from_u64(seed);
                    assert_eq!(memoized(&mut rng, 2_000, 5), direct(seed, 0, 2_000, 5));
                }
            })
            .join()
            .unwrap();
        }
    }
}
