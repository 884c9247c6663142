//! Host-speed calibration: a frozen reference kernel, timed next to every
//! repetition, against which the wall metrics are normalised.
//!
//! The reference host is a shared 2-vCPU guest whose speed moves by 30–40 %
//! for minutes at a time and by 10–20 % from one second to the next (a
//! neighbour on the sibling hyperthread, most likely). Pinning and medians
//! take care of the second kind only. Dividing each repetition's rate by
//! the speed this kernel reached right before and right after it takes
//! ten-run spreads from 15–27 % to 6–8 % when the host is busy, and leaves
//! them where they were (4–9 %) when it is calm — see README.md.
//!
//! The kernel is part of the benchmark's definition: changing it rescales
//! `stmts_per_s` and `setup_s` on every workload.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Units per second the kernel reaches on the reference host when nothing
/// interferes. Normalised metrics read as "on the reference host, calm".
pub const REFERENCE_SPEED: f64 = 45_000.0;

/// How long one calibration sample spins.
const SAMPLE: Duration = Duration::from_millis(30);

/// One unit of reference work, shaped like the statement path: text
/// formatting and byte scanning, hashing, small heap allocations, hash-map
/// probes, a small sort and float math.
fn unit(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(64);
    let mut acc = 0u64;
    let mut f = 1.0f64;
    for _ in 0..64 {
        let text = format!(
            "SELECT a, b FROM t WHERE a = {} AND b > {}",
            next() % 100_000,
            next() % 1_000
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in text.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        *map.entry(h % 97).or_insert(0) += 1;
        let mut v: Vec<u64> = (0..16).map(|_| next() % 1_000).collect();
        v.sort_unstable();
        acc = acc.wrapping_add(v[8]).wrapping_add(h);
        f = (f * 1.000_1 + (h % 7) as f64).ln_1p().exp();
    }
    acc.wrapping_add(map.len() as u64).wrapping_add(f as u64)
}

/// One calibration sample: reference units per second on the calling
/// thread, over [`SAMPLE`].
pub fn host_speed() -> f64 {
    let t0 = Instant::now();
    let mut units = 0u64;
    let mut acc = 0u64;
    loop {
        for _ in 0..8 {
            acc = acc.wrapping_add(unit(black_box(units)));
            units += 1;
        }
        let elapsed = t0.elapsed();
        if elapsed >= SAMPLE {
            black_box(acc);
            return units as f64 / elapsed.as_secs_f64();
        }
    }
}
