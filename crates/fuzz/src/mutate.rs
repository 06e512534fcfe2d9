//! The byte-level mutator: small, stacked, format-blind corruptions in
//! the spirit of AFL/libFuzzer's havoc stage, driven by [`sfn_rng`].
//!
//! Structure-aware *generation* lives in [`crate::gen`]; this module
//! only perturbs existing bytes. The two compose: generators produce
//! valid documents, the mutator walks them off the happy path one bit
//! flip, splice or truncation at a time — exactly the corruption
//! classes `sfn-faults` injects at artifact-read time.

use sfn_rng::{RngExt, StdRng};

/// Scalars worth injecting verbatim: boundary values for the length and
/// count fields binary formats carry (`0`, `1`, powers of two, `MAX`s),
/// in little-endian widths.
pub const INTERESTING: &[&[u8]] = &[
    &[0x00],
    &[0x01],
    &[0x7f],
    &[0x80],
    &[0xff],
    &[0xff, 0xff],
    &[0x00, 0x00],
    &[0xff, 0xff, 0xff, 0xff],             // u32::MAX
    &[0xff, 0xff, 0xff, 0x7f],             // i32::MAX
    &[0x00, 0x00, 0x00, 0x80],             // i32::MIN
    &[0x01, 0x00, 0x00, 0x00],             // 1u32 LE
    &[0x00, 0x00, 0x01, 0x00],             // 65536
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff], // u64::MAX
];

/// A seeded mutator configured with a per-format dictionary.
pub struct Mutator<'a> {
    dict: &'a [&'a [u8]],
}

impl<'a> Mutator<'a> {
    /// A mutator splicing from `dict` (may be empty).
    pub fn new(dict: &'a [&'a [u8]]) -> Self {
        Self { dict }
    }

    /// Applies 1–4 stacked mutations in place, keeping the result at or
    /// under `max_len` bytes.
    pub fn mutate(&self, rng: &mut StdRng, input: &mut Vec<u8>, max_len: usize) {
        let rounds = rng.random_range(1..=4usize);
        for _ in 0..rounds {
            self.mutate_once(rng, input);
        }
        if input.len() > max_len {
            input.truncate(max_len);
        }
    }

    fn mutate_once(&self, rng: &mut StdRng, input: &mut Vec<u8>) {
        if input.is_empty() {
            // Nothing to perturb: seed with a token or a byte.
            match self.dict.first() {
                Some(tok) if rng.random_unit() < 0.5 => input.extend_from_slice(tok),
                _ => input.push(rng.random_range(0..=255u32) as u8),
            }
            return;
        }
        match rng.random_range(0..8u32) {
            0 => {
                // Bit flip.
                let i = rng.random_range(0..input.len());
                input[i] ^= 1 << rng.random_range(0..8u32);
            }
            1 => {
                // Random byte overwrite.
                let i = rng.random_range(0..input.len());
                input[i] = rng.random_range(0..=255u32) as u8;
            }
            2 => {
                // Delete a range (interior truncation).
                let start = rng.random_range(0..input.len());
                let len = rng.random_range(1..=(input.len() - start).min(32));
                input.drain(start..start + len);
            }
            3 => {
                // Duplicate a range to another position (self-splice).
                let start = rng.random_range(0..input.len());
                let len = rng.random_range(1..=(input.len() - start).min(32));
                let chunk: Vec<u8> = input[start..start + len].to_vec();
                let at = rng.random_range(0..=input.len());
                input.splice(at..at, chunk);
            }
            4 => {
                // Overwrite with an interesting scalar.
                let v = INTERESTING[rng.random_range(0..INTERESTING.len())];
                let at = rng.random_range(0..input.len());
                for (o, &b) in v.iter().enumerate() {
                    match input.get_mut(at + o) {
                        Some(slot) => *slot = b,
                        None => input.push(b),
                    }
                }
            }
            5 => {
                // Insert a dictionary token (format keywords, magics).
                if self.dict.is_empty() {
                    let i = rng.random_range(0..input.len());
                    input[i] = input[i].wrapping_add(1);
                } else {
                    let tok = self.dict[rng.random_range(0..self.dict.len())];
                    let at = rng.random_range(0..=input.len());
                    input.splice(at..at, tok.iter().copied());
                }
            }
            6 => {
                // Truncate to a prefix (the crash-mid-write shape).
                let keep = rng.random_range(0..input.len());
                input.truncate(keep);
            }
            _ => {
                // Overwrite a short range with random bytes.
                let start = rng.random_range(0..input.len());
                let len = rng.random_range(1..=(input.len() - start).min(8));
                for slot in &mut input[start..start + len] {
                    *slot = rng.random_range(0..=255u32) as u8;
                }
            }
        }
    }

    /// Crossover: a prefix of `a` glued to a suffix of `b` — the
    /// classic splice step for pool pairs.
    pub fn splice(&self, rng: &mut StdRng, a: &[u8], b: &[u8], max_len: usize) -> Vec<u8> {
        let cut_a = if a.is_empty() { 0 } else { rng.random_range(0..=a.len()) };
        let cut_b = if b.is_empty() { 0 } else { rng.random_range(0..b.len()) };
        let mut out = Vec::with_capacity((cut_a + b.len() - cut_b).min(max_len));
        out.extend_from_slice(&a[..cut_a]);
        out.extend_from_slice(&b[cut_b..]);
        out.truncate(max_len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfn_rng::SeedableRng;

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let m = Mutator::new(&[b"null", b"true"]);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut x = b"{\"k\":[1,2,3]}".to_vec();
            for _ in 0..50 {
                m.mutate(&mut rng, &mut x, 256);
            }
            x
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn mutation_respects_max_len_and_handles_empty() {
        let m = Mutator::new(&[]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = Vec::new();
        for _ in 0..200 {
            m.mutate(&mut rng, &mut x, 64);
            assert!(x.len() <= 64, "{} bytes", x.len());
        }
    }

    #[test]
    fn splice_combines_prefix_and_suffix() {
        let m = Mutator::new(&[]);
        let mut rng = StdRng::seed_from_u64(3);
        let out = m.splice(&mut rng, b"aaaa", b"bbbb", 16);
        assert!(out.len() <= 8);
        assert!(out.iter().all(|&b| b == b'a' || b == b'b'));
    }
}
