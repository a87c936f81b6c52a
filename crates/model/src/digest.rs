//! Content digests of planning instances.
//!
//! An [`InstanceDigest`] is a stable 128-bit fingerprint of everything that
//! determines an instance's planning outcome: the stencil outline (including
//! row structure), every character's geometry, blanks, and shot count, and
//! the full repeat matrix `t_ic`. Two instances with equal digests are
//! planning-equivalent, so a digest can pin golden outputs or deduplicate
//! request queues.
//!
//! The hash is a self-contained FNV-1a variant run twice with independent
//! offset bases — no external crates, no `std::hash::Hasher` (whose output
//! is explicitly not stable across releases). The digest is therefore stable
//! across processes, platforms, and compiler versions, which makes it safe
//! to persist.

use crate::Instance;
use core::fmt;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const OFFSET_LO: u64 = 0xCBF2_9CE4_8422_2325; // standard FNV-1a basis
const OFFSET_HI: u64 = 0x6C62_272E_07BB_0142; // FNV-0 of a distinct seed

/// A streaming 64-bit FNV-1a hasher with the same stability guarantee as
/// [`InstanceDigest`]: output never changes across processes, platforms, or
/// compiler versions (unlike `std::hash::Hasher` implementations). Shared
/// by the digest below and by the plan fingerprints of the golden and
/// benchmark checks, so the constants live in exactly one place.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the standard FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(OFFSET_LO)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: impl IntoIterator<Item = u8>) {
        for b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A 128-bit stable content fingerprint of an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceDigest {
    lo: u64,
    hi: u64,
}

impl InstanceDigest {
    /// Computes the digest of `instance`.
    pub fn of(instance: &Instance) -> Self {
        let mut d = DigestWriter::new();
        let s = instance.stencil();
        d.write_u64(s.width());
        d.write_u64(s.height());
        // Row structure changes the planning problem entirely; fold the
        // discriminant in, not just the value.
        match s.row_height() {
            Some(rh) => {
                d.write_u64(1);
                d.write_u64(rh);
            }
            None => d.write_u64(0),
        }
        d.write_u64(instance.num_chars() as u64);
        d.write_u64(instance.num_regions() as u64);
        for ch in instance.chars() {
            d.write_u64(ch.width());
            d.write_u64(ch.height());
            let b = ch.blanks();
            d.write_u64(b.left);
            d.write_u64(b.right);
            d.write_u64(b.bottom);
            d.write_u64(b.top);
            d.write_u64(ch.vsb_shots());
        }
        for i in 0..instance.num_chars() {
            for &t in instance.repeat_row(i) {
                d.write_u64(t);
            }
        }
        d.finish()
    }

    /// The digest as a fixed-width hex string (for logs and cache keys).
    pub fn to_hex(self) -> String {
        format!("{self}")
    }
}

impl fmt::Display for InstanceDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

struct DigestWriter {
    lo: Fnv64,
    hi: u64,
}

impl DigestWriter {
    fn new() -> Self {
        DigestWriter {
            lo: Fnv64::new(),
            hi: OFFSET_HI,
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.lo.write(v.to_le_bytes());
        for byte in v.to_le_bytes() {
            // The hi lane sees the byte shifted so the two lanes decorrelate.
            self.hi = (self.hi ^ (byte as u64).rotate_left(17)).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> InstanceDigest {
        InstanceDigest {
            lo: self.lo.finish(),
            hi: self.hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Character, Instance, Stencil};

    fn base_instance() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 20).unwrap(),
            Character::new(50, 40, [8, 6, 5, 5], 35).unwrap(),
        ];
        Instance::new(
            Stencil::with_rows(200, 40, 40).unwrap(),
            chars,
            vec![vec![10], vec![4]],
        )
        .unwrap()
    }

    #[test]
    fn equal_instances_equal_digests() {
        assert_eq!(
            InstanceDigest::of(&base_instance()),
            InstanceDigest::of(&base_instance())
        );
    }

    #[test]
    fn any_field_change_changes_the_digest() {
        let base = InstanceDigest::of(&base_instance());

        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 20).unwrap(),
            Character::new(50, 40, [8, 6, 5, 5], 36).unwrap(), // shots +1
        ];
        let shots = Instance::new(
            Stencil::with_rows(200, 40, 40).unwrap(),
            chars.clone(),
            vec![vec![10], vec![4]],
        )
        .unwrap();
        assert_ne!(base, InstanceDigest::of(&shots));

        let repeats = Instance::new(
            Stencil::with_rows(200, 40, 40).unwrap(),
            vec![
                Character::new(40, 40, [5, 5, 5, 5], 20).unwrap(),
                Character::new(50, 40, [8, 6, 5, 5], 35).unwrap(),
            ],
            vec![vec![10], vec![5]], // repeat +1
        )
        .unwrap();
        assert_ne!(base, InstanceDigest::of(&repeats));

        let wider = Instance::new(
            Stencil::with_rows(240, 40, 40).unwrap(),
            vec![
                Character::new(40, 40, [5, 5, 5, 5], 20).unwrap(),
                Character::new(50, 40, [8, 6, 5, 5], 35).unwrap(),
            ],
            vec![vec![10], vec![4]],
        )
        .unwrap();
        assert_ne!(base, InstanceDigest::of(&wider));
    }

    #[test]
    fn blank_asymmetry_is_captured() {
        let a = Instance::new(
            Stencil::new(100, 100).unwrap(),
            vec![Character::new(40, 40, [6, 2, 3, 3], 9).unwrap()],
            vec![vec![3]],
        )
        .unwrap();
        let b = Instance::new(
            Stencil::new(100, 100).unwrap(),
            vec![Character::new(40, 40, [2, 6, 3, 3], 9).unwrap()],
            vec![vec![3]],
        )
        .unwrap();
        assert_ne!(InstanceDigest::of(&a), InstanceDigest::of(&b));
    }

    #[test]
    fn hex_is_32_chars_and_stable() {
        let d = InstanceDigest::of(&base_instance());
        let hex = d.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, base_instance().digest().to_hex());
    }
}
