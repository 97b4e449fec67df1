//! Multiply-rotate hashing for maps whose keys the program assigns
//! itself: node ids, instruction addresses, the addresses of static
//! names. SipHash, the `HashMap` default, costs more than a hit on such a
//! map saves, and its resistance to crafted collisions is not needed
//! here: no key comes from outside the program.

use std::hash::{BuildHasherDefault, Hasher};

/// The `HashMap` state for [`MixHasher`]; `MixState::new()` is `const`.
pub type MixState = BuildHasherDefault<MixHasher>;

/// One multiply-rotate round per word written.
#[derive(Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    /// The product's best bits are its high ones; the table indexes
    /// buckets with the low ones.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}
