use std::fmt;
use std::ops::{BitXor, BitXorAssign};

use rand::Rng;

/// A 128-bit block: the unit of garbled-circuit wire labels, garbled-table
/// rows and OT messages.
///
/// The least-significant bit doubles as the point-and-permute *color bit*;
/// the Free-XOR global offset Δ always has this bit set so that the two
/// labels of a wire carry opposite colors.
///
/// # Example
///
/// ```
/// use deepsecure_crypto::Block;
///
/// let a = Block::from(0b1010u128);
/// let b = Block::from(0b0110u128);
/// assert_eq!((a ^ b).as_u128(), 0b1100);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Block(u128);

impl Block {
    /// The all-zero block.
    pub const ZERO: Block = Block(0);
    /// The all-one block.
    pub const ONES: Block = Block(u128::MAX);

    /// Creates a block from raw little-endian bytes.
    #[inline]
    pub fn from_bytes(bytes: [u8; 16]) -> Block {
        Block(u128::from_le_bytes(bytes))
    }

    /// Returns the block as raw little-endian bytes.
    #[inline]
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Returns the underlying 128-bit integer.
    #[inline]
    pub fn as_u128(self) -> u128 {
        self.0
    }

    /// The point-and-permute color bit (least-significant bit).
    #[inline]
    pub fn color(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns a copy with the color bit forced to `bit`.
    #[inline]
    pub fn with_color(self, bit: bool) -> Block {
        Block((self.0 & !1) | u128::from(bit))
    }

    /// `self` when `bit` is set and zero otherwise, through an all-ones or
    /// all-zero mask rather than a branch: the gate walks' colour-bit
    /// selects, so their control flow does not depend on a label.
    #[inline]
    pub fn masked(self, bit: bool) -> Block {
        Block(self.0 & u128::from(bit).wrapping_neg())
    }

    /// Doubling in GF(2^128) with the canonical reduction polynomial
    /// `x^128 + x^7 + x^2 + x + 1`; used to derive the tweakable hash input
    /// `2L` without losing entropy to simple shifts.
    #[inline]
    pub fn gf_double(self) -> Block {
        let carry = self.0 >> 127;
        Block((self.0 << 1) ^ (carry * 0b1000_0111))
    }

    /// Samples a uniformly random block.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Block {
        Block(rng.gen())
    }

    /// Samples a random Free-XOR offset: uniform except the color bit is 1.
    pub fn random_delta<R: Rng + ?Sized>(rng: &mut R) -> Block {
        Block::random(rng).with_color(true)
    }
}

impl From<u128> for Block {
    fn from(v: u128) -> Block {
        Block(v)
    }
}

impl From<Block> for u128 {
    fn from(b: Block) -> u128 {
        b.0
    }
}

impl BitXor for Block {
    type Output = Block;
    #[inline]
    fn bitxor(self, rhs: Block) -> Block {
        Block(self.0 ^ rhs.0)
    }
}

impl BitXorAssign for Block {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Block) {
        self.0 ^= rhs.0;
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block({:032x})", self.0)
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::LowerHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xor_roundtrip() {
        let a = Block::from(0xdead_beef_u128);
        let b = Block::from(0x1234_5678_u128);
        assert_eq!(a ^ b ^ b, a);
        assert_eq!(a ^ Block::ZERO, a);
    }

    #[test]
    fn color_bit() {
        assert!(Block::from(1u128).color());
        assert!(!Block::from(2u128).color());
        assert!(Block::from(2u128).with_color(true).color());
        assert_eq!(Block::from(3u128).with_color(false).as_u128(), 2);
    }

    #[test]
    fn delta_has_color() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert!(Block::random_delta(&mut rng).color());
        }
    }

    #[test]
    fn masked_keeps_or_clears_every_bit() {
        let b = Block::from(0x8000_0000_0000_0000_0000_0000_0000_0001_u128);
        assert_eq!(b.masked(true), b);
        assert_eq!(b.masked(false), Block::ZERO);
        assert_eq!(Block::ONES.masked(true), Block::ONES);
    }

    #[test]
    fn gf_double_is_injective_on_samples() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let b = Block::random(&mut rng);
            assert!(seen.insert(b.gf_double()));
        }
    }

    #[test]
    fn gf_double_reduces_carry() {
        let top = Block::from(1u128 << 127);
        assert_eq!(top.gf_double().as_u128(), 0b1000_0111);
    }

    #[test]
    fn bytes_roundtrip() {
        let b = Block::from(0x0102_0304_0506_0708_090a_0b0c_0d0e_0f10_u128);
        assert_eq!(Block::from_bytes(b.to_bytes()), b);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Block::ZERO).is_empty());
    }
}
